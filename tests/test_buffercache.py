"""Tests for the dual-indexed buffer cache."""

import pytest

from repro.blockdev.device import BLOCK_SIZE
from repro.cache.buffercache import BufferCache
from repro.errors import InvalidArgument, MediaWriteError
from repro.faults import FaultyBlockDevice
from tests.conftest import PinnedFaults, dirty_count, make_device


def make_cache(capacity: int = 16) -> BufferCache:
    return BufferCache(make_device(), capacity_blocks=capacity)


class TestLookups:
    def test_get_reads_through(self):
        cache = make_cache()
        buf = cache.get(5)
        assert bytes(buf.data) == bytes(BLOCK_SIZE)
        assert cache.misses == 1

    def test_second_get_hits(self):
        cache = make_cache()
        cache.get(5)
        cache.get(5)
        assert cache.hits == 1
        assert cache.misses == 1

    def test_peek_never_reads(self):
        cache = make_cache()
        assert cache.peek(5) is None
        t = cache.device.clock.now
        cache.peek(5)
        assert cache.device.clock.now == t

    def test_logical_identity_assignment(self):
        cache = make_cache()
        cache.get(5, logical=(42, 0))
        assert cache.get_logical((42, 0)).bno == 5

    def test_logical_reassignment_drops_old(self):
        cache = make_cache()
        cache.get(5, logical=(42, 0))
        cache.get(5, logical=(42, 7))
        assert cache.get_logical((42, 0)) is None
        assert cache.get_logical((42, 7)).bno == 5

    def test_install_without_read(self):
        cache = make_cache()
        before = cache.device.disk.stats.reads
        cache.install(9, b"x" * BLOCK_SIZE, logical=(1, 0))
        assert cache.device.disk.stats.reads == before
        assert bytes(cache.get(9).data) == b"x" * BLOCK_SIZE

    def test_install_preserves_dirty_data(self):
        """A group read must not clobber newer cached data."""
        cache = make_cache()
        buf = cache.create(9)
        buf.data[:4] = b"NEW!"
        cache.mark_dirty(9)
        cache.install(9, b"old " * 1024)
        assert bytes(cache.get(9).data[:4]) == b"NEW!"

    def test_install_overwrites_clean_data(self):
        cache = make_cache()
        cache.get(9)
        cache.install(9, b"y" * BLOCK_SIZE)
        assert bytes(cache.get(9).data) == b"y" * BLOCK_SIZE

    def test_install_checks_length_fresh_and_over_a_cached_buffer(self):
        """A short image is refused where it enters the buffer, not at
        some later write-out of the block."""
        cache = make_cache()
        with pytest.raises(ValueError):
            cache.install(4, b"short")
        assert cache.peek(4) is None
        cache.get(5)
        with pytest.raises(ValueError):
            cache.install(5, b"short")
        assert len(cache.get(5).data) == BLOCK_SIZE
        cache.sync()


class TestWrites:
    def test_write_sync_reaches_device(self):
        cache = make_cache()
        buf = cache.create(7)
        buf.data[:] = b"z" * BLOCK_SIZE
        cache.write_sync(7)
        cache.device.flush()
        assert cache.device.peek_block(7) == b"z" * BLOCK_SIZE
        assert dirty_count(cache) == 0

    def test_mark_dirty_then_flush(self):
        cache = make_cache()
        buf = cache.create(7)
        buf.data[:] = b"w" * BLOCK_SIZE
        cache.mark_dirty(7)
        assert dirty_count(cache) == 1
        cache.sync()
        assert dirty_count(cache) == 0
        assert cache.device.peek_block(7) == b"w" * BLOCK_SIZE

    def test_flush_batches_requests(self):
        cache = make_cache(64)
        for b in range(10, 18):
            cache.create(b)
            cache.mark_dirty(b)
        before = cache.device.disk.stats.writes
        cache.flush()
        assert cache.device.disk.stats.writes == before + 1  # coalesced

    def test_forget_discards_dirty(self):
        cache = make_cache()
        cache.create(7)
        cache.mark_dirty(7)
        cache.forget(7)
        assert dirty_count(cache) == 0
        cache.sync()
        assert cache.device.peek_block(7) == bytes(BLOCK_SIZE)


class TestEviction:
    def test_capacity_enforced(self):
        cache = make_cache(8)
        for b in range(20):
            cache.get(b)
        assert cache.evictions >= 12

    def test_eviction_writes_dirty_back(self):
        cache = make_cache(8)
        buf = cache.create(0)
        buf.data[:] = b"d" * BLOCK_SIZE
        cache.mark_dirty(0)
        for b in range(1, 12):
            cache.get(b)
        assert cache.peek(0) is None
        cache.device.flush()
        assert cache.device.peek_block(0) == b"d" * BLOCK_SIZE

    def test_reread_after_eviction_sees_written_data(self):
        cache = make_cache(8)
        buf = cache.create(0)
        buf.data[:] = b"e" * BLOCK_SIZE
        cache.mark_dirty(0)
        for b in range(1, 12):
            cache.get(b)
        assert bytes(cache.get(0).data) == b"e" * BLOCK_SIZE

    def test_flush_companions_gathers(self):
        cache = make_cache(8)
        for b in range(3):
            cache.create(100 + b, logical=(9, b))
            cache.mark_dirty(100 + b)

        def companions(victim):
            return [100, 101, 102]

        cache.flush_companions = companions
        before = cache.device.disk.stats.writes
        # Force eviction of the oldest (100).
        for b in range(1, 10):
            cache.get(b)
        # All three went out in one coalesced request.
        assert cache.device.disk.stats.writes == before + 1
        assert dirty_count(cache) == 0

    def test_lru_order(self):
        cache = make_cache(8)
        for b in range(8):
            cache.get(b)
        cache.get(0)  # touch 0 so 1 becomes LRU
        cache.get(100)
        assert cache.peek(1) is None
        assert cache.peek(0) is not None


class TestInvalidation:
    def test_invalidate_all_requires_clean(self):
        cache = make_cache()
        cache.create(5)
        cache.mark_dirty(5)
        with pytest.raises(InvalidArgument):
            cache.invalidate_all()

    def test_invalidate_all_clears(self):
        cache = make_cache()
        cache.get(5, logical=(1, 0))
        cache.invalidate_all()
        assert cache.peek(5) is None
        assert cache.get_logical((1, 0)) is None

    def test_drop_logical(self):
        cache = make_cache()
        cache.get(5, logical=(1, 0))
        cache.drop_logical((1, 0))
        assert cache.get_logical((1, 0)) is None
        assert cache.peek(5) is not None

    def test_rejects_tiny_capacity(self):
        with pytest.raises(InvalidArgument):
            BufferCache(make_device(), capacity_blocks=2)


class _Pipeline:
    """Write pipeline that records what ``prepare`` is handed and
    answers from a per-block script (default: write it, fully clean)."""

    def __init__(self, answers=None):
        self.answers = answers if answers is not None else {}
        self.prepared = []
        self.committed_bnos = []

    def prepare(self, bno, data):
        self.prepared.append((bno, data))
        answer = self.answers.get(bno, "write")
        if answer == "defer":
            return None
        if answer == "write":
            return (data, True)
        return (answer, False)  # a rolled-back image

    def committed(self, bnos):
        self.committed_bnos.extend(bnos)

    def ready(self, bno):
        return True

    def pre_flush(self):
        pass

    def post_flush(self):
        pass

    def forgotten(self, bno):
        pass


class TestImageOwnership:
    """One immutable image per block version: what is shared, when the
    copy is made, and the edit that follows a write-out."""

    def test_fill_and_install_alias_the_given_bytes(self):
        cache = make_cache()
        image = b"i" * BLOCK_SIZE
        cache.device.poke_block(3, image)
        assert cache.get(3).image is image
        assert cache.install(4, image).image is image
        # A mutable payload is snapshotted, never aliased.
        scratch = bytearray(image)
        buf = cache.install(6, scratch)
        scratch[0] = 0
        assert buf.image == image

    def test_first_edit_copies_and_leaves_the_shared_image_alone(self):
        cache = make_cache()
        image = b"s" * BLOCK_SIZE
        cache.device.poke_block(3, image)
        buf = cache.get(3)
        buf.data[:4] = b"EDIT"
        assert buf.data is buf.data           # one private copy, kept
        assert buf.image[:4] == b"EDIT"
        assert image == b"s" * BLOCK_SIZE
        assert cache.device.peek_block(3) is image

    def test_edit_flush_edit_flush_lands_both_edits(self):
        cache = make_cache()
        buf = cache.create(7)
        buf.data[:5] = b"first"
        cache.mark_dirty(7)
        cache.flush()
        # The write-out froze the buffer: device and cache hold one object.
        assert cache.peek(7).image is cache.device.peek_block(7)
        assert type(cache.peek(7).image) is bytes
        buf.data[5:11] = b"second"
        cache.mark_dirty(7)
        assert cache.device.peek_block(7)[:11] == b"first" + bytes(6)
        cache.flush()
        assert cache.device.peek_block(7)[:11] == b"firstsecond"
        assert cache.peek(7).image is cache.device.peek_block(7)

    @pytest.mark.parametrize("op", ["flush", "flush_blocks", "evict"])
    def test_prepare_is_handed_the_bytes_the_device_stores(self, op):
        cache = make_cache(8)
        cache.write_pipeline = pipe = _Pipeline()
        cache.create(0).data[:3] = b"abc"
        cache.mark_dirty(0)
        if op == "flush":
            cache.flush()
        elif op == "flush_blocks":
            cache.flush_blocks([0])
        else:
            for b in range(1, 12):
                cache.get(b)
        (bno, data), = pipe.prepared
        assert bno == 0 and type(data) is bytes and data[:3] == b"abc"
        assert cache.device.peek_block(0) is data
        assert pipe.committed_bnos == [0]

    def test_write_sync_hands_a_pipeline_bytes(self):
        cache = make_cache()
        cache.write_pipeline = pipe = _Pipeline()
        cache.create(0).data[:3] = b"abc"
        cache.write_sync(0)
        (_, data), = pipe.prepared
        assert type(data) is bytes and cache.device.peek_block(0) == data

    def test_deferred_block_keeps_contents_and_stays_dirty(self):
        cache = make_cache()
        cache.write_pipeline = pipe = _Pipeline({7: "defer"})
        cache.create(7).data[:4] = b"keep"
        cache.mark_dirty(7)
        cache.create(9).data[:4] = b"goes"
        cache.mark_dirty(9)
        cache.flush()
        assert cache.peek(7).dirty and dirty_count(cache) == 1
        assert cache.peek(7).image[:4] == b"keep"
        assert cache.device.peek_block(7) == bytes(BLOCK_SIZE)
        assert cache.device.peek_block(9)[:4] == b"goes"
        # Still editable, and the later write carries both edits.
        cache.peek(7).data[4:8] = b"more"
        pipe.answers.clear()
        cache.sync()
        assert cache.device.peek_block(7)[:8] == b"keepmore"

    def test_rolled_back_block_keeps_contents_and_stays_dirty(self):
        cache = make_cache()
        old = b"o" * BLOCK_SIZE
        cache.write_pipeline = pipe = _Pipeline({7: old})
        cache.create(7).data[:3] = b"new"
        cache.mark_dirty(7)
        cache.flush()
        assert cache.device.peek_block(7) is old       # written rolled back
        assert cache.peek(7).dirty
        assert cache.peek(7).image[:3] == b"new"       # cache keeps the newest
        pipe.answers.clear()
        cache.sync()
        assert cache.device.peek_block(7)[:3] == b"new"
        assert dirty_count(cache) == 0

    def test_hard_write_fault_mid_batch_keeps_every_buffer_and_retries(self):
        device = FaultyBlockDevice(make_device(), schedule=PinnedFaults())
        cache = BufferCache(device, capacity_blocks=16)
        bnos = (10, 20, 30)                  # three requests, one each
        for bno in bnos:
            cache.create(bno).data[:2] = b"%02d" % bno
            cache.mark_dirty(bno)
        device.schedule.fail_write(device.stats.writes + 1)  # the second
        with pytest.raises(MediaWriteError):
            cache.flush()
        landed = [b for b in bnos if device.peek_block(b)[:2] == b"%02d" % b]
        assert len(landed) == 1
        assert dirty_count(cache) == 3
        for bno in bnos:
            assert cache.peek(bno).dirty
            assert cache.peek(bno).image[:2] == b"%02d" % bno
        cache.sync()
        assert dirty_count(cache) == 0
        for bno in bnos:
            assert device.peek_block(bno) is cache.peek(bno).image

    def test_create_after_forget_reads_zeros_and_shares_nothing_mutable(self):
        cache = make_cache()
        first = cache.create(7)
        first.data[:] = b"q" * BLOCK_SIZE
        cache.mark_dirty(7)
        cache.flush()
        on_disk = cache.device.peek_block(7)
        cache.forget(7)
        again = cache.create(7)
        assert again is not first
        assert again.image == bytes(BLOCK_SIZE)
        again.data[:3] = b"new"
        # Neither the old version nor the zeros other blocks share moved.
        assert on_disk == b"q" * BLOCK_SIZE
        assert cache.create(8).image == bytes(BLOCK_SIZE)
        assert cache.device.peek_block(99) == bytes(BLOCK_SIZE)

    def test_create_replaces_a_dirty_buffer_wholesale(self):
        cache = make_cache()
        cache.create(7).data[:] = b"d" * BLOCK_SIZE
        cache.mark_dirty(7)
        image = b"w" * BLOCK_SIZE
        assert cache.create(7, image=image).image is image
        with pytest.raises(ValueError):
            cache.create(7, image=b"x" * (BLOCK_SIZE + 1))
        assert cache.peek(7).image is image and cache.peek(7).dirty
        assert cache.create(7).image == bytes(BLOCK_SIZE)
