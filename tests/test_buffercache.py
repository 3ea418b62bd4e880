"""Tests for the dual-indexed buffer cache."""

import pytest

from repro.blockdev.device import BLOCK_SIZE
from repro.cache.buffercache import BufferCache
from repro.errors import InvalidArgument
from tests.conftest import make_device


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
        assert cache.dirty_count == 0

    def test_mark_dirty_then_flush(self):
        cache = make_cache()
        buf = cache.create(7)
        buf.data[:] = b"w" * BLOCK_SIZE
        cache.mark_dirty(7)
        assert cache.dirty_count == 1
        cache.sync()
        assert cache.dirty_count == 0
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
        assert cache.dirty_count == 0
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
        assert cache.dirty_count == 0

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
