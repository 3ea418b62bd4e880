"""Tests for the grouped allocator, its bitmap scan, and the
block-mapping trees."""

import random

import pytest

from repro.cache.buffercache import BufferCache
from repro.errors import NoSpace
from repro.ffs import mapping
from repro.ffs.alloc import GroupedAllocator
from repro.ffs.cylgroup import (bit_is_set, clear_bit, clear_run,
                                find_clear_bit, run_bits)
from repro.ffs.layout import NDIRECT, PTRS_PER_INDIRECT
from tests.conftest import free_blocks, make_device


def make_alloc(n_cgs: int = 3, blocks_per_cg: int = 128, data_start: int = 4):
    cache = BufferCache(make_device(), 256)
    alloc = GroupedAllocator(
        cache,
        n_cgs=n_cgs,
        blocks_per_cg=blocks_per_cg,
        inodes_per_cg=32,
        data_start=data_start,
        cg_base_of=lambda cgi: 1 + cgi * blocks_per_cg,
    )
    # Initialize descriptors and bitmaps (mkfs-lite).
    from repro.ffs.layout import pack_cg

    for cgi in range(n_cgs):
        base = 1 + cgi * blocks_per_cg
        desc = cache.create(base)
        desc.data[:] = pack_cg(blocks_per_cg - data_start, 32, data_start, 0)
        bmap = cache.create(base + 1)
        for off in range(data_start):
            bmap.data[off >> 3] |= 1 << (off & 7)
        cache.mark_dirty(base)
        cache.mark_dirty(base + 1)
    return alloc, cache


def _probe_clear_bit(bitmap, start, end):
    """The reference for :func:`find_clear_bit`: probe each offset in
    order.  The allocator trusts the byte-skipping scan to pick the
    *same* block, which is what keeps disk images byte-identical."""
    for offset in range(start, end):
        if not bit_is_set(bitmap, offset):
            return offset
    return None


class TestFindClearBit:
    def test_matches_probe_loop_on_random_bitmaps(self):
        rng = random.Random(0xB17)
        for _ in range(400):
            nbits = rng.randrange(8, 257)
            nbytes = (nbits + 7) // 8
            # Mostly-full bitmaps: the shape the byte-skip targets.
            bitmap = bytearray(
                0xFF if rng.random() < 0.7 else rng.getrandbits(8)
                for _ in range(nbytes))
            start = rng.randrange(0, nbits)
            end = rng.randrange(start, nbits + 1)
            assert find_clear_bit(bitmap, start, end) == \
                _probe_clear_bit(bitmap, start, end)

    def test_edges(self):
        full = bytearray(b"\xff" * 8)
        assert find_clear_bit(full, 0, 64) is None
        assert find_clear_bit(full, 5, 5) is None  # empty range
        empty = bytearray(8)
        assert find_clear_bit(empty, 0, 64) == 0
        assert find_clear_bit(empty, 63, 64) == 63
        # First clear bit sits exactly on / just past the end bound.
        bm = bytearray(b"\xff" * 8)
        bm[4] = 0xFE  # bit 33 onward set, bit 32 clear
        assert find_clear_bit(bm, 0, 33) == 32
        assert find_clear_bit(bm, 0, 32) is None
        assert find_clear_bit(bm, 33, 64) is None


class TestBlockAllocation:
    def test_alloc_in_preferred_group(self):
        alloc, _ = make_alloc()
        bno = alloc.alloc_block(1)
        assert alloc.cg_of_block(bno) == 1

    def test_alloc_marks_bitmap(self):
        alloc, _ = make_alloc()
        bno = alloc.alloc_block(0)
        assert not alloc.run_is_free(bno, 1)

    def test_alloc_unique(self):
        alloc, _ = make_alloc()
        seen = {alloc.alloc_block(0) for _ in range(100)}
        assert len(seen) == 100

    def test_free_then_realloc(self):
        alloc, _ = make_alloc()
        bno = alloc.alloc_block(0)
        alloc.free_block(bno)
        assert alloc.run_is_free(bno, 1)

    def test_double_free_rejected(self):
        alloc, _ = make_alloc()
        bno = alloc.alloc_block(0)
        alloc.free_block(bno)
        with pytest.raises(NoSpace):
            alloc.free_block(bno)

    def test_spill_to_next_group(self):
        alloc, _ = make_alloc(n_cgs=2, blocks_per_cg=16, data_start=4)
        for _ in range(12):
            assert alloc.cg_of_block(alloc.alloc_block(0)) == 0
        assert alloc.cg_of_block(alloc.alloc_block(0)) == 1

    def test_exhaustion_raises(self):
        alloc, _ = make_alloc(n_cgs=1, blocks_per_cg=16, data_start=4)
        for _ in range(12):
            alloc.alloc_block(0)
        with pytest.raises(NoSpace):
            alloc.alloc_block(0)

    def test_pref_offset_exact(self):
        alloc, _ = make_alloc()
        bno = alloc.alloc_block(0, pref_offset=50)
        assert bno == 1 + 50

    def test_pref_offset_next_fit(self):
        alloc, _ = make_alloc()
        first = alloc.alloc_block(0, pref_offset=50)
        second = alloc.alloc_block(0, pref_offset=50)
        assert second == first + 1

    def test_spread_leaves_gaps(self):
        alloc, _ = make_alloc()
        a = alloc.alloc_block(0, spread=6)
        b = alloc.alloc_block(0, spread=6)
        c = alloc.alloc_block(0, spread=6)
        assert b - a == 7
        assert c - b == 7

    def test_spread_moves_on_not_wraps(self):
        """When a group's strides run out, spreading continues in the
        next group instead of densely filling the gaps."""
        alloc, _ = make_alloc(n_cgs=2, blocks_per_cg=64, data_start=4)
        cgs = [alloc.cg_of_block(alloc.alloc_block(0, spread=6)) for _ in range(12)]
        assert 1 in cgs

    def test_dense_fallback_under_pressure(self):
        """With every stride exhausted, spreading falls back to dense."""
        alloc, _ = make_alloc(n_cgs=1, blocks_per_cg=32, data_start=4)
        got = [alloc.alloc_block(0, spread=6) for _ in range(20)]
        assert len(set(got)) == 20  # all succeeded, gaps got used

    def test_free_counts_tracked(self):
        alloc, _ = make_alloc()
        before = free_blocks(alloc)
        bnos = [alloc.alloc_block(0) for _ in range(10)]
        assert free_blocks(alloc) == before - 10
        for b in bnos:
            alloc.free_block(b)
        assert free_blocks(alloc) == before


class TestRunBits:
    def test_match_the_single_bit_primitives_on_random_bitmaps(self):
        rng = random.Random(0xC1EA)
        for _ in range(300):
            bitmap = bytearray(rng.getrandbits(8) for _ in range(12))
            count = rng.randrange(1, 17)
            offset = rng.randrange(0, 96 - count)
            bits = run_bits(bitmap, offset, count)
            assert [bits >> i & 1 for i in range(count)] == [
                int(bit_is_set(bitmap, offset + i)) for i in range(count)]
            expected = bytearray(bitmap)
            for i in range(count):
                clear_bit(expected, offset + i)
            clear_run(bitmap, offset, count)
            assert bitmap == expected


class TestContiguous:
    def test_contiguous_run(self):
        alloc, _ = make_alloc()
        start = alloc.alloc_contiguous(0, 16, align=16)
        assert start is not None
        for i in range(16):
            assert not alloc.run_is_free(start + i, 1)

    def test_alignment(self):
        alloc, _ = make_alloc()
        alloc.alloc_block(0)  # disturb the start of the area
        start = alloc.alloc_contiguous(0, 16, align=16)
        assert (start - 1 - 4) % 16 == 0  # aligned within the data area

    def test_contiguous_none_when_fragmented(self):
        alloc, _ = make_alloc(n_cgs=1, blocks_per_cg=64, data_start=4)
        # Allocate every other block: no 4-run remains.
        area = 64 - 4
        for off in range(0, area, 2):
            alloc.alloc_block(0, pref_offset=4 + off)
        assert alloc.alloc_contiguous(0, 4) is None

    def test_contiguous_spills_groups(self):
        alloc, _ = make_alloc(n_cgs=2, blocks_per_cg=64, data_start=4)
        # Fill group 0 completely.
        while True:
            try:
                b = alloc.alloc_block(0)
            except NoSpace:
                break
            if alloc.cg_of_block(b) != 0:
                alloc.free_block(b)
                break
        start = alloc.alloc_contiguous(0, 16, align=16)
        assert start is not None
        assert alloc.cg_of_block(start) == 1

    @pytest.mark.parametrize("count", [1, 2, 7, 8, 16])
    def test_free_contiguous_is_free_block_count_times(self, count):
        """Same bitmap bytes, same counts, one bitmap edit: runs that
        start mid-byte and cross byte boundaries included."""
        counts_a, counts_b = {"free_blocks": 0}, {"free_blocks": 0}
        (a, cache_a), (b, cache_b) = make_alloc(), make_alloc()
        a.counts, b.counts = counts_a, counts_b
        for alloc in (a, b):
            for _ in range(3):       # shift the run off a byte boundary
                alloc.alloc_block(1)
        start = a.alloc_contiguous(1, count)
        assert b.alloc_contiguous(1, count) == start
        assert not a.run_is_free(start, count)
        a.free_contiguous(start, count)
        for i in range(count):
            b.free_block(start + i)
        bitmap = a.group(1).bitmap_block
        assert cache_a.peek(bitmap).image == cache_b.peek(bitmap).image
        assert a.group(1).free_blocks == b.group(1).free_blocks
        assert counts_a == counts_b == {"free_blocks": -3}
        assert a.run_is_free(start, count)
        assert not a.run_is_free(start - 1, count)    # a neighbour is in use

    def test_free_contiguous_refuses_a_run_with_a_free_block(self):
        alloc, cache = make_alloc()
        start = alloc.alloc_contiguous(0, 16, align=16)
        alloc.free_block(start + 5)
        bitmap = alloc.group(0).bitmap_block
        before = bytes(cache.peek(bitmap).image)
        free_before = alloc.group(0).free_blocks
        with pytest.raises(NoSpace, match="double free of block %d$" % (start + 5)):
            alloc.free_contiguous(start, 16)
        assert cache.peek(bitmap).image == before     # nothing half-freed
        assert alloc.group(0).free_blocks == free_before


class TestInodeAllocation:
    def test_alloc_in_pref_group(self):
        alloc, _ = make_alloc()
        inum = alloc.alloc_inode(1)
        assert (inum - 1) // 32 == 1

    def test_alloc_unique(self):
        alloc, _ = make_alloc()
        inums = {alloc.alloc_inode(0) for _ in range(40)}
        assert len(inums) == 40

    def test_free_and_reuse(self):
        alloc, _ = make_alloc(n_cgs=1)
        inums = [alloc.alloc_inode(0) for _ in range(32)]
        alloc.free_inode(inums[5])
        assert alloc.alloc_inode(0) == inums[5]   # the only free one

    def test_double_free_rejected(self):
        alloc, _ = make_alloc()
        inum = alloc.alloc_inode(0)
        alloc.free_inode(inum)
        with pytest.raises(NoSpace):
            alloc.free_inode(inum)

    def test_exhaustion(self):
        alloc, _ = make_alloc(n_cgs=1)
        for _ in range(32):
            alloc.alloc_inode(0)
        with pytest.raises(NoSpace):
            alloc.alloc_inode(0)

    def test_mirrors_survive_drop(self):
        alloc, cache = make_alloc()
        inum = alloc.alloc_inode(0)
        bno = alloc.alloc_block(0)
        alloc.store_descriptors()
        cache.flush()
        alloc.drop_mirrors()
        alloc.free_inode(inum)          # a free inode would be a NoSpace
        assert not alloc.run_is_free(bno, 1)


class _FakeInode:
    def __init__(self):
        self.direct = [0] * NDIRECT
        self.indirect = 0
        self.dindirect = 0


class TestMapping:
    def setup_method(self):
        self.cache = BufferCache(make_device(), 256)
        self.next = [1000]

    def alloc(self) -> int:
        self.next[0] += 1
        return self.next[0]

    def test_direct_lookup_hole(self):
        assert mapping.bmap_lookup(self.cache, _FakeInode(), 0) == 0

    def test_direct_ensure(self):
        ino = _FakeInode()
        bno, created = mapping.bmap_ensure(self.cache, ino, 3, self.alloc, self.alloc)
        assert created
        assert ino.direct[3] == bno
        again, created2 = mapping.bmap_ensure(self.cache, ino, 3, self.alloc, self.alloc)
        assert not created2 and again == bno

    def test_single_indirect(self):
        ino = _FakeInode()
        idx = NDIRECT + 5
        bno, created = mapping.bmap_ensure(self.cache, ino, idx, self.alloc, self.alloc)
        assert created
        assert ino.indirect != 0
        assert mapping.bmap_lookup(self.cache, ino, idx) == bno

    def test_double_indirect(self):
        ino = _FakeInode()
        idx = NDIRECT + PTRS_PER_INDIRECT + 7
        bno, _ = mapping.bmap_ensure(self.cache, ino, idx, self.alloc, self.alloc)
        assert ino.dindirect != 0
        assert mapping.bmap_lookup(self.cache, ino, idx) == bno

    def test_negative_index_rejected(self):
        from repro.errors import InvalidArgument

        with pytest.raises(InvalidArgument):
            mapping.bmap_lookup(self.cache, _FakeInode(), -1)

    def test_enumerate_matches_ensured(self):
        ino = _FakeInode()
        indices = [0, 5, NDIRECT + 1, NDIRECT + PTRS_PER_INDIRECT + 2]
        expected = {}
        for idx in indices:
            bno, _ = mapping.bmap_ensure(self.cache, ino, idx, self.alloc, self.alloc)
            expected[idx] = bno
        found = dict(mapping.enumerate_blocks(self.cache, ino))
        assert found == expected

    def test_truncate_frees_everything(self):
        ino = _FakeInode()
        freed = []
        for idx in [0, 1, NDIRECT + 3, NDIRECT + PTRS_PER_INDIRECT]:
            mapping.bmap_ensure(self.cache, ino, idx, self.alloc, self.alloc)
        n = mapping.truncate_blocks(self.cache, ino, 0, freed.append)
        assert n == 4
        assert ino.indirect == 0 and ino.dindirect == 0
        assert all(b == 0 for b in ino.direct)
        # Indirect blocks were freed too (more frees than data blocks).
        assert len(freed) > 4

    def test_truncate_partial_keeps_prefix(self):
        ino = _FakeInode()
        for idx in range(5):
            mapping.bmap_ensure(self.cache, ino, idx, self.alloc, self.alloc)
        kept = ino.direct[:2]
        n = mapping.truncate_blocks(self.cache, ino, 2, lambda b: None)
        assert n == 3
        assert ino.direct[:2] == kept
        assert ino.direct[2] == 0

    def test_truncate_keeps_indirect_when_needed(self):
        ino = _FakeInode()
        for idx in (NDIRECT, NDIRECT + 1):
            mapping.bmap_ensure(self.cache, ino, idx, self.alloc, self.alloc)
        mapping.truncate_blocks(self.cache, ino, NDIRECT + 1, lambda b: None)
        assert ino.indirect != 0
        assert mapping.bmap_lookup(self.cache, ino, NDIRECT) != 0
        assert mapping.bmap_lookup(self.cache, ino, NDIRECT + 1) == 0
