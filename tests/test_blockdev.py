"""Tests for the block device and batch scheduling."""

import pytest

from repro.blockdev.device import BLOCK_SIZE, BlockDevice
from repro.blockdev.scheduler import MAX_EXTENT_BLOCKS, clook_order, coalesce_blocks
from repro.errors import AddressError
from tests.conftest import TEST_PROFILE


def make_dev() -> BlockDevice:
    return BlockDevice(TEST_PROFILE)


class TestScheduler:
    def test_clook_ascending_from_head(self):
        assert clook_order([5, 1, 9, 3], head_position=4) == [5, 9, 1, 3]

    def test_clook_all_below_head(self):
        assert clook_order([3, 1, 2], head_position=10) == [1, 2, 3]

    def test_clook_dedupes(self):
        assert clook_order([2, 2, 2], head_position=0) == [2]

    def test_coalesce_adjacent(self):
        assert coalesce_blocks([1, 2, 3, 7, 8, 20]) == [(1, 3), (7, 2), (20, 1)]

    def test_coalesce_respects_cap(self):
        runs = coalesce_blocks(list(range(2 * MAX_EXTENT_BLOCKS + 20)))
        assert runs == [(0, MAX_EXTENT_BLOCKS),
                        (MAX_EXTENT_BLOCKS, MAX_EXTENT_BLOCKS),
                        (2 * MAX_EXTENT_BLOCKS, 20)]

    def test_coalesce_empty(self):
        assert coalesce_blocks([]) == []


class TestBlockDevice:
    def test_unwritten_blocks_read_zero(self):
        dev = make_dev()
        assert dev.read_block(10) == bytes(BLOCK_SIZE)

    def test_write_then_read(self):
        dev = make_dev()
        data = bytes(range(256)) * 16
        dev.write_block(5, data)
        assert dev.read_block(5) == data

    def test_write_requires_full_block(self):
        dev = make_dev()
        with pytest.raises(ValueError):
            dev.write_block(5, b"short")

    def test_extent_roundtrip(self):
        dev = make_dev()
        blocks = [bytes([i]) * BLOCK_SIZE for i in range(4)]
        dev.write_extent(10, blocks)
        assert dev.read_extent(10, 4) == blocks

    def test_extent_is_one_request(self):
        dev = make_dev()
        dev.write_extent(10, [bytes(BLOCK_SIZE)] * 16)
        assert dev.disk.stats.writes == 1

    def test_out_of_range(self):
        dev = make_dev()
        with pytest.raises(AddressError):
            dev.read_block(dev.total_blocks)
        with pytest.raises(AddressError):
            dev.read_extent(dev.total_blocks - 1, 2)

    def test_write_batch_coalesces(self):
        dev = make_dev()
        writes = {b: bytes(BLOCK_SIZE) for b in [10, 11, 12, 50, 51, 99]}
        nreq = dev.write_batch(writes)
        assert nreq == 3
        assert dev.disk.stats.writes == 3

    def test_write_batch_data_lands(self):
        dev = make_dev()
        writes = {b: bytes([b % 251]) * BLOCK_SIZE for b in [3, 4, 77]}
        dev.write_batch(writes)
        dev.flush()
        for b in writes:
            assert dev.peek_block(b) == writes[b]

    def test_write_batch_empty(self):
        dev = make_dev()
        assert dev.write_batch({}) == 0

    def test_read_batch_returns_all(self):
        dev = make_dev()
        for b in (7, 8, 30):
            dev.write_block(b, bytes([b]) * BLOCK_SIZE)
        got = dev.read_batch([7, 8, 30])
        assert set(got) == {7, 8, 30}
        assert got[30] == bytes([30]) * BLOCK_SIZE

    def test_peek_poke_do_not_advance_clock(self):
        dev = make_dev()
        t = dev.clock.now
        dev.poke_block(9, bytes(BLOCK_SIZE))
        dev.peek_block(9)
        assert dev.clock.now == t

    def test_timed_ops_advance_clock(self):
        dev = make_dev()
        t = dev.clock.now
        dev.read_block(0)
        assert dev.clock.now > t
