"""Tests for the externalized inode file internals."""

import pytest

from repro.blockdev.device import BLOCK_SIZE
from repro.core.extinodes import SLOTS_PER_BLOCK
from repro.core.inode import CNode, LOC_EXT
from repro.core import layout
from repro.errors import FileNotFound


def fresh_node(fs, mode=layout.MODE_FILE) -> CNode:
    return CNode(fs._next_fileid(), mode, 1, 0.0)


class TestAllocation:
    def test_first_allocation_grows_table(self, cffs):
        assert cffs.sb["ext_size"] == 0
        node = fresh_node(cffs)
        inum = cffs.ext.allocate(node, sync=True)[0]
        assert inum == 1
        assert cffs.sb["ext_size"] == BLOCK_SIZE
        assert node.loc == (LOC_EXT, 1)

    def test_slots_fill_before_growing(self, cffs):
        inums = [cffs.ext.allocate(fresh_node(cffs), sync=False)[0]
                 for _ in range(SLOTS_PER_BLOCK)]
        assert len(set(inums)) == SLOTS_PER_BLOCK
        assert cffs.sb["ext_size"] == BLOCK_SIZE
        extra = cffs.ext.allocate(fresh_node(cffs), sync=False)[0]
        assert cffs.sb["ext_size"] == 2 * BLOCK_SIZE
        assert extra == SLOTS_PER_BLOCK + 1

    def test_get_roundtrip(self, cffs):
        node = fresh_node(cffs)
        node.size = 777
        node.direct[0] = 42
        inum = cffs.ext.allocate(node, sync=True)[0]
        back = cffs.ext.get(inum)
        assert back.fileid == node.fileid
        assert back.size == 777
        assert back.direct[0] == 42
        assert back.loc == (LOC_EXT, inum)

    def test_get_free_slot_raises(self, cffs):
        cffs.ext.allocate(fresh_node(cffs), sync=False)[0]  # slot 1 used
        with pytest.raises(FileNotFound):
            cffs.ext.get(2)  # slot exists in the grown block but is free

    def test_get_out_of_range(self, cffs):
        with pytest.raises(FileNotFound):
            cffs.ext.get(1)  # table empty

    def test_free_and_reuse(self, cffs):
        a = cffs.ext.allocate(fresh_node(cffs), sync=False)[0]
        cffs.ext.free(a, sync=False)
        b = cffs.ext.allocate(fresh_node(cffs), sync=False)[0]
        assert b == a

    def test_free_list_rebuilt_after_drop(self, cffs):
        inums = [cffs.ext.allocate(fresh_node(cffs), sync=False)[0] for _ in range(5)]
        cffs.ext.free(inums[2], sync=False)
        cffs.sync()
        cffs.ext.drop_hints()
        # The scan (timed) must rediscover the free slot.
        again = cffs.ext.allocate(fresh_node(cffs), sync=False)[0]
        assert again == inums[2]

    def test_table_never_shrinks(self, cffs):
        inums = [cffs.ext.allocate(fresh_node(cffs), sync=False)[0]
                 for _ in range(SLOTS_PER_BLOCK + 1)]
        for inum in inums:
            cffs.ext.free(inum, sync=False)
        assert cffs.sb["ext_size"] == 2 * BLOCK_SIZE  # paper: does not shrink

    def test_store_updates_in_place(self, cffs):
        node = fresh_node(cffs)
        inum = cffs.ext.allocate(node, sync=True)[0]
        node.size = 123456
        cffs.ext.store(inum, node, sync=False)
        assert cffs.ext.get(inum).size == 123456

    def test_capacity_property(self, cffs):
        assert cffs.ext.capacity == 0
        cffs.ext.allocate(fresh_node(cffs), sync=False)[0]
        assert cffs.ext.capacity == SLOTS_PER_BLOCK
