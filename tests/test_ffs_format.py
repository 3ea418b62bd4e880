"""Tests for FFS on-disk structures: inodes, superblock, directory blocks."""

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blockdev.device import BLOCK_SIZE
from repro.errors import CorruptFileSystem, InvalidArgument
from repro.ffs import directory as dirfmt
from repro.ffs import layout
from repro.ffs.inode import Inode
from tests.conftest import make_ffs

names = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126, exclude_characters="/"),
    min_size=1,
    max_size=24,
)


_U16 = st.integers(0, 0xFFFF) | st.sampled_from([0, 0xFFFF])
_U32 = st.integers(0, 0xFFFFFFFF) | st.sampled_from([0, 0xFFFFFFFF])
_U64 = st.integers(0, 0xFFFFFFFFFFFFFFFF) | st.sampled_from([0, 0xFFFFFFFFFFFFFFFF])

inode_fields = st.fixed_dictionaries({
    "mode": _U16,
    "nlink": _U16,
    "flags": _U16,
    "gen": _U16,
    "size": _U64,
    "mtime": st.floats(allow_nan=True, allow_infinity=True),
    "direct": st.lists(_U32, min_size=layout.NDIRECT, max_size=layout.NDIRECT),
    "indirect": _U32,
    "dindirect": _U32,
    "nblocks": _U32,
})


def _bits(fields: dict) -> dict:
    """``fields`` with ``mtime`` as its bit pattern (NaN != NaN)."""
    return dict(fields, mtime=struct.pack("<d", fields["mtime"]))


# A volume whose second inode-table block the examples overwrite: the
# root's inode lives in the first, so the volume stays usable.
_EXTREMES = make_ffs()
_EXTREMES_FIRST = layout.INODES_PER_BLOCK + 1


class TestInodePacking:
    def test_roundtrip(self):
        ino = Inode(42)
        ino.init_as(layout.MODE_FILE, gen=7, mtime=1.25)
        ino.size = 123456
        ino.direct[0] = 99
        ino.direct[11] = 1234
        ino.indirect = 555
        ino.nblocks = 13
        block = bytearray(BLOCK_SIZE)
        ino.pack_into(block, layout.INODE_SIZE)
        back = Inode.unpack(42, bytes(block), layout.INODE_SIZE)
        assert back.inum == 42
        assert back.size == 123456
        assert back.direct == ino.direct
        assert back.indirect == 555
        assert back.mtime == 1.25
        assert back.gen == 7
        assert back.nblocks == 13

    def test_packed_size(self):
        """The record fills its 128-byte slot, pad zeroed, and no more."""
        block = bytearray(b"\xff" * (2 * layout.INODE_SIZE))
        Inode(1).pack_into(block, 0)
        assert block[84:layout.INODE_SIZE] == bytes(44)    # the pad
        assert block[layout.INODE_SIZE:] == b"\xff" * layout.INODE_SIZE

    def test_clear_resets(self):
        ino = Inode(1)
        ino.init_as(layout.MODE_FILE, gen=3, mtime=0.0)
        ino.direct[0] = 7
        ino.clear()
        assert ino.mode == layout.MODE_FREE
        assert ino.nlink == 0
        assert ino.direct[0] == 0
        assert ino.gen == 3  # generation survives reuse

    def test_kind_predicates(self):
        ino = Inode(1)
        ino.init_as(layout.MODE_DIR, 1, 0.0)
        assert ino.is_dir and not ino.is_file

    @settings(max_examples=150, deadline=None)
    @given(fields=inode_fields, seed=st.integers(0, 2 ** 32),
           slot=st.integers(0, layout.INODES_PER_BLOCK - 1))
    def test_store_and_cold_fetch_at_field_extremes(self, fields, seed, slot):
        """Through ``_istore`` into a table block whose other bytes are
        random, then a cold ``_iget``: the slot holds the declared record
        and nothing else moved, and the node read back carries every
        field."""
        fs = _EXTREMES
        inum = _EXTREMES_FIRST + slot
        bno, at = fs._inode_location(inum)
        assert at == slot
        buf = fs.cache.get(bno)
        buf.data[:] = random.Random(seed).randbytes(BLOCK_SIZE)
        fs.cache.mark_dirty(bno)
        before = bytes(buf.image)

        node = Inode(inum)
        for name, value in fields.items():
            setattr(node, name, list(value) if name == "direct" else value)
        fs._istore(node)
        off = slot * layout.INODE_SIZE
        record = struct.pack(
            "<HHHHQd12IIII44x", fields["mode"], fields["nlink"],
            fields["flags"], fields["gen"], fields["size"], fields["mtime"],
            *fields["direct"], fields["indirect"], fields["dindirect"],
            fields["nblocks"])
        after = bytes(fs.cache.get(bno).image)
        assert after[off:off + layout.INODE_SIZE] == record
        assert after[:off] == before[:off]
        assert after[off + layout.INODE_SIZE:] == before[off + layout.INODE_SIZE:]

        fs._icache.pop(inum, None)
        back = fs._iget(inum)
        fs._icache.pop(inum, None)
        assert back.inum == inum
        assert _bits(dict((name, getattr(back, name)) for name in fields)) == _bits(fields)


class TestSuperblock:
    def test_roundtrip(self):
        sb = {
            "magic": layout.FFS_MAGIC, "version": 1, "total_blocks": 3000,
            "n_cgs": 5, "blocks_per_cg": 512, "inodes_per_cg": 256,
            "itable_blocks": 8, "data_start": 10, "root_inum": 1,
            "next_gen": 17, "free_blocks": 2500, "free_inodes": 1200,
            "journal_start": 2561, "journal_blocks": 64,
        }
        assert layout.unpack_superblock(layout.pack_superblock(sb)) == sb

    def test_padded_to_block(self):
        sb = {
            "magic": 1, "version": 1, "total_blocks": 1, "n_cgs": 1,
            "blocks_per_cg": 1, "inodes_per_cg": 1, "itable_blocks": 1,
            "data_start": 1, "root_inum": 1, "next_gen": 1,
            "free_blocks": 1, "free_inodes": 1,
        }
        assert len(layout.pack_superblock(sb)) == BLOCK_SIZE


def block_free(block):
    """The block's largest insertion, as the directory index scan reads it."""
    [(_slot, free)] = dirfmt.scan_block(bytes(block), 0)[1]
    return free


def remove(block, rooms, name):
    """``remove_entry``, with the block's room list kept as
    ``FFS._dir_remove_entry`` keeps it."""
    removed = dirfmt.remove_entry(block, name)
    if removed is not None:
        dirfmt.merge_room(rooms, *removed[1:])
    return removed


class TestDirentBlock:
    def test_fresh_block_is_empty(self):
        block = dirfmt.init_block()
        assert dirfmt.live_entries(bytes(block)) == []

    def test_add_and_find(self):
        block = dirfmt.init_block()
        rooms = dirfmt.room_list(block)
        assert dirfmt.add_entry(block, rooms, 5, layout.DT_FILE, "hello") is not None
        assert dirfmt.live_entries(bytes(block)) == [("hello", 5, layout.DT_FILE)]

    def test_add_many_until_full(self):
        block = dirfmt.init_block()
        rooms = dirfmt.room_list(block)
        added = 0
        while dirfmt.add_entry(block, rooms, added + 1, layout.DT_FILE,
                               "name%05d" % added) is not None:
            added += 1
        # 16-byte records: a 4KB block holds 256.
        assert added == BLOCK_SIZE // layout.dirent_size(9)
        assert len(dirfmt.live_entries(bytes(block))) == added

    def test_remove_returns_inum(self):
        block = dirfmt.init_block()
        rooms = dirfmt.room_list(block)
        dirfmt.add_entry(block, rooms, 9, layout.DT_FILE, "gone")
        assert remove(block, rooms, "gone") == (
            9, 0, layout.dirent_size(4), layout.dirent_size(4))
        assert dirfmt.live_entries(bytes(block)) == []

    def test_remove_missing(self):
        block = dirfmt.init_block()
        rooms = dirfmt.room_list(block)
        assert remove(block, rooms, "nope") is None

    def test_space_reclaimed_after_remove(self):
        block = dirfmt.init_block()
        rooms = dirfmt.room_list(block)
        i = 0
        while dirfmt.add_entry(block, rooms, i + 1, layout.DT_FILE, "n%06d" % i) is not None:
            i += 1
        remove(block, rooms, "n000003")
        assert dirfmt.add_entry(block, rooms, 999, layout.DT_FILE, "newone") is not None

    def test_other_entries_untouched_by_remove(self):
        block = dirfmt.init_block()
        rooms = dirfmt.room_list(block)
        for i in range(10):
            dirfmt.add_entry(block, rooms, i + 1, layout.DT_FILE, "k%02d" % i)
        remove(block, rooms, "k04")
        live = dict((n, i) for n, i, _ in dirfmt.live_entries(bytes(block)))
        assert len(live) == 9
        assert live["k00"] == 1 and live["k09"] == 10

    def test_zero_inum_rejected(self):
        block = dirfmt.init_block()
        rooms = dirfmt.room_list(block)
        with pytest.raises(InvalidArgument):
            dirfmt.add_entry(block, rooms, 0, layout.DT_FILE, "x")

    def test_corrupt_reclen_detected(self):
        block = dirfmt.init_block()
        block[4] = 1  # reclen low byte -> absurd value
        block[5] = 0
        with pytest.raises(CorruptFileSystem):
            dirfmt.scan_block(bytes(block), 0)

    def test_free_bytes_decreases_monotonically(self):
        block = dirfmt.init_block()
        rooms = dirfmt.room_list(block)
        prev = block_free(block)
        for i in range(20):
            dirfmt.add_entry(block, rooms, i + 1, layout.DT_FILE, "mono%03d" % i)
            cur = block_free(block)
            assert cur <= prev
            prev = cur

    @given(st.lists(names, min_size=1, max_size=60, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_add_remove_property(self, entry_names):
        """Entries added then individually removed leave no live entries,
        and the reclen chain always tiles the block exactly."""
        block = dirfmt.init_block()
        rooms = dirfmt.room_list(block)
        inserted = []
        for i, name in enumerate(entry_names):
            if dirfmt.add_entry(block, rooms, i + 1, layout.DT_FILE, name) is not None:
                inserted.append(name)
        live = {n for n, _, _ in dirfmt.live_entries(bytes(block))}
        assert live == set(inserted)
        for name in inserted:
            assert remove(block, rooms, name) is not None
            # Chain invariant holds after every mutation, and the room
            # list kept from the edits is what a fresh walk gives.
            dirfmt.scan_block(bytes(block), 0)
            assert rooms == dirfmt.room_list(bytes(block))
        assert dirfmt.live_entries(bytes(block)) == []

    @given(st.lists(names, min_size=1, max_size=40, unique=True), st.data())
    @settings(max_examples=60, deadline=None)
    def test_interleaved_add_remove_property(self, entry_names, data):
        block = dirfmt.init_block()
        rooms = dirfmt.room_list(block)
        live = {}
        for i, name in enumerate(entry_names):
            if live and data.draw(st.booleans(), label="remove?"):
                victim = data.draw(st.sampled_from(sorted(live)), label="victim")
                assert remove(block, rooms, victim)[0] == live.pop(victim)
            if dirfmt.add_entry(block, rooms, i + 1, layout.DT_FILE, name) is not None:
                live[name] = i + 1
        found = {n: i for n, i, _ in dirfmt.live_entries(bytes(block))}
        assert found == live
