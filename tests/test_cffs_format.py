"""Tests for C-FFS on-disk structures: embedded-inode directory blocks,
group descriptors, and the superblock."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blockdev.device import BLOCK_SIZE
from repro.core import directory as dirfmt
from repro.core import layout
from repro.core.inode import CNode
from repro.errors import InvalidArgument, NameTooLong

names = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126, exclude_characters="/"),
    min_size=1,
    max_size=20,
)


def embedded_payload(fileid: int = 7) -> bytes:
    node = CNode(fileid)
    node.init_as(layout.MODE_FILE, gen=1, mtime=0.5)
    return node.pack()


class TestCInode:
    def test_roundtrip(self):
        node = CNode(99)
        node.init_as(layout.MODE_FILE, gen=3, mtime=2.5)
        node.size = 4242
        node.direct[3] = 1000
        back = CNode.unpack(node.pack())
        assert back.fileid == 99
        assert back.size == 4242
        assert back.direct[3] == 1000
        assert back.mtime == 2.5

    def test_packed_size(self):
        assert len(embedded_payload()) == layout.CINODE_SIZE

    def test_large_flag(self):
        node = CNode(1)
        node.init_as(layout.MODE_FILE, 1, 0.0)
        assert not node.is_large
        node.mark_large()
        assert CNode.unpack(node.pack()).is_large


class TestGroupDescriptor:
    def test_roundtrip(self):
        slots = [(i * 100, i) for i in range(layout.GROUP_SPAN)]
        packed = layout.pack_gdesc(layout.EXT_GROUPED, 0xBEEF, 424242, slots)
        assert len(packed) == layout.GDESC_SIZE
        fields = layout.unpack_gdesc_from(packed, 0)
        assert fields["state"] == layout.EXT_GROUPED
        assert fields["valid_mask"] == 0xBEEF
        assert fields["owner"] == 424242
        assert fields["slots"] == slots

    def test_zeroed_is_free(self):
        fields = layout.unpack_gdesc_from(bytes(layout.GDESC_SIZE), 0)
        assert fields["state"] == layout.EXT_FREE
        assert fields["valid_mask"] == 0

    def test_wrong_slot_count_rejected(self):
        with pytest.raises(ValueError):
            layout.pack_gdesc(0, 0, 0, [(0, 0)] * 3)


class TestCffsSuperblock:
    def test_roundtrip(self):
        sb = {
            "magic": layout.CFFS_MAGIC, "version": 1, "total_blocks": 3000,
            "n_cgs": 5, "blocks_per_cg": 512, "gdt_blocks": 2,
            "data_start": 4, "group_span": 16,
            "config_flags": layout.SBF_EMBEDDED_INODES | layout.SBF_EXPLICIT_GROUPING,
            "next_fileid": 100,
            "next_gen": 9, "free_blocks": 2000, "ext_size": 8192,
            "ext_direct": list(range(12)), "ext_indirect": 77, "ext_dindirect": 0,
            "journal_start": 2561, "journal_blocks": 64,
        }
        root = embedded_payload(1)
        packed = layout.pack_superblock(sb, root)
        assert len(packed) == BLOCK_SIZE
        assert layout.unpack_superblock(packed) == sb
        assert layout.root_inode_bytes(packed) == root


class TestEmbeddedDirents:
    def test_fresh_block_empty(self):
        block = dirfmt.init_block()
        assert dirfmt.live_entries(bytes(block)) == []

    def test_add_embedded_and_find(self):
        block = dirfmt.init_block()
        payload = embedded_payload(55)
        added = dirfmt.add_entry(block, 0, "file.txt", dirfmt.ET_EMBEDDED,
                                 dirfmt.DK_FILE, payload)
        assert added is not None
        [(sector, entry)] = dirfmt.live_entries(bytes(block))
        assert sector == 0
        _o, _r, etype, kind, name, payload_off = entry
        assert (name, etype, payload_off) == ("file.txt", dirfmt.ET_EMBEDDED, added[0])
        assert bytes(block[payload_off:payload_off + layout.CINODE_SIZE]) == payload

    def test_entry_never_crosses_sector(self):
        """The integrity property: every entry (name + inode) fits in
        one 512-byte sector."""
        block = dirfmt.init_block()
        i = 0
        while True:
            off = dirfmt.add_entry(
                block, i % 8, "n%05d" % i, dirfmt.ET_EMBEDDED,
                dirfmt.DK_FILE, embedded_payload(i + 1),
            )
            if off is None:
                break
            i += 1
        for sector, entry in dirfmt.live_entries(bytes(block)):
            entry_off, reclen, _e, _k, _n, _p = entry
            assert entry_off // layout.SECTOR_SIZE == sector
            assert (entry_off + reclen - 1) // layout.SECTOR_SIZE == sector

    def test_sector_capacity(self):
        """~4 embedded entries fit per sector (96B inode + short name)."""
        block = dirfmt.init_block()
        count = 0
        while dirfmt.add_entry(block, 0, "x%02d" % count, dirfmt.ET_EMBEDDED,
                               dirfmt.DK_FILE, embedded_payload(count + 1)):
            count += 1
        assert count == 4

    def test_external_entries_are_small(self):
        block = dirfmt.init_block()
        count = 0
        while dirfmt.add_entry(block, 0, "x%02d" % count, dirfmt.ET_EXTERNAL,
                               dirfmt.DK_FILE, struct.pack("<Q", count + 1)):
            count += 1
        assert count >= 20  # many more external refs fit per sector

    def test_too_long_name_rejected(self):
        block = dirfmt.init_block()
        with pytest.raises(NameTooLong):
            dirfmt.add_entry(block, 0, "y" * 450, dirfmt.ET_EMBEDDED,
                             dirfmt.DK_FILE, embedded_payload())

    def test_payload_size_must_match(self):
        block = dirfmt.init_block()
        with pytest.raises(InvalidArgument):
            dirfmt.add_entry(block, 0, "x", dirfmt.ET_EMBEDDED, dirfmt.DK_FILE, b"tiny")

    def test_remove_scrubs_inode(self):
        """Deleted embedded inodes are zeroed so stale ones never look
        live to fsck."""
        block = dirfmt.init_block()
        off, _free = dirfmt.add_entry(block, 0, "victim", dirfmt.ET_EMBEDDED,
                                      dirfmt.DK_FILE, embedded_payload(9))
        dirfmt.remove_entry(block, "victim")
        fields = layout.unpack_cinode(bytes(block[off:off + layout.CINODE_SIZE]))
        assert fields["mode"] == layout.MODE_FREE

    def test_remove_keeps_others_in_place(self):
        block = dirfmt.init_block()
        offs = {}
        for i, name in enumerate(("aa", "bb", "cc")):
            offs[name] = dirfmt.add_entry(block, 0, name, dirfmt.ET_EMBEDDED,
                                          dirfmt.DK_FILE, embedded_payload(i + 1))[0]
        dirfmt.remove_entry(block, "bb")
        # Payload offsets of the survivors are unchanged.
        assert {e[4]: e[5] for _s, e in dirfmt.live_entries(bytes(block))} == {
            "aa": offs["aa"], "cc": offs["cc"]}

    def test_rewrite_payload(self):
        block = dirfmt.init_block()
        off, _free = dirfmt.add_entry(block, 0, "f", dirfmt.ET_EMBEDDED,
                                      dirfmt.DK_FILE, embedded_payload(3))
        node = CNode.unpack(bytes(block[off:off + layout.CINODE_SIZE]))
        node.size = 777
        dirfmt.rewrite_payload(block, off, node.pack())
        back = layout.unpack_cinode(bytes(block[off:off + layout.CINODE_SIZE]))
        assert back["size"] == 777

    def test_change_entry_type_to_external(self):
        block = dirfmt.init_block()
        dirfmt.add_entry(block, 0, "linked", dirfmt.ET_EMBEDDED,
                         dirfmt.DK_FILE, embedded_payload(8))
        [(_s, entry)] = dirfmt.live_entries(bytes(block))
        before = dirfmt.sector_free_bytes(bytes(block), 0)
        new_off, freed = dirfmt.change_entry_type(
            block, entry[0], dirfmt.ET_EXTERNAL, struct.pack("<Q", 123)
        )
        [(_s, entry)] = dirfmt.live_entries(bytes(block))
        assert entry[2] == dirfmt.ET_EXTERNAL
        assert struct.unpack_from("<Q", block, new_off)[0] == 123
        # The smaller payload is room the sector's free count gains.
        assert freed == layout.CINODE_SIZE - layout.EXTERNAL_REF_SIZE
        assert dirfmt.sector_free_bytes(bytes(block), 0) == max(before, freed)

    def test_sectors_independent(self):
        """Filling one sector leaves the others untouched."""
        block = dirfmt.init_block()
        i = 0
        while dirfmt.add_entry(block, 3, "s3-%03d" % i, dirfmt.ET_EMBEDDED,
                               dirfmt.DK_FILE, embedded_payload(i + 1)) is not None:
            i += 1
        for s in (0, 1, 2, 4, 5, 6, 7):
            assert dirfmt.sector_free_bytes(bytes(block), s) == layout.SECTOR_SIZE

    @given(st.lists(names, min_size=1, max_size=40, unique=True), st.data())
    @settings(max_examples=50, deadline=None)
    def test_add_remove_property(self, entry_names, data):
        """Random adds/removes across sectors preserve the chain and the
        live-entry set."""
        block = dirfmt.init_block()
        live = set()
        for i, name in enumerate(entry_names):
            sector = data.draw(st.integers(min_value=0, max_value=7), label="sector")
            if live and data.draw(st.booleans(), label="remove?"):
                victim = data.draw(st.sampled_from(sorted(live)), label="victim")
                assert dirfmt.remove_entry(block, victim) is not None
                live.discard(victim)
            if dirfmt.add_entry(block, sector, name, dirfmt.ET_EMBEDDED,
                                dirfmt.DK_FILE, embedded_payload(i + 1)) is not None:
                live.add(name)
            # Chain invariant across all sectors after each step.
            list(dirfmt.iter_block(bytes(block)))
        found = {e[4] for _s, e in dirfmt.live_entries(bytes(block))}
        assert found == live
