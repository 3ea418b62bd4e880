"""Offline checker tests: clean images stay clean, injected corruption
is detected."""



import struct

import pytest

from repro.blockdev.device import BLOCK_SIZE
from repro.errors import CorruptFileSystem
from repro.ffs import layout as flayout
from repro.fsck import check_image, fsck_cffs, fsck_ffs, mount_image
from tests.conftest import make_cffs, make_ffs, read_desc, write_desc


def populated_ffs():
    fs = make_ffs()
    fs.mkdir("/d")
    fs.mkdir("/d/sub")
    for i in range(30):
        fs.write_file("/d/f%02d" % i, b"x" * (512 * (i + 1)))
    fs.write_file("/top", b"top level")
    fs.link("/top", "/top2")
    fs.sync()
    return fs


def populated_cffs(**kwargs):
    fs = make_cffs(**kwargs)
    fs.mkdir("/d")
    fs.mkdir("/d/sub")
    for i in range(30):
        fs.write_file("/d/f%02d" % i, b"x" * (512 * (i + 1)))
    fs.write_file("/big", b"B" * (BLOCK_SIZE * 16))
    fs.write_file("/top", b"top level")
    fs.link("/top", "/top2")
    fs.sync()
    return fs


class TestFfsClean:
    def test_fresh_image_clean(self):
        fs = make_ffs()
        fs.sync()
        assert fsck_ffs(fs.device).pristine

    def test_populated_image_clean(self):
        fs = populated_ffs()
        report = fsck_ffs(fs.device)
        assert report.pristine, report.render()
        assert report.files == 31  # 30 + /top (hard link counted once)
        assert report.directories == 3  # root, /d, /d/sub

    def test_clean_after_deletes(self):
        fs = populated_ffs()
        for i in range(0, 30, 2):
            fs.unlink("/d/f%02d" % i)
        fs.sync()
        assert fsck_ffs(fs.device).pristine

    def test_clean_after_renames(self):
        fs = populated_ffs()
        fs.rename("/d/f01", "/d/sub/moved")
        fs.rename("/top", "/renamed")
        fs.sync()
        report = fsck_ffs(fs.device)
        assert report.ok, report.render()


class TestFfsCorruption:
    def test_bad_magic(self):
        fs = populated_ffs()
        block = bytearray(fs.device.peek_block(0))
        block[0] ^= 0xFF
        fs.device.poke_block(0, bytes(block))
        report = fsck_ffs(fs.device)
        assert not report.ok
        assert "magic" in report.errors[0]

    def test_dangling_dirent(self):
        """A name pointing at a freed inode is detected."""
        fs = populated_ffs()
        handle = fs._resolve("/top")
        bno, slot = fs._inode_location(handle.inum)
        raw = bytearray(fs.device.peek_block(bno))
        raw[slot * flayout.INODE_SIZE:(slot + 1) * flayout.INODE_SIZE] = bytes(
            flayout.INODE_SIZE
        )
        fs.device.poke_block(bno, bytes(raw))
        report = fsck_ffs(fs.device)
        assert any("free inode" in e for e in report.errors)

    def test_wrong_nlink(self):
        fs = populated_ffs()
        set_ffs_inode(fs, "/d/f00", nlink=5)
        report = fsck_ffs(fs.device)
        assert any("nlink" in e for e in report.errors)

    def test_bitmap_disagreement(self):
        fs = populated_ffs()
        handle = fs._resolve("/d/f05")
        data_block = handle.direct[0]
        cgi = fs.alloc.cg_of_block(data_block)
        bitmap_bno = fs.cg_base(cgi) + 1
        raw = bytearray(fs.device.peek_block(bitmap_bno))
        off = data_block - fs.cg_base(cgi)
        raw[off >> 3] &= ~(1 << (off & 7))
        fs.device.poke_block(bitmap_bno, bytes(raw))
        report = fsck_ffs(fs.device)
        assert any("free in bitmap" in r for r in report.repairs)
        assert not report.pristine


class TestCffsClean:
    def test_fresh_image_clean(self):
        fs = make_cffs()
        fs.sync()
        assert fsck_cffs(fs.device).pristine

    def test_populated_image_clean(self):
        fs = populated_cffs()
        report = fsck_cffs(fs.device)
        assert report.pristine, report.render()
        assert report.files == 32
        assert report.directories == 3

    def test_all_grid_configs_clean(self):
        for embedded in (True, False):
            for grouping in (True, False):
                fs = populated_cffs(embedded=embedded, grouping=grouping)
                report = fsck_cffs(fs.device)
                assert report.ok, (embedded, grouping, report.render())

    def test_clean_after_churn(self):
        fs = populated_cffs()
        for i in range(0, 30, 3):
            fs.unlink("/d/f%02d" % i)
        fs.rename("/d/f01", "/d/sub/x")
        fs.write_file("/d/new", b"n" * 5000)
        fs.sync()
        report = fsck_cffs(fs.device)
        assert report.ok, report.render()

    def test_inodes_found_via_hierarchy(self):
        """No static tables: the walk alone finds every file, matching
        the paper's recovery claim."""
        fs = make_cffs()
        fs.mkdir("/a")
        fs.mkdir("/a/b")
        fs.mkdir("/a/b/c")
        fs.write_file("/a/b/c/deep", b"found me")
        fs.sync()
        report = fsck_cffs(fs.device)
        assert report.ok
        assert report.files == 1
        assert report.directories == 4


class TestCffsCorruption:
    def test_bad_magic(self):
        fs = populated_cffs()
        block = bytearray(fs.device.peek_block(0))
        block[0] ^= 0xFF
        fs.device.poke_block(0, bytes(block))
        assert not fsck_cffs(fs.device).ok

    def test_group_slot_ownership_mismatch(self):
        fs = populated_cffs()
        handle = fs._resolve("/d/f00")
        bno = handle.direct[0]
        ext = fs.groups.extent_of_block(bno)
        desc = read_desc(fs.groups, ext)
        slot = bno - fs.groups.extent_base(ext)
        desc["slots"][slot] = (999999, 0)  # wrong owner
        write_desc(fs, ext, desc)
        fs.sync()
        report = fsck_cffs(fs.device)
        assert any("descriptor says" in r for r in report.repairs)
        assert not report.pristine

    def test_referenced_block_with_free_slot(self):
        fs = populated_cffs()
        handle = fs._resolve("/d/f00")
        bno = handle.direct[0]
        ext = fs.groups.extent_of_block(bno)
        desc = read_desc(fs.groups, ext)
        slot = bno - fs.groups.extent_base(ext)
        desc["valid_mask"] &= ~(1 << slot)
        write_desc(fs, ext, desc)
        fs.sync()
        report = fsck_cffs(fs.device)
        assert any("slot is free" in r for r in report.repairs)
        assert not report.pristine

    def test_external_nlink_mismatch(self):
        fs = populated_cffs()
        handle = fs._resolve("/top")
        inum = handle.loc[1]
        handle.nlink = 9
        fs.ext.store(inum, handle, sync=False)
        fs.sync()
        report = fsck_cffs(fs.device)
        assert any("nlink" in e for e in report.errors)

    def test_bitmap_disagreement(self):
        fs = populated_cffs()
        handle = fs._resolve("/big")
        data_block = handle.direct[0]
        cgi = fs.alloc.cg_of_block(data_block)
        bitmap_bno = fs.cg_base(cgi) + 1
        raw = bytearray(fs.device.peek_block(bitmap_bno))
        off = data_block - fs.cg_base(cgi)
        raw[off >> 3] &= ~(1 << (off & 7))
        fs.device.poke_block(bitmap_bno, bytes(raw))
        report = fsck_cffs(fs.device)
        assert any("free in bitmap" in r for r in report.repairs)
        assert not report.pristine


# ---------------------------------------------------------------------------
# Repair mode: every detected corruption must round-trip — repair it,
# and the second check comes back pristine.
# ---------------------------------------------------------------------------

from repro.core import layout as clayout  # noqa: E402
from repro.core.filesystem import CFFS  # noqa: E402
from repro.ffs import directory as fdir  # noqa: E402
from repro.ffs.filesystem import FFS  # noqa: E402
from repro.ffs.inode import Inode  # noqa: E402


def repair_roundtrip(check, device):
    """Repair, then re-check; returns (first report, second report)."""
    first = check(device, repair=True)
    second = check(device)
    assert second.pristine, "not pristine after repair:\n" + second.render()
    return first, second


class TestFfsRepair:
    def test_repair_on_pristine_image_is_noop(self):
        fs = populated_ffs()
        report = fsck_ffs(fs.device, repair=True)
        assert report.pristine
        assert report.fixed == []
        assert fsck_ffs(fs.device).pristine

    def test_smashed_superblock_restored_from_replica(self):
        fs = populated_ffs()
        fs.device.poke_block(0, bytes(BLOCK_SIZE))
        assert not fsck_ffs(fs.device).ok
        first, _ = repair_roundtrip(fsck_ffs, fs.device)
        assert any("replica" in f for f in first.fixed)
        remounted = FFS.mount(fs.device)
        assert remounted.read_file("/top") == b"top level"

    def test_dangling_dirent_repaired(self):
        fs = populated_ffs()
        handle = fs._resolve("/top")
        bno, slot = fs._inode_location(handle.inum)
        raw = bytearray(fs.device.peek_block(bno))
        raw[slot * flayout.INODE_SIZE:(slot + 1) * flayout.INODE_SIZE] = bytes(
            flayout.INODE_SIZE
        )
        fs.device.poke_block(bno, bytes(raw))
        first, second = repair_roundtrip(fsck_ffs, fs.device)
        assert any("free inode" in f or "removed" in f for f in first.fixed)
        assert second.files == 30  # /top and /top2 both gone

    def test_wrong_nlink_repaired(self):
        fs = populated_ffs()
        set_ffs_inode(fs, "/d/f00", nlink=5)
        first, _ = repair_roundtrip(fsck_ffs, fs.device)
        assert any("nlink" in f for f in first.fixed)
        assert FFS.mount(fs.device).read_file("/d/f00") == b"x" * 512

    def test_bitmap_disagreement_repaired(self):
        fs = populated_ffs()
        handle = fs._resolve("/d/f05")
        data_block = handle.direct[0]
        cgi = fs.alloc.cg_of_block(data_block)
        bitmap_bno = fs.cg_base(cgi) + 1
        raw = bytearray(fs.device.peek_block(bitmap_bno))
        off = data_block - fs.cg_base(cgi)
        raw[off >> 3] &= ~(1 << (off & 7))
        fs.device.poke_block(bitmap_bno, bytes(raw))
        first, _ = repair_roundtrip(fsck_ffs, fs.device)
        assert any("bitmap" in f for f in first.fixed)

    def test_orphan_inode_collected(self):
        fs = populated_ffs()
        d = fs._resolve("/d")
        raw = bytearray(fs.device.peek_block(d.direct[0]))
        assert fdir.remove_entry(raw, "f00") is not None
        fs.device.poke_block(d.direct[0], bytes(raw))
        before = fsck_ffs(fs.device)
        assert any("orphan" in w for w in before.warnings)
        first, second = repair_roundtrip(fsck_ffs, fs.device)
        assert any("orphan" in f or "unreachable" in f for f in first.fixed)
        assert second.files == 30
        assert second.warnings == []


class TestCffsRepair:
    def test_repair_on_pristine_image_is_noop(self):
        fs = populated_cffs()
        report = fsck_cffs(fs.device, repair=True)
        assert report.pristine
        assert report.fixed == []
        assert fsck_cffs(fs.device).pristine

    def test_smashed_superblock_restored_from_replica(self):
        fs = populated_cffs()
        fs.device.poke_block(0, bytes(BLOCK_SIZE))
        assert not fsck_cffs(fs.device).ok
        first, _ = repair_roundtrip(fsck_cffs, fs.device)
        assert any("replica" in f for f in first.fixed)
        remounted = CFFS.mount(fs.device)
        assert remounted.read_file("/top") == b"top level"

    def test_group_slot_ownership_repaired(self):
        fs = populated_cffs()
        handle = fs._resolve("/d/f00")
        bno = handle.direct[0]
        ext = fs.groups.extent_of_block(bno)
        desc = read_desc(fs.groups, ext)
        desc["slots"][bno - fs.groups.extent_base(ext)] = (999999, 0)
        write_desc(fs, ext, desc)
        fs.sync()
        first, _ = repair_roundtrip(fsck_cffs, fs.device)
        assert any("descriptor rebuilt" in f for f in first.fixed)

    def test_referenced_block_with_free_slot_repaired(self):
        fs = populated_cffs()
        handle = fs._resolve("/d/f00")
        bno = handle.direct[0]
        ext = fs.groups.extent_of_block(bno)
        desc = read_desc(fs.groups, ext)
        desc["valid_mask"] &= ~(1 << (bno - fs.groups.extent_base(ext)))
        write_desc(fs, ext, desc)
        fs.sync()
        repair_roundtrip(fsck_cffs, fs.device)

    def test_external_nlink_repaired(self):
        fs = populated_cffs()
        handle = fs._resolve("/top")
        inum = handle.loc[1]
        handle.nlink = 9
        fs.ext.store(inum, handle, sync=False)
        fs.sync()
        first, _ = repair_roundtrip(fsck_cffs, fs.device)
        assert any("nlink" in f for f in first.fixed)
        assert CFFS.mount(fs.device).read_file("/top2") == b"top level"

    def test_bitmap_disagreement_repaired(self):
        fs = populated_cffs()
        handle = fs._resolve("/big")
        data_block = handle.direct[0]
        cgi = fs.alloc.cg_of_block(data_block)
        bitmap_bno = fs.cg_base(cgi) + 1
        raw = bytearray(fs.device.peek_block(bitmap_bno))
        off = data_block - fs.cg_base(cgi)
        raw[off >> 3] &= ~(1 << (off & 7))
        fs.device.poke_block(bitmap_bno, bytes(raw))
        first, _ = repair_roundtrip(fsck_cffs, fs.device)
        assert any("bitmap" in f for f in first.fixed)

    def test_stale_next_fileid_repaired(self):
        fs = populated_cffs()
        raw = fs.device.peek_block(0)
        sb = clayout.unpack_superblock(raw)
        sb["next_fileid"] = 3
        fs.device.poke_block(
            0, clayout.pack_superblock(sb, clayout.root_inode_bytes(raw)))
        before = fsck_cffs(fs.device)
        assert any("next_fileid" in r for r in before.repairs)
        first, _ = repair_roundtrip(fsck_cffs, fs.device)
        assert any("superblock counters" in f for f in first.fixed)

    def test_repair_all_grid_configs(self):
        for embedded in (True, False):
            for grouping in (True, False):
                fs = populated_cffs(embedded=embedded, grouping=grouping)
                fs.device.poke_block(0, bytes(BLOCK_SIZE))
                first = fsck_cffs(fs.device, repair=True)
                assert first.fixed, (embedded, grouping)
                second = fsck_cffs(fs.device)
                assert second.pristine, (embedded, grouping, second.render())


# ---------------------------------------------------------------------------
# What holds for numbered inodes and block pointers on either format; the
# images below are also pinned in tests/test_fsck_corpus.py.
# ---------------------------------------------------------------------------

N_LINKED = 13 * 32 + 5   # one more external-inode block than 12 direct ones


def many_links_cffs():
    """Enough hard-linked files that the external-inode file needs its
    indirect block."""
    fs = make_cffs()
    fs.mkdir("/a")
    fs.mkdir("/b")
    for i in range(N_LINKED):
        fs.write_file("/a/f%03d" % i, b"%03d" % i)
        fs.link("/a/f%03d" % i, "/b/l%03d" % i)
    fs.sync()
    assert fs.sb["ext_indirect"]
    return fs


class TestExternalInodeFileIsClaimed:
    def test_indirect_block_survives_check_and_repair(self):
        fs = many_links_cffs()
        report = fsck_cffs(fs.device)
        assert report.pristine, report.render()
        fsck_cffs(fs.device, repair=True)
        remounted = CFFS.mount(fs.device)
        assert not remounted.alloc.run_is_free(remounted.sb["ext_indirect"], 1)
        for i in range(N_LINKED):
            assert remounted.read_file("/b/l%03d" % i) == b"%03d" % i


def free_external_inode(fs) -> int:
    """Zero the external inode /top and /top2 share; returns its number."""
    inum = fs._resolve("/top").loc[1]
    bno, _blk, off = fs.ext._locate(inum)
    raw = bytearray(fs.device.peek_block(bno))
    raw[off:off + clayout.CINODE_SIZE] = bytes(clayout.CINODE_SIZE)
    fs.device.poke_block(bno, bytes(raw))
    return inum


class TestEveryNameOfAFreeInodeIsDropped:
    def test_one_repair_pass_converges(self):
        fs = populated_cffs()
        inum = free_external_inode(fs)
        first = fsck_cffs(fs.device, repair=True)
        wanted = "references free external inode %d" % inum
        assert sum(wanted in e for e in first.errors) == 2, first.render()
        again = fsck_cffs(fs.device)
        assert again.pristine, again.render()
        assert sorted(CFFS.mount(fs.device).readdir("/")) == ["big", "d"]


class TestShortDirectoryRecord:
    """A live C-FFS record too short for its embedded inode, at the very
    end of a directory block: every path ends in the error taxonomy."""

    def damaged(self):
        fs = populated_cffs()
        bno = fs._resolve("/d").direct[0]
        raw = bytearray(fs.device.peek_block(bno))
        tail = 7 * clayout.SECTOR_SIZE
        header = struct.Struct(clayout.DENT_HEADER_FMT)
        header.pack_into(raw, tail, 504, 0, clayout.ET_FREE, 0)
        header.pack_into(raw, tail + 504, 8, 0, clayout.ET_EMBEDDED, clayout.DK_FILE)
        fs.device.poke_block(bno, bytes(raw))
        return fs.device, bno

    def test_lookup_fsck_and_repair(self):
        device, bno = self.damaged()
        with pytest.raises(CorruptFileSystem):
            mount_image(device).exists("/d/zzz")
        report = check_image(device)
        assert any("/d: corrupt directory block %d" % bno in e
                   for e in report.errors), report.render()
        repaired = check_image(device, repair=True)
        assert ("reinitialized corrupt directory block %d of /d" % bno
                in repaired.fixed), repaired.render()
        assert check_image(device).pristine
        assert not mount_image(device).exists("/d/zzz")


# Hostile input: a pointer far outside the 3200-block test volume.
WILD = 10 ** 7


def set_ffs_inode(fs, path, **changes):
    """Rewrite fields of ``path``'s on-disk inode in its table slot."""
    inum = fs._resolve(path).inum
    bno, slot = fs._inode_location(inum)
    off = slot * flayout.INODE_SIZE
    raw = bytearray(fs.device.peek_block(bno))
    node = Inode.unpack(inum, raw, off)
    for name, value in changes.items():
        setattr(node, name, value)
    node.pack_into(raw, off)
    fs.device.poke_block(bno, bytes(raw))


def set_cffs_inode(fs, path, **changes):
    """Rewrite the on-disk inode of ``path`` wherever C-FFS keeps it."""
    node = fs._resolve(path)
    for name, value in changes.items():
        setattr(node, name, value)
    fs._istore(node)
    fs.sync()


def set_ffs_superblock(fs, **changes):
    sb = flayout.unpack_superblock(fs.device.peek_block(0))
    sb.update(changes)
    fs.device.poke_block(0, flayout.pack_superblock(sb))


def set_cffs_superblock(fs, **changes):
    raw = fs.device.peek_block(0)
    sb = clayout.unpack_superblock(raw)
    sb.update(changes)
    fs.device.poke_block(
        0, clayout.pack_superblock(sb, clayout.root_inode_bytes(raw)))


def _damaged(populate, damage, *args, **changes):
    """An image factory: a populated volume with one field changed."""
    def build():
        fs = populate()
        damage(fs, *args, **changes)
        return fs.device
    return build


def _direct(first):
    return [first] + [0] * (flayout.NDIRECT - 1)


#: name -> (image factory, checker): one wild pointer each.
WILD_POINTERS = {
    "ffs/wild-root-inum": (
        _damaged(populated_ffs, set_ffs_superblock, root_inum=WILD), fsck_ffs),
    "cffs/wild-indirect-in-superblock-root": (
        _damaged(populated_cffs, set_cffs_inode, "/", indirect=WILD), fsck_cffs),
    "cffs/wild-external-inode-file-pointer": (
        _damaged(populated_cffs, set_cffs_superblock, ext_direct=_direct(WILD)),
        fsck_cffs),
}
for _field, _value in (("direct", _direct(WILD)), ("indirect", WILD),
                       ("dindirect", WILD)):
    for _where, _path in (("file", "/d/f03"), ("directory", "/d")):
        _name = "wild-%s-in-%s" % (_field, _where)
        WILD_POINTERS["ffs/" + _name] = (
            _damaged(populated_ffs, set_ffs_inode, _path, **{_field: _value}),
            fsck_ffs)
        WILD_POINTERS["cffs/" + _name] = (
            _damaged(populated_cffs, set_cffs_inode, _path, **{_field: _value}),
            fsck_cffs)


@pytest.mark.parametrize("name", sorted(WILD_POINTERS))
def test_wild_pointer_is_a_finding_not_an_abort(name):
    make, check = WILD_POINTERS[name]
    report = check(make())
    assert report.errors, report.render()
    assert not report.ok
    repaired = check(make(), repair=True)
    assert repaired.errors, repaired.render()
