"""The fsck oracle: a corpus of damaged images with pinned verdicts.

fsck is what every crash sweep, chaos verdict and recovery benchmark
ends in, so a change to the checker needs an oracle of its own.  The
corpus is

- *crash images*: the seeded 50-file faultsim workload on both formats
  under all three metadata policies, power-cut at a stride of media
  writes (plus the final write);
- *hand-corrupted images*: one per kind of damage the checker knows.

For each image the golden (one line per image) pins what the checker
concluded, not how it phrased it: ``check`` and ``repair`` hold the
:data:`COUNTS` of a read-only run and of a ``repair=True`` run,
``digest`` the content digest of the repaired image, and
``pristine_after`` whether a re-check of it is pristine.  Message
wording is free to change; severity, counts and repaired bytes are
not.

Add entries for new images with::

    REPRO_REGEN_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_fsck_corpus.py

which writes only the entries the golden does not have yet; an
existing entry changes by hand, as a reviewed event, or not at all.
"""

from __future__ import annotations

import json
import os
import struct

import pytest

from repro.blockdev.device import BLOCK_SIZE
from repro.cache.policy import MetadataPolicy
from repro.core import directory as cdir
from repro.core import layout as clayout
from repro.faults.harness import run_journaled_workload
from repro.ffs import directory as fdir
from repro.ffs import layout as flayout
from repro.fsck import fsck_cffs, fsck_ffs
from tests.conftest import make_cffs, make_ffs, write_desc
from tests.test_fsck import (WILD_POINTERS, free_external_inode,
                             many_links_cffs, populated_cffs, populated_ffs,
                             set_cffs_superblock, set_ffs_inode,
                             set_ffs_superblock)

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "fsck_corpus.json")
REGEN = os.environ.get("REPRO_REGEN_GOLDENS") == "1"
CHECKERS = {"ffs": fsck_ffs, "cffs": fsck_cffs}
POLICIES = (MetadataPolicy.SYNC_METADATA, MetadataPolicy.DELAYED_METADATA,
            MetadataPolicy.JOURNAL_METADATA)
#: Crash images are cut every STRIDE-th media write: about 70 images
#: per (format, policy), which keeps the whole file at a few seconds.
STRIDE = 4
#: What a golden ``check`` / ``repair`` list holds, in order.
COUNTS = ("errors", "repairs", "warnings", "fixed",
          "files", "directories", "blocks_in_use")


def _counts(report) -> list:
    return [len(report.errors), len(report.repairs), len(report.warnings),
            len(report.fixed), report.files, report.directories,
            report.blocks_in_use]


def verdict(label: str, device) -> dict:
    check = CHECKERS[label]
    before = check(device)
    repaired = check(device, repair=True)
    digest = device.content_digest()
    return {
        "check": _counts(before),
        "repair": _counts(repaired),
        "digest": digest,
        "pristine_after": check(device).pristine,
    }


# -- hand-corrupted images ------------------------------------------------------


def _poke(device, bno: int, offset: int, data: bytes) -> None:
    raw = bytearray(device.peek_block(bno))
    raw[offset:offset + len(data)] = data
    device.poke_block(bno, bytes(raw))


def _clear_bitmap_bit(fs, bno: int) -> None:
    cgi = fs.alloc.cg_of_block(bno)
    off = bno - fs.cg_base(cgi)
    bitmap_bno = fs.cg_base(cgi) + 1
    byte = fs.device.peek_block(bitmap_bno)[off >> 3] & ~(1 << (off & 7))
    _poke(fs.device, bitmap_bno, off >> 3, bytes([byte]))


def _ffs_inode(fs, path: str):
    """(table block, byte offset, unpacked fields) of ``path``'s inode."""
    bno, slot = fs._inode_location(fs._resolve(path).inum)
    off = slot * flayout.INODE_SIZE
    raw = fs.device.peek_block(bno)[off:off + flayout.INODE_SIZE]
    return bno, off, flayout.unpack_inode(raw)


def _cffs_embedded(fs, dirpath: str, name: str):
    """(directory block, payload offset, unpacked inode) of an embedded
    entry."""
    dirh = fs._resolve(dirpath)
    for bno in dirh.direct:
        if not bno:
            continue
        block = fs.device.peek_block(bno)
        for _sector, entry in cdir.live_entries(block):
            if entry[4] == name and entry[2] == cdir.ET_EMBEDDED:
                off = entry[5]
                return bno, off, clayout.unpack_cinode(
                    block[off:off + clayout.CINODE_SIZE])
    raise AssertionError("no embedded entry %s/%s" % (dirpath, name))


def _cffs_set_embedded(fs, dirpath: str, name: str, **changes) -> None:
    bno, off, f = _cffs_embedded(fs, dirpath, name)
    f.update(changes)
    _poke(fs.device, bno, off, clayout.pack_cinode(
        f["fileid"], f["mode"], f["nlink"], f["flags"], f["gen"], f["size"],
        f["mtime"], f["direct"], f["indirect"], f["dindirect"], f["nblocks"]))


def _cffs_set_desc(fs, path: str, change) -> None:
    """Apply ``change(desc, slot)`` to the extent descriptor holding
    ``path``'s first block."""
    bno = fs._resolve(path).direct[0]
    ext = fs.groups.extent_of_block(bno)
    desc = fs.groups.read_desc(ext)
    change(desc, bno - fs.groups.extent_base(ext))
    write_desc(fs, ext, desc)
    fs.sync()


def _wrong_owner(desc: dict, slot: int) -> None:
    desc["slots"][slot] = (999999, 0)


def _free_slot(desc: dict, slot: int) -> None:
    desc["valid_mask"] &= ~(1 << slot)


def _bad_state(desc: dict, slot: int) -> None:
    desc["state"] = 7


def _set_cg_descriptor(fs, cgi: int, free_blocks: int) -> None:
    bno = fs.cg_base(cgi)
    desc = flayout.unpack_cg(fs.device.peek_block(bno))
    fs.device.poke_block(bno, flayout.pack_cg(
        free_blocks, desc["free_inodes"], desc["block_rotor"],
        desc["inode_rotor"]))


def _bad_magic(fs):
    _poke(fs.device, 0, 0, bytes([fs.device.peek_block(0)[0] ^ 0xFF]))


def _ffs_dangling(fs):
    bno, off, _ = _ffs_inode(fs, "/top")
    _poke(fs.device, bno, off, bytes(flayout.INODE_SIZE))


def _ffs_orphan(fs):
    bno = fs._resolve("/d").direct[0]
    raw = bytearray(fs.device.peek_block(bno))
    assert fdir.remove_entry(raw, "f00") is not None
    fs.device.poke_block(bno, bytes(raw))


def _ffs_bad_inum(fs):
    bno = fs._resolve("/d").direct[0]
    for offset, _inum, _kind, name, _reclen in fdir.iter_entries(
            fs.device.peek_block(bno)):
        if name == "f03":   # the dirent leads with its inode number
            _poke(fs.device, bno, offset, struct.pack("<I", 10 ** 6))


def _cffs_orphan_external(fs):
    """Drop both names of the hard-linked file: its external inode
    stays allocated with nothing pointing at it."""
    bno = fs._root.direct[0]
    raw = bytearray(fs.device.peek_block(bno))
    for name in ("top", "top2"):
        assert cdir.remove_entry(raw, name) is not None
    fs.device.poke_block(bno, bytes(raw))


def _garbage_dir_block(fs):
    fs.device.poke_block(fs._resolve("/d").direct[0], b"\xa5" * BLOCK_SIZE)


def _cffs_ext_nlink(fs):
    handle = fs._resolve("/top")
    handle.nlink = 9
    fs.ext.store(handle.loc[1], handle, sync=False)
    fs.sync()


def _stale_replica(fs):
    fs.device.poke_block(fs.device.total_blocks - 1, bytes(BLOCK_SIZE))


FFS_DAMAGE = {
    "pristine": lambda fs: None,
    "bad-magic": _bad_magic,
    "smashed-superblock": lambda fs: fs.device.poke_block(0, bytes(BLOCK_SIZE)),
    "dangling-dirent": _ffs_dangling,
    "wrong-nlink": lambda fs: set_ffs_inode(fs, "/d/f00", nlink=5),
    "bitmap-bit-cleared": lambda fs: _clear_bitmap_bit(
        fs, fs._resolve("/d/f05").direct[0]),
    "orphan-inode": _ffs_orphan,
    "impossible-inum": _ffs_bad_inum,
    "garbage-directory-block": _garbage_dir_block,
    "stale-replica": _stale_replica,
    "cg-descriptor-count": lambda fs: _set_cg_descriptor(fs, 0, 7),
    "superblock-counts": lambda fs: set_ffs_superblock(
        fs, free_blocks=1, free_inodes=2),
    "double-claimed-block": lambda fs: set_ffs_inode(
        fs, "/d/f01", direct=_ffs_inode(fs, "/d/f02")[2]["direct"]),
    "file-size-beyond-blocks": lambda fs: set_ffs_inode(
        fs, "/d/f04", size=10 * BLOCK_SIZE),
}

CFFS_DAMAGE = {
    "pristine": lambda fs: None,
    "bad-magic": _bad_magic,
    "smashed-superblock": lambda fs: fs.device.poke_block(0, bytes(BLOCK_SIZE)),
    "group-slot-wrong-owner": lambda fs: _cffs_set_desc(
        fs, "/d/f00", _wrong_owner),
    "group-slot-free-but-referenced": lambda fs: _cffs_set_desc(
        fs, "/d/f00", _free_slot),
    "group-extent-bad-state": lambda fs: _cffs_set_desc(
        fs, "/d/f00", _bad_state),
    "external-nlink": _cffs_ext_nlink,
    "bitmap-bit-cleared": lambda fs: _clear_bitmap_bit(
        fs, fs._resolve("/big").direct[0]),
    "stale-next-fileid": lambda fs: set_cffs_superblock(fs, next_fileid=3),
    "superblock-free-count": lambda fs: set_cffs_superblock(fs, free_blocks=5),
    "embedded-inode-free": lambda fs: _cffs_set_embedded(
        fs, "/d", "f07", mode=clayout.MODE_FREE),
    "embedded-nlink": lambda fs: _cffs_set_embedded(fs, "/d", "f08", nlink=3),
    "embedded-bad-mode": lambda fs: _cffs_set_embedded(fs, "/d", "f09", mode=9),
    "duplicate-fileid": lambda fs: _cffs_set_embedded(
        fs, "/d", "f10", fileid=_cffs_embedded(fs, "/d", "f11")[2]["fileid"]),
    "double-claimed-block": lambda fs: _cffs_set_embedded(
        fs, "/d", "f01", direct=_cffs_embedded(fs, "/d", "f02")[2]["direct"]),
    "orphan-external-inode": _cffs_orphan_external,
    "free-external-inode-two-names": free_external_inode,
    "garbage-directory-block": _garbage_dir_block,
    "stale-replica": _stale_replica,
    "cg-descriptor-count": lambda fs: _set_cg_descriptor(fs, 0, 7),
}


def _unusable_journal(label: str):
    make = make_ffs if label == "ffs" else make_cffs
    fs = make(policy=MetadataPolicy.JOURNAL_METADATA)
    fs.mkdir("/d")
    fs.write_file("/d/a", b"a" * 3000)
    fs.sync()
    fs.device.poke_block(fs.sb["journal_start"], b"\x5a" * BLOCK_SIZE)
    return fs.device


def corrupted_images():
    """(name, label, device) for every hand-corrupted image."""
    for kind, damage in FFS_DAMAGE.items():
        fs = populated_ffs()
        damage(fs)
        yield "ffs/" + kind, "ffs", fs.device
    for kind, damage in CFFS_DAMAGE.items():
        fs = populated_cffs()
        damage(fs)
        yield "cffs/" + kind, "cffs", fs.device
    for embedded in (True, False):
        for grouping in (True, False):
            fs = populated_cffs(embedded=embedded, grouping=grouping)
            name = "cffs/grid-e%d-g%d" % (embedded, grouping)
            yield name + "/pristine", "cffs", fs.device
            fs = populated_cffs(embedded=embedded, grouping=grouping)
            fs.device.poke_block(0, bytes(BLOCK_SIZE))
            yield name + "/smashed-superblock", "cffs", fs.device
    for label in CHECKERS:
        yield label + "/unusable-journal", label, _unusable_journal(label)
    yield "cffs/external-inode-file-indirect", "cffs", many_links_cffs().device
    for name, (make, _check) in WILD_POINTERS.items():
        yield name, name.split("/")[0], make()


def crash_images():
    """(name, label, device) for the strided crash images."""
    for label in CHECKERS:
        for policy in POLICIES:
            device, checkpoints = run_journaled_workload(label, policy)
            total = len(device.journal)
            ks = list(range(checkpoints[0].journal_len, total + 1, STRIDE))
            if ks[-1] != total:
                ks.append(total)
            for k in ks:
                yield ("crash/%s/%s/k%05d" % (label, policy.value, k),
                       label, device.image_at(k))


# -- the test --------------------------------------------------------------------


def _load_golden() -> dict:
    if not os.path.exists(GOLDEN_PATH):
        return {}
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _store_golden(golden: dict) -> None:
    lines = ["%s: %s" % (json.dumps(name), json.dumps(golden[name], sort_keys=True))
             for name in sorted(golden)]
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        handle.write("{\n" + ",\n".join(lines) + "\n}\n")


@pytest.mark.parametrize("images", [corrupted_images, crash_images],
                         ids=["corrupted", "crash"])
def test_corpus_verdicts_match_golden(images):
    golden = _load_golden()
    got = {name: verdict(label, device) for name, label, device in images()}
    missing = sorted(set(got) - set(golden))
    if REGEN and missing:
        golden.update((name, got[name]) for name in missing)
        _store_golden(golden)
        missing = []
    assert not missing, "no golden entry for %s (see module docstring)" % missing
    moved = {name: {"golden": golden[name], "got": v}
             for name, v in got.items() if golden[name] != v}
    assert not moved, "fsck verdicts moved (fields: %s): %s" % (
        ", ".join(COUNTS), json.dumps(moved, indent=1, sort_keys=True))
