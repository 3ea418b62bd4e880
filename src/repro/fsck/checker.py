"""fsck for both on-disk formats: check, and optionally repair.

Both checkers work offline on raw device bytes (``peek_block``; no
simulated time is charged) and verify:

- every reachable inode is structurally sane (mode, size vs blocks);
- every referenced data/indirect block is inside the volume, marked
  allocated in its bitmap, and referenced exactly once;
- link counts match the number of names found in the walk;
- free counts in descriptors and the superblock agree with the walk;
- (C-FFS) every valid group slot is owned by the (file, offset) the
  walk found at that block, grouped extents never contain foreign
  blocks, and externalized inodes are referenced by at least one name.

With ``repair=True`` the checkers also *fix* what they find, in the
classic fsck way: the directory hierarchy is the authoritative record
(names and inodes), everything derived — bitmaps, group descriptors,
free counts, next-fileid — is rebuilt from the walk, and leaked
resources (orphan inodes, unreferenced blocks) are collected.  Names
that point at free or impossible inodes are removed; wrong link counts
are set to the number of names found; a smashed superblock is restored
from the replica kept in the post-cylinder-group tail.  Repairs are
applied with ``poke_block`` (offline, untimed) and recorded on the
report's ``fixed`` list; a repaired image re-checks pristine.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.blockdev.device import BLOCK_SIZE, BlockDevice
from repro.core import directory as cdirfmt
from repro.core import layout as clayout
from repro.errors import CorruptFileSystem, JournalCorrupt, ReplayError
from repro.ffs import directory as fdirfmt
from repro.ffs import layout as flayout
from repro.journal import replay_journal
from repro.journal import wal as jwal

_PTRS = struct.Struct("<%dI" % flayout.PTRS_PER_INDIRECT)

_EXT_SLOT_SIZE = 128
_EXT_SLOTS_PER_BLOCK = BLOCK_SIZE // _EXT_SLOT_SIZE


@dataclass
class FsckReport:
    """Findings of one offline check.

    Three severities:

    - ``errors`` — real corruption: structure the checker cannot
      reconcile from derived data alone (dangling names, double-used
      blocks, torn chains, wrong link counts).  Repair mode fixes the
      common ones by trusting the walk.
    - ``repairs`` — rebuildable derived metadata that disagrees with
      the authoritative walk: free bitmaps, group descriptors, free
      counts.  A crash between an ordering write and the
      (always-delayed) bitmap and descriptor flushes legitimately
      leaves these stale; fsck rebuilds them, which is exactly why
      they may be written lazily.
    - ``warnings`` — leaks and benign inconsistencies (space marked
      used but unreachable, orphan inodes).

    ``ok`` means no errors; a freshly-synced image should also have no
    repairs (``pristine``).  When run with ``repair=True``, every
    applied fix is recorded in ``fixed``.
    """

    filesystem: str
    errors: List[str] = field(default_factory=list)
    repairs: List[str] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)
    fixed: List[str] = field(default_factory=list)
    files: int = 0
    directories: int = 0
    blocks_in_use: int = 0

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def pristine(self) -> bool:
        return not self.errors and not self.repairs

    def error(self, message: str) -> None:
        self.errors.append(message)

    def repair(self, message: str) -> None:
        self.repairs.append(message)

    def warn(self, message: str) -> None:
        self.warnings.append(message)

    def fix(self, message: str) -> None:
        self.fixed.append(message)

    def render(self) -> str:
        lines = [
            "fsck(%s): %d files, %d directories, %d blocks in use"
            % (self.filesystem, self.files, self.directories, self.blocks_in_use)
        ]
        for e in self.errors:
            lines.append("ERROR: %s" % e)
        for r in self.repairs:
            lines.append("repair: %s" % r)
        for w in self.warnings:
            lines.append("warning: %s" % w)
        for f in self.fixed:
            lines.append("fixed: %s" % f)
        lines.append("clean" if self.ok else "NOT CLEAN")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Shared helpers.
# ---------------------------------------------------------------------------

class _BlockClaims:
    """Tracks which object claims each block (double-use detection)."""

    def __init__(self, report: FsckReport) -> None:
        self.report = report
        self.claims: Dict[int, str] = {}

    def claim(self, bno: int, owner: str, total_blocks: int) -> bool:
        if not 0 < bno < total_blocks:
            self.report.error("%s references out-of-range block %d" % (owner, bno))
            return False
        existing = self.claims.get(bno)
        if existing is not None:
            self.report.error(
                "block %d claimed by both %s and %s" % (bno, existing, owner)
            )
            return False
        self.claims[bno] = owner
        return True


def _walk_pointers(
    device: BlockDevice,
    direct: List[int],
    indirect: int,
    dindirect: int,
    owner: str,
    claims: _BlockClaims,
) -> List[int]:
    """All data blocks of an inode, claiming indirect blocks on the way."""
    total = device.total_blocks
    blocks = [b for b in direct if b]
    if indirect:
        if claims.claim(indirect, owner + ":indirect", total):
            ptrs = _PTRS.unpack(device.peek_block(indirect))
            blocks.extend(p for p in ptrs if p)
    if dindirect:
        if claims.claim(dindirect, owner + ":dindirect", total):
            outers = _PTRS.unpack(device.peek_block(dindirect))
            for l1 in outers:
                if not l1:
                    continue
                if claims.claim(l1, owner + ":dindirect1", total):
                    blocks.extend(p for p in _PTRS.unpack(device.peek_block(l1)) if p)
    return blocks


def _bit(bitmap: bytes, offset: int) -> bool:
    return bool(bitmap[offset >> 3] & (1 << (offset & 7)))


def _set_bit(bitmap: bytearray, offset: int) -> None:
    bitmap[offset >> 3] |= 1 << (offset & 7)


def _replica_bytes(
    device: BlockDevice, magic: int, unpack: Callable[[bytes], dict]
) -> Optional[bytes]:
    """The tail superblock replica, if it looks authentic for this
    device (right magic, right volume size, right home block)."""
    rb = device.total_blocks - 1
    if rb <= 0:
        return None
    raw = device.peek_block(rb)
    try:
        cand = unpack(raw)
    except struct.error:  # pragma: no cover - fixed-size formats
        return None
    if cand["magic"] != magic:
        return None
    if cand["total_blocks"] != device.total_blocks:
        return None
    if flayout.replica_block(
            cand["total_blocks"], cand["n_cgs"], cand["blocks_per_cg"]) != rb:
        return None
    return raw


def _check_superblock(
    device: BlockDevice,
    report: FsckReport,
    repair: bool,
    magic: int,
    unpack: Callable[[bytes], dict],
) -> Optional[bytes]:
    """Validate block 0's magic; restore from the replica when asked.

    Returns the (possibly restored) superblock bytes, or None when the
    check cannot proceed.
    """
    raw0 = device.peek_block(0)
    if unpack(raw0)["magic"] == magic:
        return raw0
    report.error("bad superblock magic 0x%x" % unpack(raw0)["magic"])
    restored = _replica_bytes(device, magic, unpack)
    if restored is None:
        return None
    if not repair:
        report.repair(
            "superblock is recoverable from replica block %d (run repair)"
            % (device.total_blocks - 1))
        return None
    device.poke_block(0, restored)
    report.fix("superblock restored from replica block %d"
               % (device.total_blocks - 1))
    return restored


def _replay_before_walk(device: BlockDevice, report: FsckReport,
                        repair: bool, sb: dict) -> bool:
    """Journal-aware fsck, step one: replay the committed log tail so
    the walk sees post-replay state.  Returns True when a replay was
    applied (the caller must re-read the superblock — on C-FFS the
    superblock itself is journaled).  An unusable journal is an error;
    repair mode resets it to empty and lets the walk fix the rest."""
    start = sb.get("journal_start", 0)
    nblocks = sb.get("journal_blocks", 0)
    if not start:
        return False
    try:
        stats = replay_journal(device, start, nblocks)
    except (JournalCorrupt, ReplayError) as exc:
        report.error("journal unusable: %s" % exc)
        if repair:
            device.poke_block(start, jwal.pack_header(nblocks, 0))
            device.poke_block(start + 1, bytes(BLOCK_SIZE))
            report.fix("journal reset to empty")
        return False
    if stats.discarded:
        report.warn(
            "journal: discarded %d torn transaction(s) at the log tail"
            % stats.discarded)
    return stats.txns > 0


def _check_replica(device: BlockDevice, report: FsckReport, repair: bool,
                   sb: dict) -> None:
    """The tail replica must mirror block 0 (refresh it in repair mode)."""
    rb = flayout.replica_block(
        sb["total_blocks"], sb["n_cgs"], sb["blocks_per_cg"])
    if rb is None:
        return
    if device.peek_block(rb) != device.peek_block(0):
        report.repair("superblock replica (block %d) is stale" % rb)
        if repair:
            device.poke_block(rb, device.peek_block(0))
            report.fix("superblock replica refreshed")


# ---------------------------------------------------------------------------
# FFS checker.
# ---------------------------------------------------------------------------

def _drop_dirent(device: BlockDevice, report: FsckReport, codec,
                 bno: int, name: str, why: str) -> None:
    """Remove ``name`` from directory block ``bno`` (either format's
    ``codec`` module)."""
    raw = bytearray(device.peek_block(bno))
    codec.remove_entry(raw, name)
    device.poke_block(bno, bytes(raw))
    report.fix("removed dirent %r from block %d (%s)" % (name, bno, why))


def _live_entries_or_reinit(device: BlockDevice, report: FsckReport, codec,
                            repair: bool, bno: int, path: str):
    """The live entries of directory block ``bno``, or None when the
    block does not parse (reported; reinitialized under ``repair``)."""
    try:
        return codec.live_entries(device.peek_block(bno))
    except CorruptFileSystem as exc:
        report.error("%s: corrupt directory block %d (%s)" % (path, bno, exc))
        if repair:
            # A half-landed directory block: any names it held were
            # never durable, so an empty block is correct.
            device.poke_block(bno, bytes(codec.init_block()))
            report.fix("reinitialized corrupt directory block %d of %s"
                       % (bno, path or "/"))
        return None


def fsck_ffs(device: BlockDevice, repair: bool = False) -> FsckReport:
    """Check an FFS image; with ``repair=True`` also fix it."""
    report = FsckReport("ffs")
    raw0 = _check_superblock(
        device, report, repair, flayout.FFS_MAGIC, flayout.unpack_superblock)
    if raw0 is None:
        return report
    sb = flayout.unpack_superblock(raw0)
    if _replay_before_walk(device, report, repair, sb):
        sb = flayout.unpack_superblock(device.peek_block(0))

    bpc = sb["blocks_per_cg"]
    ipc = sb["inodes_per_cg"]
    data_start = sb["data_start"]
    claims = _BlockClaims(report)
    nlink_found: Dict[int, int] = {}
    removed_refs: Dict[int, int] = {}
    visited_dirs: Set[int] = set()
    max_inum = sb["n_cgs"] * ipc

    def cg_base(cgi: int) -> int:
        return 1 + cgi * bpc

    def inode_location(inum: int) -> Tuple[int, int]:
        cgi, within = divmod(inum - 1, ipc)
        bno = cg_base(cgi) + 2 + within // flayout.INODES_PER_BLOCK
        return bno, (within % flayout.INODES_PER_BLOCK) * flayout.INODE_SIZE

    def inode_bytes(inum: int) -> bytes:
        bno, off = inode_location(inum)
        return device.peek_block(bno)[off:off + flayout.INODE_SIZE]

    def poke_inode(inum: int, packed: bytes) -> None:
        bno, off = inode_location(inum)
        raw = bytearray(device.peek_block(bno))
        raw[off:off + flayout.INODE_SIZE] = packed
        device.poke_block(bno, bytes(raw))

    drop_dirent = partial(_drop_dirent, device, report, fdirfmt)

    def walk_dir(inum: int, path: str) -> None:
        if inum in visited_dirs:
            report.error("directory %s visited twice (cycle?)" % path)
            return
        visited_dirs.add(inum)
        fields = flayout.unpack_inode(inode_bytes(inum))
        if fields["mode"] != flayout.MODE_DIR:
            report.error("%s is not a directory on disk" % path)
            return
        report.directories += 1
        data = _walk_pointers(
            device, fields["direct"], fields["indirect"], fields["dindirect"],
            path, claims,
        )
        for i, bno in enumerate(data):
            claims.claim(bno, "%s[blk%d]" % (path, i), device.total_blocks)
        if fields["size"] != len(data) * BLOCK_SIZE:
            report.warn("%s: size %d disagrees with %d blocks"
                        % (path, fields["size"], len(data)))
        for bno in data:
            entries = _live_entries_or_reinit(
                device, report, fdirfmt, repair, bno, path)
            if entries is None:
                continue
            for name, child_inum, kind in entries:
                if not 1 <= child_inum <= max_inum:
                    report.error("%s/%s references bad inode %d" % (path, name, child_inum))
                    if repair:
                        drop_dirent(bno, name, "impossible inode number")
                    continue
                nlink_found[child_inum] = nlink_found.get(child_inum, 0) + 1
                child = flayout.unpack_inode(inode_bytes(child_inum))
                if child["mode"] == flayout.MODE_FREE:
                    report.error("%s/%s references free inode %d" % (path, name, child_inum))
                    if repair:
                        drop_dirent(bno, name, "free inode")
                        removed_refs[child_inum] = removed_refs.get(child_inum, 0) + 1
                    continue
                if kind == flayout.DT_DIR:
                    walk_dir(child_inum, "%s/%s" % (path, name))
                else:
                    if nlink_found[child_inum] == 1:  # first sighting
                        _check_file(child_inum, child, "%s/%s" % (path, name))

    def _check_file(inum: int, fields: dict, path: str) -> None:
        report.files += 1
        data = _walk_pointers(
            device, fields["direct"], fields["indirect"], fields["dindirect"],
            path, claims,
        )
        for i, bno in enumerate(data):
            claims.claim(bno, "%s[blk%d]" % (path, i), device.total_blocks)
        max_bytes = len(data) * BLOCK_SIZE
        if fields["size"] > max_bytes and fields["nblocks"] >= len(data):
            report.warn("%s: size %d exceeds allocated %d bytes"
                        % (path, fields["size"], max_bytes))

    walk_dir(sb["root_inum"], "")
    nlink_found[sb["root_inum"]] = nlink_found.get(sb["root_inum"], 0) + 1

    # Full inode-table scan: the walk is authoritative, so any
    # allocated inode the walk never reached is an orphan (a crash
    # between a synchronous inode write and its dirent, or after a
    # name removal).  Orphans leak; repair collects them.
    in_use_inodes: Set[int] = set()
    for inum in range(1, max_inum + 1):
        fields = flayout.unpack_inode(inode_bytes(inum))
        if fields["mode"] == flayout.MODE_FREE:
            continue
        refs = nlink_found.get(inum, 0) - removed_refs.get(inum, 0)
        if refs > 0:
            in_use_inodes.add(inum)
            continue
        report.warn("inode %d allocated but unreachable (orphan)" % inum)
        if repair:
            poke_inode(inum, bytes(flayout.INODE_SIZE))
            report.fix("cleared orphan inode %d" % inum)
        else:
            in_use_inodes.add(inum)

    # Link counts.
    for inum in sorted(nlink_found):
        found = nlink_found[inum] - removed_refs.get(inum, 0)
        if found <= 0:
            continue
        fields = flayout.unpack_inode(inode_bytes(inum))
        if fields["mode"] == flayout.MODE_FREE:
            continue  # every reference was an error (and removed above)
        if fields["nlink"] != found:
            report.error("inode %d: nlink %d but %d names found"
                         % (inum, fields["nlink"], found))
            if repair:
                poke_inode(inum, flayout.pack_inode(
                    fields["mode"], found, fields["flags"], fields["gen"],
                    fields["size"], fields["mtime"], fields["direct"],
                    fields["indirect"], fields["dindirect"], fields["nblocks"],
                ))
                report.fix("inode %d: nlink set to %d" % (inum, found))

    # Bitmap and descriptor agreement, rebuilt from the walk.
    total_free_blocks = 0
    total_free_inodes = 0
    for cgi in range(sb["n_cgs"]):
        base = cg_base(cgi)
        bitmap = device.peek_block(base + 1)
        expected = bytearray(BLOCK_SIZE)
        used_blocks = 0
        for off in range(data_start):
            _set_bit(expected, off)
        for off in range(data_start, bpc):
            bno = base + off
            claimed = bno in claims.claims
            if claimed:
                _set_bit(expected, off)
                used_blocks += 1
            marked = _bit(bitmap, off)
            if claimed and not marked:
                report.repair("block %d in use but free in bitmap" % bno)
            elif marked and not claimed:
                report.warn("block %d marked used but unreferenced" % bno)
        used_inodes = 0
        for idx in range(ipc):
            inum = cgi * ipc + idx + 1
            used = inum in in_use_inodes
            boff = bpc + idx
            if used:
                _set_bit(expected, boff)
                used_inodes += 1
            marked = _bit(bitmap, boff)
            if used and not marked:
                report.repair("inode %d in use but free in inode bitmap" % inum)
            elif marked and not used:
                report.warn("inode %d marked allocated but unused" % inum)
        if repair and bytes(expected) != bytes(bitmap):
            device.poke_block(base + 1, bytes(expected))
            report.fix("cg %d: bitmap rebuilt" % cgi)

        free_b = (bpc - data_start) - used_blocks
        free_i = ipc - used_inodes
        total_free_blocks += free_b
        total_free_inodes += free_i
        desc = flayout.unpack_cg(device.peek_block(base))
        if desc["free_blocks"] != free_b or desc["free_inodes"] != free_i:
            report.repair(
                "cg %d: descriptor free counts (%d, %d) but walk says (%d, %d)"
                % (cgi, desc["free_blocks"], desc["free_inodes"], free_b, free_i))
            if repair:
                device.poke_block(base, flayout.pack_cg(
                    free_b, free_i,
                    desc["block_rotor"] % bpc, desc["inode_rotor"] % ipc))
                report.fix("cg %d: descriptor rebuilt" % cgi)

    if sb["free_blocks"] != total_free_blocks \
            or sb["free_inodes"] != total_free_inodes:
        report.repair(
            "superblock free counts (%d, %d) but walk says (%d, %d)"
            % (sb["free_blocks"], sb["free_inodes"],
               total_free_blocks, total_free_inodes))
        if repair:
            sb["free_blocks"] = total_free_blocks
            sb["free_inodes"] = total_free_inodes
            device.poke_block(0, flayout.pack_superblock(sb))
            report.fix("superblock free counts corrected")
    _check_replica(device, report, repair, sb)
    report.blocks_in_use = len(claims.claims)
    return report


# ---------------------------------------------------------------------------
# C-FFS checker.
# ---------------------------------------------------------------------------

def fsck_cffs(device: BlockDevice, repair: bool = False) -> FsckReport:
    """Check a C-FFS image by walking the directory hierarchy; with
    ``repair=True`` also fix it."""
    report = FsckReport("cffs")
    raw0 = _check_superblock(
        device, report, repair, clayout.CFFS_MAGIC, clayout.unpack_superblock)
    if raw0 is None:
        return report
    sb = clayout.unpack_superblock(raw0)
    if _replay_before_walk(device, report, repair, sb):
        # The C-FFS superblock (with the embedded root inode) is itself
        # journaled: re-read it post-replay.
        raw0 = device.peek_block(0)
        sb = clayout.unpack_superblock(raw0)

    claims = _BlockClaims(report)
    total = device.total_blocks
    # (fileid, file block index) -> disk block, discovered by the walk.
    owned_blocks: Dict[int, Tuple[int, int]] = {}
    ext_refs: Dict[int, int] = {}  # external inum -> names found
    removed_ext_refs: Dict[int, int] = {}
    seen_fileids: Set[int] = set()

    def claim_file_blocks(fields: dict, path: str) -> None:
        data = _walk_pointers(
            device, fields["direct"], fields["indirect"], fields["dindirect"],
            path, claims,
        )
        # Rebuild file-offset ownership for the group cross-check: only
        # direct blocks can live in groups.
        for i, bno in enumerate(fields["direct"]):
            if bno:
                owned_blocks[bno] = (fields["fileid"], i)
        for i, bno in enumerate(data):
            claims.claim(bno, "%s[blk%d]" % (path, i), total)

    def check_inode_fields(fields: dict, path: str) -> bool:
        if fields["fileid"] in seen_fileids:
            report.error("%s: duplicate fileid %d" % (path, fields["fileid"]))
            return False
        seen_fileids.add(fields["fileid"])
        if fields["mode"] not in (clayout.MODE_FILE, clayout.MODE_DIR):
            report.error("%s: bad mode %d" % (path, fields["mode"]))
            return False
        return True

    def ext_inode_location(inum: int) -> Tuple[Optional[int], int]:
        blk, slot = divmod(inum - 1, _EXT_SLOTS_PER_BLOCK)
        return _ext_table_block(device, sb, blk), slot * _EXT_SLOT_SIZE

    def ext_inode(inum: int) -> Optional[dict]:
        bno, off = ext_inode_location(inum)
        if bno is None:
            report.error("external inode %d beyond table" % inum)
            return None
        raw = device.peek_block(bno)[off:off + clayout.CINODE_SIZE]
        return clayout.unpack_cinode(raw)

    def poke_ext_slot(inum: int, packed: bytes) -> None:
        bno, off = ext_inode_location(inum)
        raw = bytearray(device.peek_block(bno))
        raw[off:off + len(packed)] = packed
        device.poke_block(bno, bytes(raw))

    drop_dirent = partial(_drop_dirent, device, report, cdirfmt)

    def rewrite_embedded(bno: int, payload_off: int, child: dict) -> None:
        raw = bytearray(device.peek_block(bno))
        cdirfmt.rewrite_payload(raw, payload_off, _pack_cinode_fields(child))
        device.poke_block(bno, bytes(raw))

    def walk_dir(fields: dict, path: str) -> None:
        report.directories += 1
        claim_file_blocks(fields, path or "/")
        nblocks = fields["size"] // BLOCK_SIZE
        data = _collect_blocks(device, fields)
        if len(data) < nblocks:
            report.error("%s: directory size %d but only %d blocks"
                         % (path or "/", fields["size"], len(data)))
        for bno in data[:nblocks]:
            entries = _live_entries_or_reinit(
                device, report, cdirfmt, repair, bno, path)
            if entries is None:
                continue
            for _sector, entry in entries:
                _off, _reclen, etype, kind, name, payload_off = entry
                child_path = "%s/%s" % (path, name)
                block = device.peek_block(bno)
                if etype == cdirfmt.ET_EMBEDDED:
                    child = clayout.unpack_cinode(
                        block[payload_off:payload_off + clayout.CINODE_SIZE]
                    )
                    if child["mode"] == clayout.MODE_FREE:
                        report.error("%s: embedded inode is free" % child_path)
                        if repair:
                            drop_dirent(bno, name, "free embedded inode")
                        continue
                    if child["nlink"] != 1:
                        report.error("%s: embedded inode with nlink %d"
                                     % (child_path, child["nlink"]))
                        if repair:
                            child["nlink"] = 1
                            rewrite_embedded(bno, payload_off, child)
                            report.fix("%s: embedded nlink set to 1" % child_path)
                    if not check_inode_fields(child, child_path):
                        continue
                    if kind == cdirfmt.DK_DIR:
                        walk_dir(child, child_path)
                    else:
                        report.files += 1
                        claim_file_blocks(child, child_path)
                elif etype == cdirfmt.ET_EXTERNAL:
                    inum = struct.unpack_from("<Q", block, payload_off)[0]
                    ext_refs[inum] = ext_refs.get(inum, 0) + 1
                    if ext_refs[inum] == 1:
                        child = ext_inode(inum)
                        if child is None or child["mode"] == clayout.MODE_FREE:
                            if child is not None:
                                report.error(
                                    "%s: references free external inode %d"
                                    % (child_path, inum))
                            if repair:
                                drop_dirent(bno, name, "free external inode")
                                removed_ext_refs[inum] = (
                                    removed_ext_refs.get(inum, 0) + 1)
                            continue
                        if not check_inode_fields(child, child_path):
                            continue
                        if kind == cdirfmt.DK_DIR:
                            walk_dir(child, child_path)
                        else:
                            report.files += 1
                            claim_file_blocks(child, child_path)

    # External inode table blocks are metadata: claim them.
    for blk in range(sb["ext_size"] // BLOCK_SIZE):
        bno = _ext_table_block(device, sb, blk)
        if bno is not None:
            claims.claim(bno, "ext-table[%d]" % blk, total)
    # (Indirect blocks of the table are claimed inside _ext_table_block
    # walks implicitly; keep it simple: direct-only tables are typical.)

    root = clayout.unpack_cinode(clayout.root_inode_bytes(raw0))
    if root["mode"] != clayout.MODE_DIR:
        report.error("root inode in superblock is not a directory")
        return report
    seen_fileids.add(root["fileid"])
    walk_dir(root, "")

    # External link counts.
    for inum in sorted(ext_refs):
        found = ext_refs[inum] - removed_ext_refs.get(inum, 0)
        if found <= 0:
            continue
        fields = ext_inode(inum)
        if fields is not None and fields["mode"] != clayout.MODE_FREE:
            if fields["nlink"] != found:
                report.error("external inode %d: nlink %d but %d names"
                             % (inum, fields["nlink"], found))
                if repair:
                    fields["nlink"] = found
                    poke_ext_slot(inum, _pack_cinode_fields(fields))
                    report.fix("external inode %d: nlink set to %d"
                               % (inum, found))

    # Orphan scan of the external inode table: allocated slots the walk
    # never reached leak their blocks; repair collects them.
    for blk in range(sb["ext_size"] // BLOCK_SIZE):
        bno = _ext_table_block(device, sb, blk)
        if bno is None:
            continue
        raw = device.peek_block(bno)
        for slot in range(_EXT_SLOTS_PER_BLOCK):
            fields = clayout.unpack_cinode(
                raw[slot * _EXT_SLOT_SIZE:
                    slot * _EXT_SLOT_SIZE + clayout.CINODE_SIZE])
            if fields["mode"] == clayout.MODE_FREE:
                continue
            inum = blk * _EXT_SLOTS_PER_BLOCK + slot + 1
            if ext_refs.get(inum, 0) - removed_ext_refs.get(inum, 0) > 0:
                continue
            report.warn("external inode %d allocated but unreachable (orphan)"
                        % inum)
            if repair:
                poke_ext_slot(inum, bytes(_EXT_SLOT_SIZE))
                report.fix("cleared orphan external inode %d" % inum)
                raw = device.peek_block(bno)

    # The next-fileid counter must clear every fileid in use, or the
    # remounted file system would mint duplicates.
    if seen_fileids:
        needed = max(seen_fileids) + 1
        if sb["next_fileid"] < needed:
            report.repair("next_fileid %d but fileid %d is in use"
                          % (sb["next_fileid"], needed - 1))
            if repair:
                sb["next_fileid"] = needed

    # Group descriptor cross-check and bitmap agreement.
    free_blocks = _check_cffs_groups(
        device, sb, claims, owned_blocks, report, repair)
    if sb["free_blocks"] != free_blocks:
        report.repair("superblock free block count %d but walk says %d"
                      % (sb["free_blocks"], free_blocks))
        if repair:
            sb["free_blocks"] = free_blocks
    if repair:
        packed = clayout.pack_superblock(
            sb, clayout.root_inode_bytes(device.peek_block(0)))
        if packed != device.peek_block(0):
            device.poke_block(0, packed)
            report.fix("superblock counters corrected")
    _check_replica(device, report, repair, sb)
    report.blocks_in_use = len(claims.claims)
    return report


def _pack_cinode_fields(fields: dict) -> bytes:
    return clayout.pack_cinode(
        fields["fileid"], fields["mode"], fields["nlink"], fields["flags"],
        fields["gen"], fields["size"], fields["mtime"], fields["direct"],
        fields["indirect"], fields["dindirect"], fields["nblocks"],
    )


def _ext_table_block(device: BlockDevice, sb: dict, blk: int) -> Optional[int]:
    if blk < 12:
        bno = sb["ext_direct"][blk]
        return bno or None
    blk -= 12
    if blk < flayout.PTRS_PER_INDIRECT and sb["ext_indirect"]:
        ptr = _PTRS.unpack(device.peek_block(sb["ext_indirect"]))[blk]
        return ptr or None
    return None


def _collect_blocks(device: BlockDevice, fields: dict) -> List[int]:
    """Ordered data blocks of an inode (for directory walking)."""
    out = [b for b in fields["direct"] if b]
    if fields["indirect"]:
        out.extend(p for p in _PTRS.unpack(device.peek_block(fields["indirect"])) if p)
    if fields["dindirect"]:
        for l1 in _PTRS.unpack(device.peek_block(fields["dindirect"])):
            if l1:
                out.extend(p for p in _PTRS.unpack(device.peek_block(l1)) if p)
    return out


def _canonical_desc(desc: dict, span: int) -> tuple:
    """A descriptor's semantic content (stale bytes under invalid slots
    and in non-grouped descriptors are irrelevant)."""
    if desc["state"] != clayout.EXT_GROUPED:
        return (desc["state"],)
    slots = tuple(
        tuple(desc["slots"][s]) if desc["valid_mask"] >> s & 1 else (0, 0)
        for s in range(span))
    return (desc["state"], desc["valid_mask"] & ((1 << span) - 1),
            desc["owner"], slots)


def _check_cffs_groups(
    device: BlockDevice,
    sb: dict,
    claims: _BlockClaims,
    owned_blocks: Dict[int, Tuple[int, int]],
    report: FsckReport,
    repair: bool,
) -> int:
    """Check (and optionally rebuild) extent descriptors and bitmaps.

    Returns the volume's free data block count per the walk, counted
    the way the allocator does (claiming a group extent costs its full
    span, so kept-GROUPED extents count as entirely allocated).
    """
    bpc = sb["blocks_per_cg"]
    data_start = sb["data_start"]
    span = sb["group_span"] or clayout.GROUP_SPAN
    n_extents = (bpc - data_start) // span
    usable = n_extents * span
    total_free = 0
    for cgi in range(sb["n_cgs"]):
        base = 1 + cgi * bpc
        bitmap = device.peek_block(base + 1)
        expected = bytearray(BLOCK_SIZE)
        for off in range(data_start):
            _set_bit(expected, off)
        for off in range(data_start + usable, bpc):
            _set_bit(expected, off)  # unusable tail, marked used at mkfs

        # Extent descriptors: decide each extent's rebuilt state first,
        # because grouped extents own their whole span in the bitmap.
        gdt_new: Dict[int, bytearray] = {}
        for idx in range(n_extents):
            gdt_bno = base + 2 + idx // clayout.GDESC_PER_BLOCK
            off = (idx % clayout.GDESC_PER_BLOCK) * clayout.GDESC_SIZE
            desc = clayout.unpack_gdesc(
                device.peek_block(gdt_bno)[off:off + clayout.GDESC_SIZE]
            )
            ext_base = base + data_start + idx * span
            claimed = [s for s in range(span)
                       if (ext_base + s) in claims.claims]

            if desc["state"] == clayout.EXT_GROUPED:
                for slot in range(span):
                    bno = ext_base + slot
                    valid = bool(desc["valid_mask"] & (1 << slot))
                    if valid:
                        fileid, fblock = desc["slots"][slot]
                        owner = owned_blocks.get(bno)
                        if owner is None:
                            report.repair(
                                "group slot %d (block %d) valid but unreferenced"
                                % (slot, bno)
                            )
                        elif owner != (fileid, fblock):
                            report.repair(
                                "group slot %d (block %d): descriptor says %r, walk says %r"
                                % (slot, bno, (fileid, fblock), owner)
                            )
                    else:
                        if bno in owned_blocks:
                            report.repair(
                                "block %d referenced by a file but its group slot is free"
                                % bno
                            )
            elif desc["state"] == clayout.EXT_FREE:
                for s in claimed:
                    report.repair(
                        "block %d allocated but its extent descriptor is free"
                        % (ext_base + s)
                    )
            elif desc["state"] != clayout.EXT_UNGROUPED:
                report.repair("extent (%d, %d): bad state %d"
                              % (cgi, idx, desc["state"]))

            # Rebuilt state: trust the walk.  An extent stays a group
            # only when everything in it belongs to files at known
            # offsets; otherwise it degrades to individually-allocated.
            if not claimed:
                if desc["state"] == clayout.EXT_UNGROUPED:
                    new = dict(desc, state=clayout.EXT_UNGROUPED)
                else:
                    new = {"state": clayout.EXT_FREE, "valid_mask": 0,
                           "owner": 0, "slots": [(0, 0)] * clayout.GROUP_SPAN}
            elif (desc["state"] == clayout.EXT_GROUPED
                    and all((ext_base + s) in owned_blocks for s in claimed)):
                mask = 0
                slots = [(0, 0)] * clayout.GROUP_SPAN
                for s in claimed:
                    mask |= 1 << s
                    slots[s] = owned_blocks[ext_base + s]
                new = {"state": clayout.EXT_GROUPED, "valid_mask": mask,
                       "owner": desc["owner"], "slots": slots}
            else:
                new = {"state": clayout.EXT_UNGROUPED, "valid_mask": 0,
                       "owner": 0, "slots": [(0, 0)] * clayout.GROUP_SPAN}

            # Expected bitmap bits and free count, from the final state.
            if new["state"] == clayout.EXT_GROUPED:
                for s in range(span):
                    _set_bit(expected, data_start + idx * span + s)
            else:
                for s in claimed:
                    _set_bit(expected, data_start + idx * span + s)
                total_free += span - len(claimed)

            if repair and _canonical_desc(new, span) != _canonical_desc(desc, span):
                block = gdt_new.setdefault(
                    gdt_bno, bytearray(device.peek_block(gdt_bno)))
                block[off:off + clayout.GDESC_SIZE] = clayout.pack_gdesc(
                    new["state"], new["valid_mask"], new["owner"], new["slots"])
                report.fix("extent (%d, %d): descriptor rebuilt" % (cgi, idx))
        for gdt_bno, block in gdt_new.items():
            device.poke_block(gdt_bno, bytes(block))

        # Bitmap agreement against the expected (rebuilt) bitmap.
        for off in range(data_start, data_start + usable):
            bno = base + off
            want = _bit(expected, off)
            have = _bit(bitmap, off)
            if bno in claims.claims and not have:
                report.repair("block %d in use but free in bitmap" % bno)
            elif have and not want:
                report.warn("block %d marked used but unreferenced" % bno)
        if repair and bytes(expected) != bytes(bitmap):
            device.poke_block(base + 1, bytes(expected))
            report.fix("cg %d: bitmap rebuilt" % cgi)

        # Descriptor free count, the allocator's way.
        cg_free = sum(
            1 for off in range(data_start, data_start + usable)
            if not _bit(expected, off))
        desc = flayout.unpack_cg(device.peek_block(base))
        if desc["free_blocks"] != cg_free:
            report.repair("cg %d: descriptor free blocks %d but walk says %d"
                          % (cgi, desc["free_blocks"], cg_free))
            if repair:
                device.poke_block(base, flayout.pack_cg(
                    cg_free, desc["free_inodes"],
                    desc["block_rotor"] % bpc, desc["inode_rotor"]))
                report.fix("cg %d: descriptor rebuilt" % cgi)
    return total_free
