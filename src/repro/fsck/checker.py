"""fsck: one offline walk over either on-disk format — check, and
optionally repair.

The paper's recovery argument is one sentence: inodes "can all be found
(assuming no media corruption) by following the directory hierarchy".
:class:`_Walk` is that sentence, written once: superblock check and
replica restore, journal replay, root discovery, directory descent,
block claiming, link counting, the sweep of the numbered inode table,
the per-group bitmap and descriptor rebuild, superblock counters,
replica refresh.  What differs between FFS and C-FFS on disk — where
the root inode lives, what a directory entry carries (an inode number
or the embedded inode itself), where numbered inodes are stored (the
static table or the external-inode file), and which derived state
hangs off a cylinder group (inode bits or extent descriptors) — is
supplied by a small adapter per format, :class:`_FFSWalk` and
:class:`_CFFSWalk`.

The walk works on raw device bytes (``peek_block``; no simulated time
is charged) and verifies:

- every reachable inode is structurally sane (mode, size vs blocks);
- every referenced data/indirect block is inside the volume, marked
  allocated in its bitmap, and referenced exactly once;
- link counts match the number of names found in the walk, and every
  allocated numbered inode has a name;
- free counts in descriptors and the superblock agree with the walk;
- (C-FFS) every valid group slot is owned by the (file, offset) the
  walk found at that block, and grouped extents never contain foreign
  blocks.

With ``repair=True`` it also *fixes* what it finds, in the classic
fsck way: the directory hierarchy is the authoritative record (names
and inodes), everything derived — bitmaps, group descriptors, free
counts, next-fileid — is rebuilt from the walk, and leaked resources
(orphan inodes, unreferenced blocks) are collected.  Names that point
at free or impossible inodes are removed; wrong link counts are set to
the number of names found; a smashed superblock is restored from the
replica kept in the post-cylinder-group tail.  Repairs are applied
with ``poke_block`` (offline, untimed) and recorded on the report's
``fixed`` list; a repaired image re-checks pristine.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.blockdev.device import BLOCK_SIZE, BlockDevice
from repro.core import directory as cdirfmt
from repro.core import layout as clayout
from repro.core.extinodes import SLOT_SIZE, SLOTS_PER_BLOCK
from repro.errors import CorruptFileSystem, JournalCorrupt, ReplayError
from repro.ffs import cylgroup
from repro.ffs import directory as fdirfmt
from repro.ffs import layout as flayout
from repro.ffs.inode import BaseInode
from repro.ffs.layout import MODE_DIR, MODE_FILE, MODE_FREE
from repro.journal import replay_journal
from repro.journal import wal as jwal

_PTRS = struct.Struct("<%dI" % flayout.PTRS_PER_INDIRECT)


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


class _BlockClaims:
    """Tracks which object claims each block (double-use detection)."""

    def __init__(self, report: FsckReport, total_blocks: int) -> None:
        self.report = report
        self.total_blocks = total_blocks
        self.claims: Dict[int, str] = {}

    def in_range(self, bno: int) -> bool:
        return 0 < bno < self.total_blocks

    def claim(self, bno: int, owner: str) -> bool:
        if not self.in_range(bno):
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


def _walk_pointers(device: BlockDevice, fields: dict, owner: str,
                   claims: _BlockClaims) -> List[int]:
    """The data blocks of an inode (or anything with its pointer
    fields) in file order, every one claimed for ``owner`` — the
    indirect blocks on the way too.  A pointer out of the volume is
    reported by the claim and stays in the list, so positions hold;
    whoever reads a block checks ``claims.in_range`` first."""

    def pointers(bno: int, role: str) -> List[int]:
        if bno and claims.claim(bno, owner + role):
            return [p for p in _PTRS.unpack(device.peek_block(bno)) if p]
        return []

    blocks = [b for b in fields["direct"] if b]
    blocks += pointers(fields["indirect"], ":indirect")
    for l1 in pointers(fields["dindirect"], ":dindirect"):
        blocks += pointers(l1, ":dindirect1")
    for i, bno in enumerate(blocks):
        claims.claim(bno, "%s[blk%d]" % (owner, i))
    return blocks


def _replica_bytes(device: BlockDevice, fmt: type) -> Optional[bytes]:
    """The tail superblock replica, if it looks authentic for this
    device (right magic, right volume size, right home block)."""
    rb = device.total_blocks - 1
    if rb <= 0:
        return None
    raw = device.peek_block(rb)
    try:
        cand = fmt.layout.unpack_superblock(raw)
    except struct.error:  # pragma: no cover - fixed-size formats
        return None
    if cand["magic"] != fmt.MAGIC:
        return None
    if cand["total_blocks"] != device.total_blocks:
        return None
    if flayout.replica_block(
            cand["total_blocks"], cand["n_cgs"], cand["blocks_per_cg"]) != rb:
        return None
    return raw


def _check_superblock(device: BlockDevice, report: FsckReport, repair: bool,
                      fmt: type) -> Optional[bytes]:
    """Validate block 0's magic; restore from the replica when asked.

    Returns the (possibly restored) superblock bytes, or None when the
    check cannot proceed.
    """
    raw0 = device.peek_block(0)
    magic = fmt.layout.unpack_superblock(raw0)["magic"]
    if magic == fmt.MAGIC:
        return raw0
    report.error("bad superblock magic 0x%x" % magic)
    restored = _replica_bytes(device, fmt)
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


# ---------------------------------------------------------------------------
# The walk.
# ---------------------------------------------------------------------------

#: What :meth:`_Walk.entries` yields per live directory entry: (name,
#: names a directory?, the embedded inode's fields or None, reference).
#: The reference of an embedded inode is its offset in the directory
#: block; otherwise it is the number of an inode in the table.
Entry = Tuple[str, bool, Optional[dict], int]


class _Walk:
    """One check of one image.  Everything here is format-blind; a
    format adapter sets the attributes below (the last three in its
    constructor) and fills in the hooks that follow the constructor."""

    label = ""               # FsckReport.filesystem
    MAGIC = 0
    layout = flayout         # module with unpack_superblock
    dirfmt = fdirfmt         # directory-block codec module
    noun = "inode"           # how findings name a numbered inode
    slot_size = 0            # bytes per slot of the numbered-inode table
    unpack_inode = staticmethod(flayout.unpack_inode)
    table_slots = 0          # slots in the numbered-inode table
    inodes_per_cg = 0        # inode bits per cylinder-group bitmap
    usable = 0               # allocatable data blocks per cylinder group

    def __init__(self, device: BlockDevice, report: FsckReport, repair: bool,
                 sb: dict) -> None:
        self.device = device
        self.report = report
        self.repair = repair
        self.sb = sb
        self.claims = _BlockClaims(report, device.total_blocks)
        self.names: Dict[int, int] = {}   # numbered inode -> names found
        self.live: Set[int] = set()       # numbered inodes left allocated
        self.idents: Set[int] = set()     # identities of the inodes seen
        # Direct block -> (identity, file block index) of its inode.
        self.owners: Dict[int, Tuple[int, int]] = {}

    # -- hooks: what differs between the formats --------------------------------------

    def pack_superblock(self) -> bytes:
        raise NotImplementedError

    def root(self) -> Tuple[Optional[dict], Optional[int]]:
        """(fields, table number or None) of the root directory's inode."""
        raise NotImplementedError

    def entries(self, block: bytes) -> Iterator[Entry]:
        raise NotImplementedError

    def identity(self, fields: dict, inum: Optional[int]) -> int:
        """What must be unique across all inodes of the volume."""
        raise NotImplementedError

    def pack_inode(self, fields: dict) -> bytes:
        """(``BaseInode.__slots__`` is the pack order both layouts share.)"""
        raise NotImplementedError

    def table_slot(self, inum: int) -> Tuple[int, int]:
        """(block, byte offset) of numbered inode ``inum``, which is
        within ``1..table_slots``."""
        raise NotImplementedError

    def mark_group(self, cgi: int, base: int, expected: bytearray,
                   bitmap: bytes) -> int:
        """Check (and rebuild) the state derived from the walk that
        hangs off cylinder group ``cgi``, mark its share of the
        ``expected`` bitmap, and return the group's free inode count."""
        raise NotImplementedError

    def mark_superblock(self) -> None:
        """Check the superblock fields only this format derives."""

    # -- numbered inodes -----------------------------------------------------------------

    def table_inode(self, inum: int) -> Optional[dict]:
        """Numbered inode ``inum``; None when the table has no such slot
        (or a wild pointer where the slot's block should be)."""
        if not 1 <= inum <= self.table_slots:
            return None
        bno, off = self.table_slot(inum)
        if not self.claims.in_range(bno):
            return None
        return self.unpack_inode(
            self.device.peek_block(bno)[off:off + self.slot_size])

    def _patch(self, bno: int, off: int, data: bytes) -> None:
        raw = bytearray(self.device.peek_block(bno))
        raw[off:off + len(data)] = data
        self.device.poke_block(bno, bytes(raw))

    # -- the walk ----------------------------------------------------------------------

    @classmethod
    def check(cls, device: BlockDevice, repair: bool) -> FsckReport:
        """A usable superblock, the journal replayed, then the walk."""
        report = FsckReport(cls.label)
        raw0 = _check_superblock(device, report, repair, cls)
        if raw0 is not None:
            sb = cls.layout.unpack_superblock(raw0)
            if _replay_before_walk(device, report, repair, sb):
                sb = cls.layout.unpack_superblock(device.peek_block(0))
            cls(device, report, repair, sb).run()
        return report

    def run(self) -> None:
        report = self.report
        root, inum = self.root()
        if root is None or root["mode"] != MODE_DIR:
            report.error("root inode is not a directory")
            return
        if inum is not None:
            self.names[inum] = 1    # the root needs no name
        self._inode(root, inum, "", True)
        self._sweep_table()
        self._check_counters(*self._check_groups())
        report.blocks_in_use = len(self.claims.claims)

    def _claim(self, fields: dict, ident: int, owner: str) -> List[int]:
        for i, bno in enumerate(fields["direct"]):
            if bno:
                self.owners[bno] = (ident, i)
        return _walk_pointers(self.device, fields, owner, self.claims)

    def _inode(self, fields: dict, inum: Optional[int], path: str,
               is_dir: bool) -> None:
        """First sighting of a live inode: claim its blocks; descend
        into it if its name says it is a directory."""
        report = self.report
        ident = self.identity(fields, inum)
        if ident in self.idents:
            report.error("%s: duplicate fileid %d" % (path, ident))
            return
        self.idents.add(ident)
        if fields["mode"] not in (MODE_FILE, MODE_DIR):
            report.error("%s: bad mode %d" % (path, fields["mode"]))
            return
        if not is_dir:
            report.files += 1
            data = self._claim(fields, ident, path)
            if (fields["size"] > len(data) * BLOCK_SIZE
                    and fields["nblocks"] >= len(data)):
                report.warn("%s: size %d exceeds allocated %d bytes"
                            % (path, fields["size"], len(data) * BLOCK_SIZE))
            return
        if fields["mode"] != MODE_DIR:
            report.error("%s is not a directory on disk" % path)
            return
        report.directories += 1
        where = path or "/"
        data = self._claim(fields, ident, where)
        nblocks = fields["size"] // BLOCK_SIZE
        if len(data) < nblocks:
            report.error("%s: directory size %d but only %d blocks"
                         % (where, fields["size"], len(data)))
        elif len(data) > nblocks:
            report.warn("%s: directory size %d but %d blocks"
                        % (where, fields["size"], len(data)))
        for bno in data[:nblocks]:
            for name, child_is_dir, child, ref in self._live_entries(bno, path):
                self._entry(bno, "%s/%s" % (path, name), name, child_is_dir,
                            child, ref)

    def _live_entries(self, bno: int, path: str) -> List[Entry]:
        """The live entries of directory block ``bno``; none when the
        block does not parse (reported; reinitialized under repair) or
        lies outside the volume (reported when claimed)."""
        if not self.claims.in_range(bno):
            return []
        try:
            return list(self.entries(self.device.peek_block(bno)))
        except CorruptFileSystem as exc:
            self.report.error(
                "%s: corrupt directory block %d (%s)" % (path, bno, exc))
            if self.repair:
                # A half-landed directory block: any names it held were
                # never durable, so an empty block is correct.
                self.device.poke_block(bno, bytes(self.dirfmt.init_block()))
                self.report.fix("reinitialized corrupt directory block %d of %s"
                                % (bno, path or "/"))
            return []

    def _entry(self, bno: int, path: str, name: str, is_dir: bool,
               child: Optional[dict], ref: int) -> None:
        """One name: count it, and walk what it names when new."""
        report = self.report
        inum = ref if child is None else None
        if inum is not None:
            child = self.table_inode(inum)
        if child is None or child["mode"] == MODE_FREE:
            what = "%s %s" % (
                "impossible" if child is None else "free",
                "embedded inode" if inum is None
                else "%s %d" % (self.noun, inum))
            report.error("%s: references %s" % (path, what))
            if self.repair:
                raw = bytearray(self.device.peek_block(bno))
                self.dirfmt.remove_entry(raw, name)
                self.device.poke_block(bno, bytes(raw))
                report.fix("removed dirent %r from block %d (%s)"
                           % (name, bno, what))
            return
        if inum is None:
            # An embedded inode has exactly the one name it lives in.
            if child["nlink"] != 1:
                report.error("%s: embedded inode with nlink %d"
                             % (path, child["nlink"]))
                if self.repair:
                    child["nlink"] = 1
                    self._patch(bno, ref, self.pack_inode(child))
                    report.fix("%s: embedded nlink set to 1" % path)
        else:
            self.names[inum] = self.names.get(inum, 0) + 1
            if self.names[inum] > 1:    # one more hard link
                if is_dir:
                    report.error("directory %s visited twice (cycle?)" % path)
                return
        self._inode(child, inum, path, is_dir)

    def _sweep_table(self) -> None:
        """Numbered inodes against the names the walk found.  The walk
        is authoritative: an allocated inode it never reached is an
        orphan (a crash between a synchronous inode write and its
        dirent, or after a name removal) and leaks, so repair collects
        it; a reached one must carry exactly the link count found."""
        report, noun = self.report, self.noun
        for inum in range(1, self.table_slots + 1):
            fields = self.table_inode(inum)
            if fields is None or fields["mode"] == MODE_FREE:
                continue
            found = self.names.get(inum, 0)
            bno, off = self.table_slot(inum)
            if not found:
                report.warn("%s %d allocated but unreachable (orphan)"
                            % (noun, inum))
                if self.repair:
                    self._patch(bno, off, bytes(self.slot_size))
                    report.fix("cleared orphan %s %d" % (noun, inum))
                    continue
            elif fields["nlink"] != found:
                report.error("%s %d: nlink %d but %d names found"
                             % (noun, inum, fields["nlink"], found))
                if self.repair:
                    fields["nlink"] = found
                    self._patch(bno, off, self.pack_inode(fields))
                    report.fix("%s %d: nlink set to %d" % (noun, inum, found))
            self.live.add(inum)

    def _check_groups(self) -> Tuple[int, int]:
        """Per cylinder group: the bitmap the walk implies against the
        one on disk, then the descriptor's free counts.  Returns the
        volume's (free blocks, free inodes)."""
        report, device, sb = self.report, self.device, self.sb
        bpc, data_start = sb["blocks_per_cg"], sb["data_start"]
        usable = self.usable
        claimed = self.claims.claims
        free_blocks = free_inodes = 0
        for cgi in range(sb["n_cgs"]):
            base = cylgroup.cg_base(cgi, bpc)
            bitmap_bno = cylgroup.bitmap_block(base)
            bitmap = device.peek_block(bitmap_bno)
            expected = cylgroup.fresh_bitmap(bpc, data_start, self.usable)
            for off in range(data_start, bpc):
                if base + off in claimed:
                    cylgroup.set_bit(expected, off)
            free_i = self.mark_group(cgi, base, expected, bitmap)
            want = cylgroup.run_bits(expected, data_start, usable)
            if expected != bitmap:
                # The data area as two integers: only the offsets where
                # they differ can have something to say, lowest first.
                have = cylgroup.run_bits(bitmap, data_start, usable)
                differ = want ^ have
                while differ:
                    low = differ & -differ
                    differ ^= low
                    bno = base + data_start + low.bit_length() - 1
                    if have & low:
                        report.warn(
                            "block %d marked used but unreferenced" % bno)
                    elif bno in claimed:    # else a kept group's spare slot
                        report.repair(
                            "block %d in use but free in bitmap" % bno)
                if self.repair:
                    device.poke_block(bitmap_bno, bytes(expected))
                    report.fix("cg %d: bitmap rebuilt" % cgi)

            # Free blocks the allocator's way: whatever the rebuilt
            # bitmap leaves clear (a kept group costs its whole span).
            free_b = usable - bin(want).count("1")
            desc_bno = cylgroup.descriptor_block(base)
            desc = flayout.unpack_cg(device.peek_block(desc_bno))
            if (desc["free_blocks"], desc["free_inodes"]) != (free_b, free_i):
                report.repair(
                    "cg %d: descriptor free counts (%d, %d) but walk says (%d, %d)"
                    % (cgi, desc["free_blocks"], desc["free_inodes"],
                       free_b, free_i))
                if self.repair:
                    device.poke_block(desc_bno, flayout.pack_cg(
                        free_b, free_i, desc["block_rotor"] % bpc,
                        desc["inode_rotor"] % max(self.inodes_per_cg, 1)))
                    report.fix("cg %d: descriptor rebuilt" % cgi)
            free_blocks += free_b
            free_inodes += free_i
        return free_blocks, free_inodes

    def _check_counters(self, free_blocks: int, free_inodes: int) -> None:
        """Superblock free counts and format counters, then the replica."""
        report, device, sb = self.report, self.device, self.sb
        want = {"free_blocks": free_blocks}
        if "free_inodes" in sb:
            want["free_inodes"] = free_inodes
        if any(sb[key] != value for key, value in want.items()):
            report.repair("superblock free counts %r but walk says %r"
                          % (tuple(sb[key] for key in want), tuple(want.values())))
            sb.update(want)
        self.mark_superblock()
        packed = self.pack_superblock()
        if self.repair and packed != device.peek_block(0):
            device.poke_block(0, packed)
            report.fix("superblock counters corrected")
        # The tail replica must mirror block 0.
        rb = flayout.replica_block(
            sb["total_blocks"], sb["n_cgs"], sb["blocks_per_cg"])
        if rb is not None and device.peek_block(rb) != device.peek_block(0):
            report.repair("superblock replica (block %d) is stale" % rb)
            if self.repair:
                device.poke_block(rb, device.peek_block(0))
                report.fix("superblock replica refreshed")


# ---------------------------------------------------------------------------
# FFS: numbered inodes in static per-group tables, name-only directories.
# ---------------------------------------------------------------------------

class _FFSWalk(_Walk):
    label = "ffs"
    MAGIC = flayout.FFS_MAGIC
    slot_size = flayout.INODE_SIZE

    def __init__(self, device, report, repair, sb) -> None:
        super().__init__(device, report, repair, sb)
        self.inodes_per_cg = sb["inodes_per_cg"]
        self.table_slots = sb["n_cgs"] * sb["inodes_per_cg"]
        self.usable = sb["blocks_per_cg"] - sb["data_start"]

    def pack_superblock(self) -> bytes:
        return flayout.pack_superblock(self.sb)

    def root(self):
        return self.table_inode(self.sb["root_inum"]), self.sb["root_inum"]

    def entries(self, block: bytes) -> Iterator[Entry]:
        for name, inum, kind in fdirfmt.live_entries(block):
            yield name, kind == flayout.DT_DIR, None, inum

    def identity(self, fields: dict, inum: Optional[int]) -> int:
        return inum

    def pack_inode(self, fields: dict) -> bytes:
        return flayout.pack_inode(*(fields[k] for k in BaseInode.__slots__))

    def table_slot(self, inum: int) -> Tuple[int, int]:
        cgi, within = divmod(inum - 1, self.inodes_per_cg)
        base = cylgroup.cg_base(cgi, self.sb["blocks_per_cg"])
        return (cylgroup.table_block(base, within // flayout.INODES_PER_BLOCK),
                within % flayout.INODES_PER_BLOCK * flayout.INODE_SIZE)

    def mark_group(self, cgi, base, expected, bitmap) -> int:
        """The group's inode bits: set for every allocated inode."""
        report, ipc, bpc = self.report, self.inodes_per_cg, self.sb["blocks_per_cg"]
        used = 0
        for idx in range(ipc):
            inum = cgi * ipc + idx + 1
            bit = cylgroup.inode_bit(bpc, idx)
            in_use = inum in self.live
            marked = cylgroup.bit_is_set(bitmap, bit)
            if in_use:
                cylgroup.set_bit(expected, bit)
                used += 1
                if not marked:
                    report.repair(
                        "inode %d in use but free in inode bitmap" % inum)
            elif marked:
                report.warn("inode %d marked allocated but unused" % inum)
        return ipc - used


def fsck_ffs(device: BlockDevice, repair: bool = False) -> FsckReport:
    """Check an FFS image; with ``repair=True`` also fix it."""
    return _FFSWalk.check(device, repair)


# ---------------------------------------------------------------------------
# C-FFS: inodes embedded in directory entries (the root's in the
# superblock), numbered ones in the external-inode file, and an extent
# descriptor table per group.
# ---------------------------------------------------------------------------

class _CFFSWalk(_Walk):
    label = "cffs"
    MAGIC = clayout.CFFS_MAGIC
    layout = clayout
    dirfmt = cdirfmt
    noun = "external inode"
    slot_size = SLOT_SIZE
    unpack_inode = staticmethod(clayout.unpack_cinode)

    def __init__(self, device, report, repair, sb) -> None:
        super().__init__(device, report, repair, sb)
        self.span = sb["group_span"] or clayout.GROUP_SPAN
        self.n_extents = (sb["blocks_per_cg"] - sb["data_start"]) // self.span
        self.usable = self.n_extents * self.span
        # The external-inode file is a file like any other, its inode
        # fields kept in the superblock.
        table = _walk_pointers(
            device,
            {"direct": sb["ext_direct"], "indirect": sb["ext_indirect"],
             "dindirect": sb["ext_dindirect"]},
            "ext-table", self.claims)
        self.table = table[:sb["ext_size"] // BLOCK_SIZE]
        self.table_slots = len(self.table) * SLOTS_PER_BLOCK

    def pack_superblock(self) -> bytes:
        return clayout.pack_superblock(
            self.sb, clayout.root_inode_bytes(self.device.peek_block(0)))

    def root(self):
        return clayout.unpack_cinode(
            clayout.root_inode_bytes(self.device.peek_block(0))), None

    def entries(self, block: bytes) -> Iterator[Entry]:
        for _sector, entry in cdirfmt.live_entries(block):
            _off, _reclen, etype, kind, name, payload_off = entry
            is_dir = kind == cdirfmt.DK_DIR
            if etype == cdirfmt.ET_EMBEDDED:
                embedded = block[payload_off:payload_off + clayout.CINODE_SIZE]
                yield name, is_dir, clayout.unpack_cinode(embedded), payload_off
            elif etype == cdirfmt.ET_EXTERNAL:
                yield name, is_dir, None, cdirfmt.entry_ident(block, payload_off)

    def identity(self, fields: dict, inum: Optional[int]) -> int:
        return fields["fileid"]

    def pack_inode(self, fields: dict) -> bytes:
        return clayout.pack_cinode(
            fields["fileid"], *(fields[k] for k in BaseInode.__slots__))

    def table_slot(self, inum: int) -> Tuple[int, int]:
        blk, slot = divmod(inum - 1, SLOTS_PER_BLOCK)
        return self.table[blk], slot * SLOT_SIZE

    def mark_superblock(self) -> None:
        # The next-fileid counter must clear every fileid in use, or the
        # remounted file system would mint duplicates.
        needed = max(self.idents) + 1
        if self.sb["next_fileid"] < needed:
            self.report.repair("next_fileid %d but fileid %d is in use"
                               % (self.sb["next_fileid"], needed - 1))
            self.sb["next_fileid"] = needed

    def mark_group(self, cgi, base, expected, bitmap) -> int:
        """The group's extent descriptors against the walk: every valid
        slot of a group is owned by the (file, offset) found at that
        block.  Kept groups own their whole span in the bitmap."""
        report, device, span = self.report, self.device, self.span
        claims, owners = self.claims.claims, self.owners
        data_start = self.sb["data_start"]
        free_desc = {"state": clayout.EXT_FREE, "valid_mask": 0, "owner": 0,
                     "slots": [(0, 0)] * clayout.GROUP_SPAN}
        gdt_new: Dict[int, bytearray] = {}
        for idx in range(self.n_extents):
            gdt_bno = cylgroup.table_block(base, idx // clayout.GDESC_PER_BLOCK)
            off = (idx % clayout.GDESC_PER_BLOCK) * clayout.GDESC_SIZE
            desc = clayout.unpack_gdesc_from(device.peek_block(gdt_bno), off)
            ext_base = base + data_start + idx * span
            claimed = [s for s in range(span) if (ext_base + s) in claims]

            if desc["state"] == clayout.EXT_GROUPED:
                for slot in range(span):
                    bno = ext_base + slot
                    owner = owners.get(bno)
                    if not desc["valid_mask"] & (1 << slot):
                        if owner is not None:
                            report.repair(
                                "block %d referenced by a file but its group slot is free"
                                % bno)
                    elif owner is None:
                        report.repair(
                            "group slot %d (block %d) valid but unreferenced"
                            % (slot, bno))
                    elif owner != desc["slots"][slot]:
                        report.repair(
                            "group slot %d (block %d): descriptor says %r, walk says %r"
                            % (slot, bno, desc["slots"][slot], owner))
            elif desc["state"] == clayout.EXT_FREE:
                for s in claimed:
                    report.repair(
                        "block %d allocated but its extent descriptor is free"
                        % (ext_base + s))
            elif desc["state"] != clayout.EXT_UNGROUPED:
                report.repair("extent (%d, %d): bad state %d"
                              % (cgi, idx, desc["state"]))

            # Rebuilt state: trust the walk.  An extent stays a group
            # only when everything in it belongs to files at known
            # offsets; otherwise it degrades to individually-allocated.
            if not claimed:
                new = (desc if desc["state"] == clayout.EXT_UNGROUPED
                       else free_desc)
            elif (desc["state"] == clayout.EXT_GROUPED
                    and all((ext_base + s) in owners for s in claimed)):
                slots = [(0, 0)] * clayout.GROUP_SPAN
                for s in claimed:
                    slots[s] = owners[ext_base + s]
                new = {"state": clayout.EXT_GROUPED,
                       "valid_mask": sum(1 << s for s in claimed),
                       "owner": desc["owner"], "slots": slots}
                for s in range(span):
                    cylgroup.set_bit(expected, data_start + idx * span + s)
            else:
                new = dict(free_desc, state=clayout.EXT_UNGROUPED)

            if self.repair and _canonical_desc(new, span) != _canonical_desc(desc, span):
                block = gdt_new.setdefault(
                    gdt_bno, bytearray(device.peek_block(gdt_bno)))
                block[off:off + clayout.GDESC_SIZE] = clayout.pack_gdesc(
                    new["state"], new["valid_mask"], new["owner"], new["slots"])
                report.fix("extent (%d, %d): descriptor rebuilt" % (cgi, idx))
        for gdt_bno, block in gdt_new.items():
            device.poke_block(gdt_bno, bytes(block))
        return 0


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


def fsck_cffs(device: BlockDevice, repair: bool = False) -> FsckReport:
    """Check a C-FFS image by walking the directory hierarchy; with
    ``repair=True`` also fix it."""
    return _CFFSWalk.check(device, repair)
