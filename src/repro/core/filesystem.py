"""C-FFS: embedded inodes and explicit grouping over the FFS substrate.

The two techniques are independently switchable, which produces the
paper's measured grid:

====================  =========================  =======================
configuration         inode placement            small-file data
====================  =========================  =======================
conventional          externalized inode file    rotationally spread
embedded only         in-directory               rotationally spread
grouping only         externalized inode file    explicit 16-block groups
C-FFS (both)          in-directory               explicit 16-block groups
====================  =========================  =======================

Operation costs under ``SYNC_METADATA``:

- create/delete with embedded inodes: **one** synchronous write (the
  name and inode share a sector, which a disk writes atomically);
- create/delete with external inodes: two synchronous writes, ordered
  like FFS (inode before name on create; name before inode on delete).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.blockdev.device import BlockDevice
from repro.core import directory as dirfmt
from repro.core import layout
from repro.core.extinodes import ExtInodeTable
from repro.core.groups import GroupTable
from repro.core.inode import CNode, LOC_DIR, LOC_EXT, LOC_SUPER
from repro.errors import (
    CorruptFileSystem,
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    IsADirectory,
    NotADirectory,
)
from repro.ffs import mapping
from repro.ffs.alloc import GroupedAllocator
from repro.ffs.base import BlockFileSystem, OrderToken, VolumeConfig
from repro.ffs.layout import NDIRECT
from repro.vfs.stat import StatResult

ROOT_FILEID = 1
FIRST_DYNAMIC_FILEID = 3  # 1 = root, 2 = external inode table

# What an embedded entry is inserted with before its node is packed over it.
_BLANK_INODE = bytes(layout.CINODE_SIZE)


@dataclass
class CFFSConfig(VolumeConfig):
    """Tunable parameters; the two booleans select the paper's grid
    (``small_file_spread`` applies when grouping is off)."""

    embedded_inodes: bool = True
    explicit_grouping: bool = True
    group_span: int = layout.GROUP_SPAN  # blocks per explicit group (<= 16)

    @property
    def gdt_blocks(self) -> int:
        """Blocks of group descriptors per cylinder group (self-consistent
        with the data area they describe)."""
        g = 1
        while True:
            extents = (self.blocks_per_cg - 2 - g) // self.group_span
            if g * layout.GDESC_PER_BLOCK >= extents:
                return g
            g += 1

    @property
    def data_start(self) -> int:
        return 2 + self.gdt_blocks

    @property
    def label(self) -> str:
        if self.embedded_inodes and self.explicit_grouping:
            return "cffs"
        if self.embedded_inodes:
            return "ffs+embed"
        if self.explicit_grouping:
            return "ffs+group"
        return "conventional"


class _HintContext:
    """A grouping owner created from an application hint.

    Duck-types the two attributes the group allocator reads from a
    directory handle: a stable ``fileid`` (drawn from the same counter
    as real files, so descriptors stay unambiguous) and a ``home_cg``
    locality preference.
    """

    __slots__ = ("fileid", "home_cg")

    def __init__(self, fileid: int, home_cg: int) -> None:
        self.fileid = fileid
        self.home_cg = home_cg


class _GroupContextManager:
    """Context manager pushing a hint onto the owning file system."""

    def __init__(self, fs: "CFFS", ctx: _HintContext) -> None:
        self._fs = fs
        self._ctx = ctx

    def __enter__(self) -> _HintContext:
        self._fs._hint_stack.append(self._ctx)
        return self._ctx

    def __exit__(self, *exc) -> None:
        popped = self._fs._hint_stack.pop()
        assert popped is self._ctx, "unbalanced group_context nesting"


class CFFS(BlockFileSystem):
    """The Co-locating Fast File System."""

    Config = CFFSConfig
    MAGIC = layout.CFFS_MAGIC
    SB_LABEL = "C-FFS superblock"
    unpack_superblock = staticmethod(layout.unpack_superblock)
    dirfmt = dirfmt

    def __init__(self, device: BlockDevice, config: CFFSConfig) -> None:
        super().__init__(device, config)
        self.name = config.label
        if config.explicit_grouping:
            self.file_spread = 0  # ungrouped first blocks go to the rotor
        self.groups: GroupTable = None       # type: ignore[assignment]
        self.ext = ExtInodeTable(self)
        self._root: Optional[CNode] = None
        self._hint_contexts: Dict[str, _HintContext] = {}
        self._hint_stack: List[_HintContext] = []

    # ------------------------------------------------------------------ mkfs/mount

    def _usable_per_cg(self) -> int:
        """Data blocks per cylinder group: whole extents only."""
        config = self.config
        data_area = config.blocks_per_cg - config.data_start
        return (data_area // config.group_span) * config.group_span

    def _superblock_fields(self, n_cgs: int) -> dict:
        config = self.config
        return {
            "gdt_blocks": config.gdt_blocks,
            "data_start": config.data_start,
            "group_span": config.group_span,
            "config_flags": (
                (layout.SBF_EMBEDDED_INODES if config.embedded_inodes else 0)
                | (layout.SBF_EXPLICIT_GROUPING if config.explicit_grouping else 0)
            ),
            "next_fileid": FIRST_DYNAMIC_FILEID,
            "next_gen": 1,
            "free_blocks": n_cgs * self._usable_per_cg(),
            "ext_size": 0,
            "ext_direct": [0] * NDIRECT,
            "ext_indirect": 0,
            "ext_dindirect": 0,
        }

    def _init_volume(self, n_cgs: int) -> None:
        # Blocks past the last whole extent are unusable.
        self.alloc.format_groups(n_cgs, self._usable_per_cg(),
                                 self.config.gdt_blocks)
        self._adopt_root(
            CNode(ROOT_FILEID, layout.MODE_DIR, 1, self.device.clock.now))

    def _adopt_root(self, root: CNode) -> None:
        root.loc = (LOC_SUPER,)
        root.home_cg = 0
        self._root = root
        self._icache[ROOT_FILEID] = root

    @classmethod
    def _config_from_superblock(cls, sb: dict) -> CFFSConfig:
        return CFFSConfig(
            blocks_per_cg=sb["blocks_per_cg"],
            group_span=sb["group_span"] or layout.GROUP_SPAN,
            embedded_inodes=bool(sb["config_flags"] & layout.SBF_EMBEDDED_INODES),
            explicit_grouping=bool(sb["config_flags"] & layout.SBF_EXPLICIT_GROUPING),
        )

    def _check_geometry(self, sb: dict) -> None:
        config = self.config
        if sb["blocks_per_cg"] != config.blocks_per_cg:
            raise CorruptFileSystem("superblock geometry disagrees with config")
        if sb["group_span"] != config.group_span:
            raise CorruptFileSystem(
                "superblock group span %d disagrees with config %d"
                % (sb["group_span"], config.group_span)
            )

    def _load_root(self, raw_sb: bytes) -> None:
        self._adopt_root(CNode.unpack(raw_sb, layout.SB_ROOT_INODE_OFFSET))

    def _pack_superblock(self) -> bytearray:
        image = layout.superblock_image(self.sb)
        self._root_handle().pack_into(image, layout.SB_ROOT_INODE_OFFSET)
        return image

    def _build_allocator(self) -> None:
        sb = self.sb
        self.alloc = GroupedAllocator(
            self.cache,
            n_cgs=sb["n_cgs"],
            blocks_per_cg=sb["blocks_per_cg"],
            inodes_per_cg=0,
            data_start=sb["data_start"],
            cg_base_of=self.cg_base,
            counts=sb,
        )
        self.groups = GroupTable(
            self.cache,
            n_cgs=sb["n_cgs"],
            blocks_per_cg=sb["blocks_per_cg"],
            gdt_blocks=sb["gdt_blocks"],
            data_start=sb["data_start"],
            cg_base_of=self.cg_base,
            span=self.config.group_span,
        )

    def _next_fileid(self) -> int:
        fid = self.sb["next_fileid"]
        self.sb["next_fileid"] = fid + 1
        return fid

    # ------------------------------------------------------------------ inode persistence

    def _file_id(self, handle: CNode) -> int:
        return handle.fileid

    def _metadata_block_of(self, handle: CNode) -> int:
        tag = handle.loc[0]
        if tag == LOC_SUPER:
            return 0
        if tag == LOC_DIR:
            _, parent, blk, _eo, _po = handle.loc
            return self._dir_block_bno(parent, blk)
        inum = handle.loc[1]
        bno, _blk, _off = self.ext._locate(inum)
        return bno

    def _fsync_metadata(self, handle: CNode) -> int:
        """Persist the whole embedding chain.

        An embedded inode lives in its parent directory's data block,
        whose own (embedded) inode may carry not-yet-written updates
        (size, block pointers), and so on up to the superblock.  A
        C-FFS fsync therefore makes the *name* durable too — the
        atomicity property, applied to write-back.
        """
        nreq = 0
        chain: List[int] = []
        node: Optional[CNode] = handle
        while node is not None:
            chain.append(self._metadata_block_of(node))
            nreq += self.cache.flush_blocks([chain[-1]])
            if node.loc[0] == LOC_DIR:
                node = node.loc[1]
            elif node.loc[0] == LOC_EXT:
                # External table pointers live in the superblock.
                chain.append(0)
                nreq += self.cache.flush_blocks([0])
                node = None
            else:
                node = None
        if self.cache.write_pipeline is not None:
            # A write pipeline may have deferred chain blocks behind
            # their ordering dependencies; fsync must stay a durability
            # barrier, so sync the dependency graph to completion.
            for bno in chain:
                buf = self.cache.peek(bno)
                if buf is not None and buf.dirty:
                    nreq += self.cache.sync()
                    break
        return nreq

    def _istore(self, handle: CNode, sync_op: bool = False,
                requires: Tuple = ()) -> OrderToken:
        tag = handle.loc[0]
        if tag == LOC_SUPER:
            return self._store_superblock(sync_op, requires)
        if tag == LOC_DIR:
            _, parent, blk, _entry_off, payload_off = handle.loc
            bno = self._dir_block_bno(parent, blk)
            handle.pack_into(
                self.cache.get(bno, logical=(parent.fileid, blk)).data, payload_off)
            if sync_op:
                return self._meta_write(bno, requires)
            self.cache.mark_dirty(bno)
            return None
        if tag == LOC_EXT:
            return self.ext.store(handle.loc[1], handle, sync=sync_op,
                                  requires=requires)
        raise CorruptFileSystem(  # pragma: no cover - defensive
            "inode with unknown location %r" % (handle.loc,))

    # ------------------------------------------------------------------ application hints

    def group_context(self, tag: str) -> "_GroupContextManager":
        """Group files by application hint instead of by directory.

        The paper's discussion (§6) proposes "extensions to the file
        system interface to allow this information to be passed to the
        file system", e.g. "to group files that make up a single
        hypertext document" [Kaashoek96].  Inside the context, small
        files written through this file system place their data in
        groups owned by the *tag* rather than by their naming
        directory, so one document's files co-locate even when its
        names are spread across directories::

            with fs.group_context("doc:index"):
                fs.write_file("/pages/index.html", html)
                fs.write_file("/images/logo.gif", logo)

        Hints affect placement only; naming, integrity and recovery are
        untouched (fsck verifies slot ownership against the files, not
        against directories).  Contexts nest; the innermost wins.
        """
        ctx = self._hint_contexts.get(tag)
        if ctx is None:
            ctx = _HintContext(self._next_fileid(), self._pick_dir_cg())
            self._hint_contexts[tag] = ctx
        return _GroupContextManager(self, ctx)

    # ------------------------------------------------------------------ allocation hooks

    def _owner_dir(self, handle: CNode) -> Optional[CNode]:
        if self._hint_stack:
            return self._hint_stack[-1]
        if handle.loc[0] == LOC_DIR:
            return handle.loc[1]
        return handle.owner_dir

    def _alloc_data_block(self, handle: CNode, idx: int) -> int:
        grouping = (
            self.config.explicit_grouping
            and handle.is_file
            and not handle.is_large
        )
        if grouping and idx >= NDIRECT:
            # The file just outgrew grouping (grouped blocks are always
            # direct): migrate and fall through.
            self._ungroup_file(handle)
            grouping = False
        if grouping:
            owner = self._owner_dir(handle)
            if owner is not None:
                bno = self._alloc_grouped(owner, handle, idx)
                if bno is not None:
                    return bno
        return self._alloc_ungrouped(handle, idx)

    def _alloc_grouped(self, owner: CNode, handle: CNode, idx: int) -> Optional[int]:
        ext = self.groups.active_extent(owner.fileid)
        if ext is not None:
            bno = self.groups.take_slot(ext, handle.fileid, idx)
            if bno is not None:
                return bno
        span = self.config.group_span
        start = self.alloc.alloc_contiguous(owner.home_cg, span, align=span)
        if start is None:
            return None
        ext = self.groups.extent_of_block(start)
        if ext is None or self.groups.extent_base(ext) != start:
            raise CorruptFileSystem("contiguous run %d is not extent-aligned" % start)
        self.groups.claim_extent(ext, owner.fileid)
        bno = self.groups.take_slot(ext, handle.fileid, idx)
        if bno is None:  # pragma: no cover - fresh extent always has slots
            raise CorruptFileSystem("fresh extent has no free slot")
        return bno

    def _alloc_ungrouped(self, handle: CNode, idx: int) -> int:
        bno = self._alloc_conventional(handle, idx)
        self.groups.note_ungrouped_alloc(bno)
        return bno

    def _home_cg(self, handle: CNode) -> int:
        return handle.home_cg

    def _may_follow(self, prev_bno: int) -> bool:
        return not self._block_is_grouped(prev_bno)

    def _alloc_meta_block(self, handle: CNode) -> int:
        bno = self.alloc.alloc_block(
            handle.home_cg, pref_offset=self.sb["data_start"])
        self.groups.note_ungrouped_alloc(bno)
        return bno

    def _alloc_ext_table_block(self) -> int:
        bno = self.alloc.alloc_block(0, pref_offset=self.sb["data_start"])
        self.groups.note_ungrouped_alloc(bno)
        return bno

    def _block_is_grouped(self, bno: int) -> bool:
        ext = self.groups.extent_of_block(bno)
        if ext is None:
            return False
        return self.groups.read_head(ext)[0] == layout.EXT_GROUPED

    def _free_file_block(self, handle: CNode, bno: int) -> None:
        ext = self.groups.extent_of_block(bno)
        if ext is not None:
            state, valid_mask, _owner = self.groups.read_head(ext)
            slot = bno - self.groups.extent_base(ext)
            if state == layout.EXT_GROUPED and valid_mask & (1 << slot):
                if self.groups.free_slot(bno):  # the group emptied
                    self.alloc.free_contiguous(
                        self.groups.extent_base(ext), self.config.group_span)
                return
        self.alloc.free_block(bno)
        self.groups.note_ungrouped_free(bno, self.alloc.run_is_free)

    def _ungroup_file(self, handle: CNode) -> None:
        """Move a growing file's blocks out of explicit groups.

        Placement of large files "remains unchanged and should exploit
        clustering technology": the migrated blocks land in a
        contiguous run when one is available.
        """
        grouped: List[Tuple[int, int]] = []
        for idx, bno in mapping.enumerate_blocks(self.cache, handle):
            ext = self.groups.extent_of_block(bno)
            if ext is None:
                continue
            state, valid_mask, _owner = self.groups.read_head(ext)
            slot = bno - self.groups.extent_base(ext)
            if state == layout.EXT_GROUPED and valid_mask & (1 << slot):
                grouped.append((idx, bno))
        fid = handle.fileid
        for idx, old_bno in grouped:
            data = bytes(self.cache.get(old_bno, logical=(fid, idx)).image)
            self.cache.forget(old_bno)
            new_bno = self._alloc_ungrouped(handle, idx if idx else 0)
            self.cache.create(new_bno, logical=(fid, idx), image=data)
            self.cache.mark_dirty(new_bno)
            handle.direct[idx] = new_bno  # grouped blocks are always direct
            self._free_file_block(handle, old_bno)
        handle.mark_large()
        self._istore(handle, sync_op=False)

    # ------------------------------------------------------------------ maintenance

    def regroup_directory(self, path: str) -> int:
        """Re-co-locate a directory's small files into fresh groups.

        Aging leaves groups with internal holes and files scattered
        across half-empty extents.  This maintenance pass (the grouping
        analogue of a log cleaner) walks the directory in name order,
        copies each small file's blocks into freshly-claimed extents,
        and releases the old slots.  Returns the number of blocks
        moved.  Costs real (simulated) I/O: every moved block is read
        and rewritten.

        Stops early (without error) when no whole free extent remains.
        """
        self.cpu.charge_syscall()
        dirh = self._resolve(path)
        if not dirh.is_dir:
            raise NotADirectory("%r is not a directory" % path)
        if not self.config.explicit_grouping:
            return 0
        index = self._complete_index(dirh)
        nodes = []
        for name in sorted(index.names):
            node = self._lookup(dirh, name)
            if node.is_file and not node.is_large:
                nodes.append(node)

        span = self.config.group_span
        plan: List[Tuple[CNode, int, int]] = []
        for node in nodes:
            for idx in range(NDIRECT):
                if node.direct[idx]:
                    plan.append((node, idx, node.direct[idx]))
        if not plan:
            return 0

        # Claim every target extent up front so freshly-freed old
        # extents cannot interleave with the new layout.
        needed = -(-len(plan) // span)
        extents = []
        for _ in range(needed):
            start = self.alloc.alloc_contiguous(dirh.home_cg, span, align=span)
            if start is None:
                break  # partial regroup with what is available
            ext = self.groups.extent_of_block(start)
            self.groups.claim_extent(ext, dirh.fileid)
            extents.append(ext)
        if not extents:
            return 0

        moved = 0
        ext_iter = iter(extents)
        ext = next(ext_iter)
        touched = set()
        for node, idx, old in plan:
            fid = node.fileid
            new = self.groups.take_slot(ext, fid, idx)
            if new is None:
                nxt = next(ext_iter, None)
                if nxt is None:
                    break  # ran out of pre-claimed extents
                ext = nxt
                new = self.groups.take_slot(ext, fid, idx)
            data = bytes(self.cache.get(old, logical=(fid, idx)).image)
            self.cache.forget(old)
            self.cache.create(new, logical=(fid, idx), image=data)
            self.cache.mark_dirty(new)
            node.direct[idx] = new
            self._free_file_block(node, old)
            touched.add(node.fileid)
            moved += 1
        for node in nodes:
            if node.fileid in touched:
                self._istore(node, sync_op=False)
        return moved

    # ------------------------------------------------------------------ group-aware I/O

    def _fetch_data_blocks(self, handle: CNode, pairs: List[Tuple[int, int]]) -> None:
        if not self.config.explicit_grouping:
            super()._fetch_data_blocks(handle, pairs)
            return
        singles: List[Tuple[int, int]] = []
        fetched_extents = set()
        slot_record = layout.GDESC_SLOT.unpack_from
        slot_offset = layout.GDESC_SLOT_OFFSET
        for idx, bno in pairs:
            if self.cache.peek(bno) is not None:
                continue
            ext = self.groups.extent_of_block(bno)
            if ext is None:
                singles.append((idx, bno))
                continue
            if ext in fetched_extents:
                continue
            span = self.groups.live_span(ext)
            if span is None:
                singles.append((idx, bno))
                continue
            start, count, mask, image, off = span
            # The paper's key mechanism: a grouped extent is fetched as
            # one large request for bandwidth, then installed into the
            # cache (which remains the source of truth) in one batch.
            if obs.enabled():
                with obs.span("fs", "group_fetch", extent=ext, blocks=count):
                    data = self.cache.device.read_extent(start, count)  # reprolint: disable=L001 -- grouped extent fetch is the one sanctioned boundary read below the cache
            else:
                data = self.cache.device.read_extent(start, count)  # reprolint: disable=L001 -- grouped extent fetch is the one sanctioned boundary read below the cache
            base = self.groups.extent_base(ext)
            # Choose the slots before the install: placing a block can
            # evict a dirty sibling of this extent (written back
            # correctly), and re-installing that sibling from ``data`` —
            # read before the write-back — would serve its old bytes.
            # A slot that is dirty now is newer than ``data``; skip it.
            # ``live_span`` covers every valid slot, so the walk visits
            # the set bits of the mask only.
            installs = []
            while mask:
                low = mask & -mask
                mask ^= low
                slot = low.bit_length() - 1
                block = base + slot
                cached = self.cache.peek(block)
                if cached is None or not cached.dirty:
                    installs.append((block, data[block - start], slot_record(
                        image, off + slot_offset[slot])))
            self.cache.install(installs)
            fetched_extents.add(ext)
        if singles:
            super()._fetch_data_blocks(handle, singles)

    def _flush_companions(self, victim_bno: int) -> List[int]:
        """A dirty group leaves the cache as a unit, whether or not its
        descriptor is cached: a cached descriptor names the valid slots
        of a group (or says the extent is none: same-file clustering);
        a cold one leaves the decision to geometry — the whole aligned
        extent, of which the cache writes the blocks that are dirty."""
        ext = self.groups.extent_of_block(victim_bno)
        if ext is not None and self.config.explicit_grouping:
            head = self.groups.read_head_cached(ext)
            base = self.groups.extent_base(ext)
            if head is None:
                return (list(range(base, base + self.config.group_span))
                        + super()._flush_companions(victim_bno))
            state, valid_mask, _owner = head
            if state == layout.EXT_GROUPED:
                return [base + s for s in range(self.config.group_span)
                        if valid_mask & (1 << s)]
        return super()._flush_companions(victim_bno)  # same-file clustering

    # ------------------------------------------------------------------ directories

    def _dir_insert(
        self, dirh: CNode, name: str, etype: int, kind: int, payload,
        requires: Tuple,
    ) -> Tuple[int, int, int, OrderToken]:
        """Insert an entry and perform the block's policy write (after
        ``requires``); returns (blk, entry_off, payload_off, token of
        the write).  ``payload`` is the node an embedded entry carries,
        packed straight into the block, or an external entry's 8-byte
        reference.

        The directory's own inode is stored after the policy write has
        marked the block dirty: that store can read another block, and
        a read that evicted the edited block while it was still clean
        would lose the entry.
        """
        index = self._complete_index(dirh)
        namelen = len(name.encode("utf-8"))
        needed = layout.dent_size(namelen, etype)
        target = index.first_fit(needed)  # first-fit in sector scan order
        if target is None:
            target = (self._grow_directory(dirh), 0)
        blk, sector = target
        bno = self._dir_block_bno(dirh, blk)
        buf = self.cache.get(bno, logical=(dirh.fileid, blk))
        embedded = etype == dirfmt.ET_EMBEDDED
        # reprolint: disable=J001 -- add_entry mutates only when it returns (payload offset, the sector's new free count); the None path raises over an untouched sector
        added = dirfmt.add_entry(buf.data, sector, name, etype, kind,
                                 _BLANK_INODE if embedded else payload)
        if added is None:
            raise CorruptFileSystem("sector free-space accounting disagrees")
        payload_off, free = added
        if embedded:
            payload.pack_into(buf.data, payload_off)
        index.set_free((blk, sector), free)
        ident = dirfmt.entry_ident(buf.image, payload_off)
        # The entry layout is header, padded name, payload, so the
        # entry offset falls straight out of the payload offset.
        entry_off = payload_off - layout.DENT_HEADER_SIZE - layout._pad(namelen)
        index.names[name] = (etype, kind, blk, entry_off, payload_off, ident)
        dirh.mtime = self.device.clock.now
        token = self._meta_write(bno, requires)
        self._istore(dirh, sync_op=False)
        return blk, entry_off, payload_off, token

    def _dir_remove(self, dirh: CNode, name: str, info: tuple,
                    requires: Tuple) -> OrderToken:
        """Remove ``name``, whose index entry is ``info``, and perform
        the block's policy write (after ``requires``); returns its
        token.  Only the sector the entry's offset names is walked.  As
        in :meth:`_dir_insert`, the directory's inode is stored after
        the write."""
        index = self._index_for(dirh)
        _etype, _kind, blk, entry_off, _payload_off, _ident = info
        bno = self._dir_block_bno(dirh, blk)
        buf = self.cache.get(bno, logical=(dirh.fileid, blk))
        sector = entry_off // layout.SECTOR_SIZE
        # reprolint: disable=J001 -- remove_from_sector mutates only when it returns the freed room; the None path raises over an untouched sector
        freed = dirfmt.remove_from_sector(buf.data, sector, name)
        if freed is None:
            raise CorruptFileSystem("index and block disagree on %r" % name)
        # A removal grows one record and shrinks none.
        slot = (blk, sector)
        index.set_free(slot, max(index.free[slot], freed))
        del index.names[name]
        dirh.mtime = self.device.clock.now
        token = self._meta_write(bno, requires)
        self._istore(dirh, sync_op=False)
        return token

    # ------------------------------------------------------------------ VFS internals

    def _root_handle(self) -> CNode:
        assert self._root is not None
        return self._root

    @obs.traced("fs", "lookup", lambda self, dirh, name: {
        "name": name, "embedded": self.config.embedded_inodes})
    def _lookup(self, dirh: CNode, name: str) -> Optional[CNode]:
        # A warm index answers in one probe; only a cold one is scanned.
        index = self._dir_index.get(dirh.fileid)
        info = index.names.get(name) if index is not None else None
        if info is None and (index is None or not index.complete):
            info = self._find_entry(dirh, name)
        return self._node_at(dirh, info) if info is not None else None

    @obs.traced("fs", "lookup", lambda self, dirh, name, info: {
        "name": name, "embedded": self.config.embedded_inodes})
    def _named_node(self, dirh: CNode, name: str, info: tuple) -> CNode:
        """The node of ``name``, whose index entry is ``info``: what a
        lookup of ``name`` returns, under the span a lookup opens."""
        return self._node_at(dirh, info)

    def _node_at(self, dirh: CNode, info: tuple) -> CNode:
        """The node an index entry of ``dirh`` names."""
        etype, _kind, blk, entry_off, payload_off, ident = info
        if etype == dirfmt.ET_EMBEDDED:
            node = self._icache.get(ident)
            if node is None:
                bno = self._dir_block_bno(dirh, blk)
                node = CNode.unpack(
                    self.cache.get(bno, logical=(dirh.fileid, blk)).image, payload_off)
                node.loc = (LOC_DIR, dirh, blk, entry_off, payload_off)
                node.home_cg = dirh.home_cg
                self._icache[node.fileid] = node
            return node
        # External entry: ident is the external inode number.
        return self._ext_cache_get(ident, dirh)

    def _ext_cache_get(self, inum: int, naming_dir: Optional[CNode] = None) -> CNode:
        node = self.ext.get(inum)
        cached = self._icache.get(node.fileid)
        if cached is not None:
            node = cached
        else:
            self._icache[node.fileid] = node
        if naming_dir is not None and node.owner_dir is None:
            node.owner_dir = naming_dir
            node.home_cg = naming_dir.home_cg
        return node

    def _create_file(self, dirh: CNode, name: str) -> CNode:
        return self._create_node(dirh, name, layout.MODE_FILE, dirfmt.DK_FILE)

    def _make_directory(self, dirh: CNode, name: str) -> CNode:
        node = self._create_node(dirh, name, layout.MODE_DIR, dirfmt.DK_DIR)
        node.home_cg = self._pick_dir_cg()
        return node

    @obs.traced("fs", "create_node", lambda self, dirh, name, mode, kind: {
        "name": name, "embedded": self.config.embedded_inodes})
    def _create_node(self, dirh: CNode, name: str, mode: int, kind: int) -> CNode:
        index = self._complete_index(dirh)
        if name in index.names:
            raise FileExists("%r already exists" % name)
        node = CNode(self._next_fileid(), mode, self._next_gen(),
                     self.device.clock.now)
        node.home_cg = dirh.home_cg
        node.owner_dir = dirh
        if self.config.embedded_inodes:
            # The single ordering write.
            blk, entry_off, payload_off, _token = self._dir_insert(
                dirh, name, dirfmt.ET_EMBEDDED, kind, node, ())
            node.loc = (LOC_DIR, dirh, blk, entry_off, payload_off)
        else:
            inum, init_token = self.ext.allocate(node, sync=True)  # inode before name
            self._dir_insert(dirh, name, dirfmt.ET_EXTERNAL, kind,
                             struct.pack("<Q", inum), (init_token,))
        self._icache[node.fileid] = node
        return node

    @obs.traced("fs", "unlink_node", lambda self, dirh, name: {
        "name": name, "embedded": self.config.embedded_inodes})
    def _unlink(self, dirh: CNode, name: str) -> None:
        info = self._find_entry(dirh, name)
        if info is None:
            raise FileNotFound("no entry %r" % name)
        etype, kind, _blk, _eo, _po, ident = info
        if kind == dirfmt.DK_DIR:
            raise IsADirectory("%r is a directory (use rmdir)" % name)
        if etype == dirfmt.ET_EMBEDDED:
            node = self._named_node(dirh, name, info)
            # Name + inode (and with it every block pointer) vanish
            # atomically; freed blocks stay quarantined until the
            # removal is on disk.
            rm_token = self._dir_remove(dirh, name, info, ())
            freed = self._release_all_blocks(node)
            self._gate_freed_blocks(freed, rm_token)
            self._icache.pop(node.fileid, None)
        else:
            node = self._ext_cache_get(ident)
            rm_token = self._dir_remove(dirh, name, info, ())  # name removal first
            node.nlink -= 1
            self.ext.store(ident, node, sync=True,  # dropped link count
                           requires=(rm_token,))
            if node.nlink == 0:
                freed = self._release_all_blocks(node)
                # "Inactive"-time reclamation writes the slot once more,
                # matching the 4.4BSD unlink sequence the baseline pays.
                clear_token = self.ext.free(ident, sync=True,
                                            requires=(rm_token,))
                self._gate_freed_blocks(freed, clear_token)
                self._icache.pop(node.fileid, None)

    def _rmdir(self, dirh: CNode, name: str) -> None:
        info = self._find_entry(dirh, name)
        if info is None:
            raise FileNotFound("no entry %r" % name)
        if info[1] != dirfmt.DK_DIR:
            raise NotADirectory("%r is not a directory" % name)
        victim = self._named_node(dirh, name, info)
        victim_index = self._complete_index(victim)
        if victim_index.names:
            raise DirectoryNotEmpty("%r is not empty" % name)
        rm_token = self._dir_remove(dirh, name, info, ())
        freed = self._release_all_blocks(victim)
        self._gate_freed_blocks(freed, rm_token)
        self._icache.pop(victim.fileid, None)
        self._dir_index.pop(victim.fileid, None)

    def _link(self, handle: CNode, dirh: CNode, name: str) -> None:
        index = self._complete_index(dirh)
        if name in index.names:
            raise FileExists("%r already exists" % name)
        if handle.loc[0] == LOC_DIR:
            self._externalize(handle)
        if handle.loc[0] == LOC_SUPER:
            raise IsADirectory("cannot hard-link the root")
        inum = handle.loc[1]
        handle.nlink += 1
        link_token = self.ext.store(inum, handle, sync=True)
        self._dir_insert(dirh, name, dirfmt.ET_EXTERNAL, dirfmt.DK_FILE,
                         struct.pack("<Q", inum), (link_token,))

    def _externalize(self, handle: CNode) -> None:
        """Move an embedded inode to the external table (second link)."""
        _, parent, blk, entry_off, _payload_off = handle.loc
        inum, ext_token = self.ext.allocate(handle, sync=True)  # external copy first
        bno = self._dir_block_bno(parent, blk)
        buf = self.cache.get(bno, logical=(parent.fileid, blk))
        new_payload_off, freed = dirfmt.change_entry_type(
            buf.data, entry_off, dirfmt.ET_EXTERNAL, struct.pack("<Q", inum)
        )
        self._meta_write(bno, requires=(ext_token,))
        handle.loc = (LOC_EXT, inum)
        # Refresh the directory's index entry.
        pindex = self._dir_index.get(parent.fileid)
        if pindex is not None:
            for name, info in list(pindex.names.items()):
                if info[2] == blk and info[3] == entry_off:
                    pindex.names[name] = (
                        dirfmt.ET_EXTERNAL, info[1], blk, entry_off,
                        new_payload_off, inum,
                    )
                    # The smaller payload grows this one record's room.
                    slot = (blk, entry_off // layout.SECTOR_SIZE)
                    pindex.set_free(slot, max(pindex.free[slot], freed))
                    break

    def _rename(self, src_dir: CNode, old: str, dst_dir: CNode, new: str) -> None:
        info = self._find_entry(src_dir, old)
        if info is None:
            raise FileNotFound("no entry %r" % old)
        etype, kind, _blk, _eo, _po, ident = info
        node = self._named_node(src_dir, old, info)
        dst_index = self._complete_index(dst_dir)
        existing = dst_index.names.get(new)
        if existing is not None:
            if existing[5] == ident and existing[0] == etype:
                return
            if kind == dirfmt.DK_FILE and existing[1] == dirfmt.DK_FILE:
                self._unlink(dst_dir, new)
            else:
                raise FileExists("%r already exists" % new)
        payload = node if etype == dirfmt.ET_EMBEDDED else struct.pack("<Q", ident)
        # New name first, then old-name removal.
        blk, entry_off, payload_off, add_token = self._dir_insert(
            dst_dir, new, etype, kind, payload, ())
        if etype == dirfmt.ET_EMBEDDED:
            node.loc = (LOC_DIR, dst_dir, blk, entry_off, payload_off)
            node.home_cg = dst_dir.home_cg
        self._dir_remove(src_dir, old, info, (add_token,))
        if node.is_dir:
            self._dir_index.pop(node.fileid, None)

    def _stat_handle(self, handle: CNode) -> StatResult:
        return super()._stat_handle(
            handle, embedded=handle.loc[0] in (LOC_DIR, LOC_SUPER))

    def _data_grouped(self, handle: CNode) -> bool:
        if handle.is_file and handle.direct[0]:
            return self._block_is_grouped(handle.direct[0])
        return False

    def _pick_dir_cg(self) -> int:
        return max(range(self.sb["n_cgs"]),
                   key=lambda c: self.alloc.group(c).free_blocks)

    # ------------------------------------------------------------------ sync & caches

    def _drop_private_caches(self) -> None:
        super()._drop_private_caches()
        self.groups.drop_hints()
        self.ext.drop_hints()
        if self._root is not None:
            self._icache[ROOT_FILEID] = self._root

    # ------------------------------------------------------------------ introspection

    def total_data_blocks(self) -> int:
        return self.sb["n_cgs"] * self._usable_per_cg()


#: Convenience factory: a fresh C-FFS on a fresh simulated disk
#: (``make_cffs(config=None)``).
make_cffs = CFFS.fresh
