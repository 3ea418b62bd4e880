"""Explicit-grouping machinery: extent descriptors and slot management.

The data area of every cylinder group is carved into aligned extents of
``GROUP_SPAN`` (16) blocks.  A 256-byte descriptor per extent — stored
in the group-descriptor table blocks right after the bitmap — records
whether the extent is FREE, an explicit GROUP owned by one directory
(with per-slot (fileid, file-block) ownership), or UNGROUPED (its
blocks are individually allocated to large files or metadata).

Descriptors are read and written through the buffer cache, so the
cache is the single source of truth and descriptor updates are ordinary
delayed metadata writes (descriptors are a placement/performance map;
the authoritative reachability data stays in the inodes).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.cache.buffercache import BufferCache
from repro.core.layout import (
    EXT_FREE,
    EXT_GROUPED,
    EXT_UNGROUPED,
    GDESC_PER_BLOCK,
    GDESC_SIZE,
    GROUP_SPAN,
    pack_gdesc,
    unpack_gdesc_from,
)
from repro.errors import CorruptFileSystem
from repro.ffs.cylgroup import table_block

ExtentId = Tuple[int, int]  # (cylinder group, extent index within its data area)


class GroupTable:
    """Access to extent descriptors plus per-directory placement hints."""

    def __init__(
        self,
        cache: BufferCache,
        n_cgs: int,
        blocks_per_cg: int,
        gdt_blocks: int,
        data_start: int,
        cg_base_of,
        span: int = GROUP_SPAN,
    ) -> None:
        if not 1 <= span <= GROUP_SPAN:
            raise ValueError("group span must be within [1, %d]" % GROUP_SPAN)
        self.cache = cache
        self.n_cgs = n_cgs
        self.blocks_per_cg = blocks_per_cg
        self.gdt_blocks = gdt_blocks
        self.data_start = data_start
        self._cg_base_of = cg_base_of
        self.span = span
        self.extents_per_cg = (blocks_per_cg - data_start) // span
        # In-memory hint: directory fileid -> extent with free slots.
        self._active: Dict[int, ExtentId] = {}

    # -- geometry ---------------------------------------------------------------

    def extent_of_block(self, bno: int) -> Optional[ExtentId]:
        """The extent containing ``bno``; None for metadata blocks."""
        if bno < self._cg_base_of(0):
            return None
        cgi = (bno - self._cg_base_of(0)) // self.blocks_per_cg
        if cgi >= self.n_cgs:
            return None
        rel = bno - self._cg_base_of(cgi) - self.data_start
        if rel < 0:
            return None
        idx = rel // self.span
        if idx >= self.extents_per_cg:
            return None
        return cgi, idx

    def extent_base(self, ext: ExtentId) -> int:
        cgi, idx = ext
        return self._cg_base_of(cgi) + self.data_start + idx * self.span

    def _desc_location(self, ext: ExtentId) -> Tuple[int, int]:
        cgi, idx = ext
        bno = table_block(self._cg_base_of(cgi), idx // GDESC_PER_BLOCK)
        return bno, (idx % GDESC_PER_BLOCK) * GDESC_SIZE

    # -- descriptor I/O -----------------------------------------------------------

    def read_desc(self, ext: ExtentId) -> dict:
        bno, off = self._desc_location(ext)
        buf = self.cache.get(bno)
        return unpack_gdesc_from(buf.image, off)

    def read_desc_cached(self, ext: ExtentId) -> Optional[dict]:
        """Like :meth:`read_desc` but never touches the disk or the
        cache's state; None when the descriptor block is not cached
        (used by flush gathering, which runs inside an eviction)."""
        bno, off = self._desc_location(ext)
        buf = self.cache.peek(bno)
        if buf is None:
            return None
        return unpack_gdesc_from(buf.image, off)

    def write_desc(self, ext: ExtentId, desc: dict) -> None:
        bno, off = self._desc_location(ext)
        buf = self.cache.get(bno)
        buf.data[off:off + GDESC_SIZE] = pack_gdesc(
            desc["state"], desc["valid_mask"], desc["owner"], desc["slots"]
        )
        self.cache.mark_dirty(bno)

    # -- state transitions ----------------------------------------------------------

    def note_ungrouped_alloc(self, bno: int) -> None:
        """An individual (non-group) allocation touched this extent."""
        ext = self.extent_of_block(bno)
        if ext is None:
            return
        desc = self.read_desc(ext)
        if desc["state"] == EXT_FREE:
            desc["state"] = EXT_UNGROUPED
            self.write_desc(ext, desc)
        elif desc["state"] == EXT_GROUPED:
            raise CorruptFileSystem(
                "individual allocation landed inside explicit group %r" % (ext,)
            )

    def note_ungrouped_free(self, bno: int, block_is_allocated) -> None:
        """An individual free; revert the extent to FREE when emptied."""
        ext = self.extent_of_block(bno)
        if ext is None:
            return
        desc = self.read_desc(ext)
        if desc["state"] != EXT_UNGROUPED:
            return
        base = self.extent_base(ext)
        for i in range(self.span):
            if block_is_allocated(base + i):
                return
        desc["state"] = EXT_FREE
        self.write_desc(ext, desc)

    # -- group slot management ---------------------------------------------------------

    def claim_extent(self, ext: ExtentId, owner: int) -> None:
        """Turn a FREE extent into an explicit group owned by ``owner``."""
        desc = self.read_desc(ext)
        if desc["state"] != EXT_FREE:
            raise CorruptFileSystem("cannot claim non-free extent %r" % (ext,))
        self.write_desc(ext, {
            "state": EXT_GROUPED,
            "valid_mask": 0,
            "owner": owner,
            "slots": [(0, 0)] * GROUP_SPAN,  # descriptor always carries 16 slot records
        })
        self._active[owner] = ext

    def take_slot(self, ext: ExtentId, fileid: int, fblock: int) -> Optional[int]:
        """Claim the lowest free slot; returns its block number or None."""
        desc = self.read_desc(ext)
        if desc["state"] != EXT_GROUPED:
            return None
        mask = desc["valid_mask"]
        for slot in range(self.span):
            if not mask & (1 << slot):
                desc["valid_mask"] = mask | (1 << slot)
                desc["slots"][slot] = (fileid, fblock)
                self.write_desc(ext, desc)
                if desc["valid_mask"] == (1 << self.span) - 1:
                    owner = desc["owner"]
                    if self._active.get(owner) == ext:
                        del self._active[owner]
                return self.extent_base(ext) + slot
        owner = desc["owner"]
        if self._active.get(owner) == ext:
            del self._active[owner]
        return None

    def free_slot(self, bno: int) -> bool:
        """Release the slot holding ``bno``; True when the extent empties."""
        ext = self.extent_of_block(bno)
        if ext is None:
            raise CorruptFileSystem("block %d is not in any extent" % bno)
        desc = self.read_desc(ext)
        if desc["state"] != EXT_GROUPED:
            raise CorruptFileSystem("freeing group slot in non-group extent")
        slot = bno - self.extent_base(ext)
        if not desc["valid_mask"] & (1 << slot):
            raise CorruptFileSystem("double free of group slot %d" % slot)
        desc["valid_mask"] &= ~(1 << slot)
        desc["slots"][slot] = (0, 0)
        if desc["valid_mask"] == 0:
            desc["state"] = EXT_FREE
            desc["owner"] = 0
            self.write_desc(ext, desc)
            for owner, active in list(self._active.items()):
                if active == ext:
                    del self._active[owner]
            return True
        self.write_desc(ext, desc)
        self._active.setdefault(desc["owner"], ext)
        return False

    def active_extent(self, owner: int) -> Optional[ExtentId]:
        """The directory's current partially-filled group, if known."""
        return self._active.get(owner)

    def live_span(self, ext: ExtentId) -> Optional[Tuple[int, int, dict]]:
        """(first block, count, desc) covering every valid slot."""
        desc = self.read_desc(ext)
        mask = desc["valid_mask"]
        if desc["state"] != EXT_GROUPED or mask == 0:
            return None
        lo = min(s for s in range(self.span) if mask & (1 << s))
        hi = max(s for s in range(self.span) if mask & (1 << s))
        base = self.extent_base(ext)
        return base + lo, hi - lo + 1, desc

    def grouped_blocks(self, ext: ExtentId) -> List[Tuple[int, int, int]]:
        """All valid (block, fileid, fblock) triples of an extent."""
        desc = self.read_desc(ext)
        base = self.extent_base(ext)
        out = []
        for slot in range(self.span):
            if desc["valid_mask"] & (1 << slot):
                fileid, fblock = desc["slots"][slot]
                out.append((base + slot, fileid, fblock))
        return out

    def drop_hints(self) -> None:
        self._active.clear()
