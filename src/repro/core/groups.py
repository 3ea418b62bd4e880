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

A state transition reads the 12-byte head of its descriptor in the
cached block and packs only the fields it changes back into that block
(the mask, one slot record, the state, or the head of an extent that
empties): the bytes are the ones a whole-descriptor rewrite would
leave, without decoding or copying the other fifteen slots.  The buffer
is held only from its ``get`` to the ``mark_dirty`` with no cache call
in between (docs/ARCHITECTURE.md §3).  ``read_head`` answers "grouped?
which slots valid?"; ``read_desc`` is the view of all sixteen slots for
the callers that need it.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.cache.buffercache import BufferCache
from repro.core.layout import (
    EXT_FREE,
    EXT_GROUPED,
    EXT_UNGROUPED,
    GDESC_HEAD,
    GDESC_MASK_OFFSET,
    GDESC_PER_BLOCK,
    GDESC_SIZE,
    GDESC_SLOT,
    GDESC_STATE_OFFSET,
    GDESC_U16,
    GROUP_SPAN,
    gdesc_slot_offset,
    pack_gdesc,
    unpack_gdesc_from,
)
from repro.errors import CorruptFileSystem
from repro.ffs.cylgroup import table_block

ExtentId = Tuple[int, int]  # (cylinder group, extent index within its data area)

_NO_SLOTS = ((0, 0),) * GROUP_SPAN  # a descriptor always carries 16 slot records


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
        self.span = span
        self.extents_per_cg = (blocks_per_cg - data_start) // span
        self._full_mask = (1 << span) - 1
        # Groups sit back to back, ``blocks_per_cg`` apart: everything
        # below is arithmetic from the first group's base.
        self._first_base = cg_base_of(0)
        self._first_data = self._first_base + data_start
        self._first_table = table_block(self._first_base, 0)
        # In-memory hint: directory fileid -> extent with free slots.
        self._active: Dict[int, ExtentId] = {}

    # -- geometry ---------------------------------------------------------------

    def extent_of_block(self, bno: int) -> Optional[ExtentId]:
        """The extent containing ``bno``; None for metadata blocks."""
        if bno < self._first_base:
            return None
        cgi, rel = divmod(bno - self._first_base, self.blocks_per_cg)
        rel -= self.data_start
        if cgi >= self.n_cgs or rel < 0:
            return None
        idx = rel // self.span
        if idx >= self.extents_per_cg:
            return None
        return cgi, idx

    def extent_base(self, ext: ExtentId) -> int:
        cgi, idx = ext
        return self._first_data + cgi * self.blocks_per_cg + idx * self.span

    def _desc_location(self, ext: ExtentId) -> Tuple[int, int]:
        cgi, idx = ext
        bno = self._first_table + cgi * self.blocks_per_cg + idx // GDESC_PER_BLOCK
        return bno, (idx % GDESC_PER_BLOCK) * GDESC_SIZE

    # -- descriptor I/O -----------------------------------------------------------

    def read_head(self, ext: ExtentId) -> Tuple[int, int, int]:
        """(state, valid_mask, owner): all that "is it a group, which
        slots are valid" needs."""
        bno, off = self._desc_location(ext)
        return GDESC_HEAD.unpack_from(self.cache.get(bno).image, off)

    def read_head_cached(self, ext: ExtentId) -> Optional[Tuple[int, int, int]]:
        """Like :meth:`read_head` but never touches the disk or the
        cache's state; None when the descriptor block is not cached
        (used by flush gathering, which runs inside an eviction)."""
        bno, off = self._desc_location(ext)
        buf = self.cache.peek(bno)
        if buf is None:
            return None
        return GDESC_HEAD.unpack_from(buf.image, off)

    def read_desc(self, ext: ExtentId) -> dict:
        bno, off = self._desc_location(ext)
        buf = self.cache.get(bno)
        return unpack_gdesc_from(buf.image, off)

    def _open(self, ext: ExtentId):
        """(buffer, block, offset, state, valid_mask, owner) of a
        descriptor about to be edited in place.  The buffer is good
        until the next cache call that can insert."""
        bno, off = self._desc_location(ext)
        buf = self.cache.get(bno)
        state, mask, owner = GDESC_HEAD.unpack_from(buf.image, off)
        return buf, bno, off, state, mask, owner

    # -- state transitions ----------------------------------------------------------

    def note_ungrouped_alloc(self, bno: int) -> None:
        """An individual (non-group) allocation touched this extent."""
        ext = self.extent_of_block(bno)
        if ext is None:
            return
        buf, dbno, off, state, _mask, _owner = self._open(ext)
        if state == EXT_FREE:
            GDESC_U16.pack_into(buf.data, off + GDESC_STATE_OFFSET, EXT_UNGROUPED)
            self.cache.mark_dirty(dbno)
        elif state == EXT_GROUPED:
            raise CorruptFileSystem(
                "individual allocation landed inside explicit group %r" % (ext,)
            )

    def note_ungrouped_free(self, bno: int, run_is_free) -> None:
        """An individual free; revert the extent to FREE when emptied.
        ``run_is_free(start, count)`` is the allocator's answer."""
        ext = self.extent_of_block(bno)
        if ext is None:
            return
        if self.read_head(ext)[0] != EXT_UNGROUPED:
            return
        if not run_is_free(self.extent_base(ext), self.span):
            return
        # The question went through the cache and may have evicted the
        # descriptor's block: take its buffer again, after it.
        buf, dbno, off, _state, _mask, _owner = self._open(ext)
        GDESC_U16.pack_into(buf.data, off + GDESC_STATE_OFFSET, EXT_FREE)
        self.cache.mark_dirty(dbno)

    # -- group slot management ---------------------------------------------------------

    def claim_extent(self, ext: ExtentId, owner: int) -> None:
        """Turn a FREE extent into an explicit group owned by ``owner``."""
        buf, bno, off, state, _mask, _owner = self._open(ext)
        if state != EXT_FREE:
            raise CorruptFileSystem("cannot claim non-free extent %r" % (ext,))
        buf.data[off:off + GDESC_SIZE] = pack_gdesc(EXT_GROUPED, 0, owner, _NO_SLOTS)
        self.cache.mark_dirty(bno)
        self._active[owner] = ext

    def take_slot(self, ext: ExtentId, fileid: int, fblock: int) -> Optional[int]:
        """Claim the lowest free slot; returns its block number or None."""
        buf, bno, off, state, mask, owner = self._open(ext)
        if state != EXT_GROUPED:
            return None
        free = ~mask & self._full_mask
        if not free:
            if self._active.get(owner) == ext:
                del self._active[owner]
            return None
        lowest = free & -free
        slot = lowest.bit_length() - 1
        mask |= lowest
        data = buf.data
        GDESC_U16.pack_into(data, off + GDESC_MASK_OFFSET, mask)
        GDESC_SLOT.pack_into(data, off + gdesc_slot_offset(slot), fileid, fblock)
        self.cache.mark_dirty(bno)
        if mask == self._full_mask and self._active.get(owner) == ext:
            del self._active[owner]
        return self.extent_base(ext) + slot

    def free_slot(self, bno: int) -> bool:
        """Release the slot holding ``bno``; True when the extent empties."""
        ext = self.extent_of_block(bno)
        if ext is None:
            raise CorruptFileSystem("block %d is not in any extent" % bno)
        buf, dbno, off, state, mask, owner = self._open(ext)
        if state != EXT_GROUPED:
            raise CorruptFileSystem("freeing group slot in non-group extent")
        slot = bno - self.extent_base(ext)
        if not mask & (1 << slot):
            raise CorruptFileSystem("double free of group slot %d" % slot)
        mask &= ~(1 << slot)
        data = buf.data
        GDESC_SLOT.pack_into(data, off + gdesc_slot_offset(slot), 0, 0)
        if mask == 0:
            GDESC_HEAD.pack_into(data, off, EXT_FREE, 0, 0)
            self.cache.mark_dirty(dbno)
            # Only the owner's hint can name the extent: hints are set
            # under the descriptor's owner, here and in claim_extent.
            if self._active.get(owner) == ext:
                del self._active[owner]
            return True
        GDESC_U16.pack_into(data, off + GDESC_MASK_OFFSET, mask)
        self.cache.mark_dirty(dbno)
        self._active.setdefault(owner, ext)
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

    def drop_hints(self) -> None:
        self._active.clear()
