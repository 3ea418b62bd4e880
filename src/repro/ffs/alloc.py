"""FFS allocation policies: inodes near their directory, data near its
inode, spill to the next group when full.

The one deliberately-calibrated policy is ``small_file_spread``: the
first block of each new file is placed ``spread`` blocks past the
group's allocation rotor rather than immediately adjacent to the
previous file's data.  This models the rotational spreading of classic
FFS allocators (rotdelay-era placement; see also [Smith96]) and
produces exactly the behaviour the paper ascribes to conventional file
systems: related small files end up *near* each other (short seeks) but
not *adjacent* (no bandwidth), so every small-file access pays a
positioning cost.  Set ``spread=1`` for dense sequential allocation
(C-FFS uses the same allocator for its non-grouped blocks).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.blockdev.device import BLOCK_SIZE
from repro.cache.buffer import Buffer
from repro.cache.buffercache import BufferCache
from repro.errors import NoSpace
from repro.ffs.cylgroup import (CylinderGroup, bit_is_set, bitmap_block,
                                clear_bit, clear_run, descriptor_block,
                                find_clear_bit, fresh_bitmap, fresh_descriptor,
                                inode_bit, run_bits, set_bit, set_run,
                                table_block)


class GroupedAllocator:
    """Bitmap allocator over cylinder groups.

    ``layout`` is the owning file system's geometry oracle; it must
    provide ``n_cgs``, ``blocks_per_cg``, ``inodes_per_cg``,
    ``cg_base(cgi)``, ``cg_data_start(cgi)`` (cg-relative offset of the
    first allocatable block), and ``inode_is_tracked`` (False for
    C-FFS, which has no static inode table).
    """

    def __init__(
        self,
        cache: BufferCache,
        n_cgs: int,
        blocks_per_cg: int,
        inodes_per_cg: int,
        data_start: int,
        cg_base_of,
        counts: Optional[Dict[str, int]] = None,
    ) -> None:
        self.cache = cache
        self.n_cgs = n_cgs
        self.blocks_per_cg = blocks_per_cg
        self.inodes_per_cg = inodes_per_cg
        self.data_start = data_start
        self._cg_base_of = cg_base_of
        self._groups: Dict[int, CylinderGroup] = {}
        # Per group, the offset below which no aligned run of the
        # (count, align) last asked of alloc_contiguous is free: its
        # scan starts there.  Allocations only set bits, so only a free
        # can lower it.  In-memory, like the group mirrors.
        self._run_floor: Dict[int, int] = {}
        self._run_shape: Tuple[int, int] = (0, 0)
        # Owning file system's superblock counters (a live reference).
        # The allocator is the single writer of the free_blocks /
        # free_inodes rollups, so the summary can never drift from the
        # per-group counts and bitmaps it maintains alongside.
        self.counts = counts

    def _charge(self, key: str, delta: int) -> None:
        if self.counts is not None and key in self.counts:
            self.counts[key] = int(self.counts[key]) + delta

    # -- cg access -------------------------------------------------------------

    def group(self, cgi: int) -> CylinderGroup:
        cg = self._groups.get(cgi)
        if cg is None:
            cg = CylinderGroup.load(
                self.cache, cgi, self._cg_base_of(cgi),
                self.blocks_per_cg, self.inodes_per_cg,
            )
            self._groups[cgi] = cg
        return cg

    def _bitmap(self, cg: CylinderGroup) -> Buffer:
        """The cached bitmap block of a group (the cache is
        authoritative): scans read ``.image``, and only a caller that
        found a bit to flip takes ``.data``."""
        return self.cache.get(cg.bitmap_block)

    def format_groups(self, n_cgs: int, usable: int, table_blocks: int) -> None:
        """mkfs: ``n_cgs`` empty groups of ``usable`` data blocks each.
        Each group's bitmap, descriptor and ``table_blocks`` zeroed
        table blocks go into the cache, dirty, in one call; every group
        shares the same three images (an edit copies its block's)."""
        bitmap = fresh_bitmap(self.blocks_per_cg, self.data_start, usable)
        descriptor = fresh_descriptor(usable, self.inodes_per_cg,
                                      self.data_start)
        zero = bytes(BLOCK_SIZE)
        for cgi in range(n_cgs):
            base = self._cg_base_of(cgi)
            run = [(bitmap_block(base), bitmap),
                   (descriptor_block(base), descriptor)]
            run += [(table_block(base, g), zero) for g in range(table_blocks)]
            self.cache.create_dirty(run)

    def drop_mirrors(self) -> None:
        self._groups.clear()
        self._run_floor.clear()

    def store_descriptors(self) -> None:
        for cg in self._groups.values():
            cg.store_descriptor(self.cache)

    # -- block allocation --------------------------------------------------------

    def alloc_block(
        self,
        pref_cg: int,
        pref_offset: Optional[int] = None,
        spread: int = 0,
    ) -> int:
        """Allocate one block; returns its absolute block number.

        ``pref_offset`` is a cg-relative position to try first (exact,
        then next-fit after it).  Without a preference the group's
        rotor is used, advanced by ``spread`` for new-file placement.
        """
        if spread > 0 and pref_offset is None:
            # Rotational spreading: take strided positions, advancing to
            # the next group once this one's strides are exhausted.
            # Gaps stay free for other allocations; dense gap-filling
            # happens only under genuine space pressure (the fallback
            # below), mirroring how FFS keeps file starts from becoming
            # physically adjacent on a fresh disk.
            for cgi in self._cg_search_order(pref_cg):
                cg = self.group(cgi)
                if cg.free_blocks == 0:
                    continue
                start = cg.block_rotor + spread
                if start < self.data_start:
                    start = self.data_start
                if start >= self.blocks_per_cg:
                    continue  # this group's strides are used up
                bitmap = self._bitmap(cg)
                offset = self._find_free_no_wrap(bitmap.image, start)
                if offset is None:
                    continue
                set_bit(bitmap.data, offset)
                self.cache.mark_dirty(cg.bitmap_block)
                cg.free_blocks -= 1
                self._charge("free_blocks", -1)
                cg.block_rotor = offset + 1
                return cg.base + offset
            # Fall through to dense allocation.

        for cgi in self._cg_search_order(pref_cg):
            cg = self.group(cgi)
            if cg.free_blocks == 0:
                continue
            bitmap = self._bitmap(cg)
            if pref_offset is not None and cgi == pref_cg:
                start = max(self.data_start, min(pref_offset, self.blocks_per_cg - 1))
            else:
                start = cg.block_rotor
                if start < self.data_start or start >= self.blocks_per_cg:
                    start = self.data_start
            offset = self._find_free(bitmap.image, start)
            if offset is None:
                continue
            set_bit(bitmap.data, offset)
            self.cache.mark_dirty(cg.bitmap_block)
            cg.free_blocks -= 1
            self._charge("free_blocks", -1)
            if pref_offset is None:
                # Explicitly-positioned allocations (dense metadata,
                # adjacent file growth) must not disturb the rotor that
                # paces new-file placement.
                cg.block_rotor = (
                    offset + 1 if offset + 1 < self.blocks_per_cg else self.data_start
                )
            return cg.base + offset
        raise NoSpace("no free blocks anywhere")

    def alloc_contiguous(self, pref_cg: int, count: int, align: int = 1) -> Optional[int]:
        """Allocate ``count`` adjacent blocks (for explicit groups).

        Returns the absolute block number of the run's start, or None
        when no group has an aligned free run of that length.  ``align``
        is relative to each group's data area so descriptor lookups can
        be O(1).  The first fit from the data area's start, found from
        the group's floor: every candidate below it holds a used block.
        """
        if (count, align) != self._run_shape:
            self._run_shape = (count, align)
            self._run_floor.clear()
        floors = self._run_floor
        for cgi in self._cg_search_order(pref_cg):
            cg = self.group(cgi)
            if cg.free_blocks < count:
                continue
            bitmap = self._bitmap(cg)
            scan = bitmap.image
            offset = floors.get(cgi, self.data_start)
            while offset + count <= self.blocks_per_cg:
                aligned = offset
                if align > 1:
                    rel = (aligned - self.data_start) % align
                    if rel:
                        aligned += align - rel
                        if aligned + count > self.blocks_per_cg:
                            break
                used = run_bits(scan, aligned, count)
                if used:
                    # Every candidate up to the last used block holds it.
                    offset = aligned + used.bit_length()
                    continue
                set_run(bitmap.data, aligned, count)
                self.cache.mark_dirty(cg.bitmap_block)
                cg.free_blocks -= count
                self._charge("free_blocks", -count)
                floors[cgi] = aligned + count
                return cg.base + aligned
            floors[cgi] = offset
        return None

    def _lower_run_floor(self, cgi: int, offset: int) -> None:
        """Block ``offset`` of group ``cgi`` came free: a run through it
        may now fit below the floor."""
        floor = self._run_floor.get(cgi)
        if floor is not None:
            lowest = max(self.data_start, offset - self._run_shape[0] + 1)
            if lowest < floor:
                self._run_floor[cgi] = lowest

    def free_block(self, bno: int) -> None:
        cgi = self.cg_of_block(bno)
        cg = self.group(cgi)
        offset = bno - cg.base
        bitmap = self._bitmap(cg)
        if not bit_is_set(bitmap.image, offset):
            raise NoSpace("double free of block %d" % bno)
        clear_bit(bitmap.data, offset)
        self.cache.mark_dirty(cg.bitmap_block)
        cg.free_blocks += 1
        self._charge("free_blocks", 1)
        self._lower_run_floor(cgi, offset)

    def free_contiguous(self, start: int, count: int) -> None:
        """Release the ``count`` adjacent blocks from ``start``, all in
        one group: the inverse of :meth:`alloc_contiguous`."""
        cgi = self.cg_of_block(start)
        cg = self.group(cgi)
        offset = start - cg.base
        bitmap = self._bitmap(cg)
        clear = ~run_bits(bitmap.image, offset, count) & ((1 << count) - 1)
        if clear:
            first = (clear & -clear).bit_length() - 1
            raise NoSpace("double free of block %d" % (start + first))
        clear_run(bitmap.data, offset, count)
        self.cache.mark_dirty(cg.bitmap_block)
        cg.free_blocks += count
        self._charge("free_blocks", count)
        self._lower_run_floor(cgi, offset)

    def run_is_free(self, start: int, count: int) -> bool:
        """True when none of the ``count`` adjacent blocks from
        ``start`` (all in one group) is allocated."""
        cg = self.group(self.cg_of_block(start))
        return not run_bits(self._bitmap(cg).image, start - cg.base, count)

    def cg_of_block(self, bno: int) -> int:
        return (bno - self._cg_base_of(0)) // self.blocks_per_cg

    # -- inode allocation (FFS only; C-FFS has no static table) ------------------

    def alloc_inode(self, pref_cg: int, spread_dirs: bool = False) -> int:
        """Allocate an inode number (1-based).

        Files go in the preferred (parent's) group; new directories are
        spread to the group with the most free inodes, the classic FFS
        policy.
        """
        if spread_dirs:
            best = max(range(self.n_cgs), key=lambda c: self.group(c).free_inodes)
            order = [best] + [c for c in range(self.n_cgs) if c != best]
        else:
            order = self._cg_search_order(pref_cg)
        for cgi in order:
            cg = self.group(cgi)
            if cg.free_inodes == 0:
                continue
            start = min(cg.inode_rotor, self.inodes_per_cg - 1)
            for probe in range(self.inodes_per_cg):
                idx = (start + probe) % self.inodes_per_cg
                if not self._inode_used(cg, idx):
                    self._set_inode_used(cg, idx, True)
                    cg.free_inodes -= 1
                    self._charge("free_inodes", -1)
                    cg.inode_rotor = (idx + 1) % self.inodes_per_cg
                    return cgi * self.inodes_per_cg + idx + 1
        raise NoSpace("no free inodes anywhere")

    def free_inode(self, inum: int) -> None:
        cgi, idx = divmod(inum - 1, self.inodes_per_cg)
        cg = self.group(cgi)
        if not self._inode_used(cg, idx):
            raise NoSpace("double free of inode %d" % inum)
        self._set_inode_used(cg, idx, False)
        cg.free_inodes += 1
        self._charge("free_inodes", 1)

    def _inode_used(self, cg: CylinderGroup, idx: int) -> bool:
        return bit_is_set(
            self._bitmap(cg).image, inode_bit(self.blocks_per_cg, idx))

    def _set_inode_used(self, cg: CylinderGroup, idx: int, used: bool) -> None:
        flip = set_bit if used else clear_bit
        flip(self._bitmap(cg).data, inode_bit(self.blocks_per_cg, idx))
        self.cache.mark_dirty(cg.bitmap_block)

    # -- internals -----------------------------------------------------------------

    def _cg_search_order(self, pref: int):
        yield pref
        for d in range(1, self.n_cgs):
            nxt = (pref + d) % self.n_cgs
            yield nxt

    def _find_free_no_wrap(self, bitmap: bytes, start: int) -> Optional[int]:
        """Linear search for a clear bit from ``start`` to the group end."""
        return find_clear_bit(bitmap, start, self.blocks_per_cg)

    def _find_free(self, bitmap: bytes, start: int) -> Optional[int]:
        """Next-fit search for a clear bit, wrapping within the data area."""
        total = self.blocks_per_cg
        if start < self.data_start or start >= total:
            start = self.data_start
        offset = find_clear_bit(bitmap, start, total)
        if offset is None:
            # Wrap: resume from the start of the data area up to where
            # the forward sweep began.
            offset = find_clear_bit(bitmap, self.data_start, start)
        return offset
