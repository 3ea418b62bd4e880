"""The externalized inode file.

Files with multiple hard links cannot live inside any single directory
entry, so their inodes move to a dynamically-growable, file-like
structure "similar to the IFILE in BSD-LFS [Seltzer93]": it grows as
needed but does not shrink, and its blocks do not move once allocated.
The structure's own block pointers live in the superblock.

Slots are 128 bytes (a 96-byte C-FFS inode plus padding), 32 per
block.  External inode numbers are 1-based slot indexes.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.blockdev.device import BLOCK_SIZE
from repro.core import layout
from repro.core.inode import CNode, LOC_EXT
from repro.errors import CorruptFileSystem, FileNotFound
from repro.ffs import mapping
from repro.ffs.base import OrderToken

EXT_TABLE_FILEID = 2  # reserved logical identity for table blocks
SLOT_SIZE = 128
SLOTS_PER_BLOCK = BLOCK_SIZE // SLOT_SIZE


class _ExtMap:
    """Adapter giving :mod:`repro.ffs.mapping` a handle backed by the
    superblock's external-table pointers."""

    __slots__ = ("sb",)

    def __init__(self, sb: dict) -> None:
        self.sb = sb

    @property
    def direct(self) -> List[int]:
        return self.sb["ext_direct"]

    @property
    def indirect(self) -> int:
        return self.sb["ext_indirect"]

    @indirect.setter
    def indirect(self, value: int) -> None:
        self.sb["ext_indirect"] = value

    @property
    def dindirect(self) -> int:
        return self.sb["ext_dindirect"]

    @dindirect.setter
    def dindirect(self, value: int) -> None:
        self.sb["ext_dindirect"] = value


class ExtInodeTable:
    """Allocation and I/O for externalized inodes."""

    def __init__(self, fs) -> None:
        self.fs = fs
        self._free: List[int] = []      # known-free inums (in-memory hint)
        self._scanned = False

    @property
    def _map(self) -> _ExtMap:
        return _ExtMap(self.fs.sb)

    @property
    def capacity(self) -> int:
        return (self.fs.sb["ext_size"] // BLOCK_SIZE) * SLOTS_PER_BLOCK

    def _locate(self, inum: int) -> tuple:
        if inum < 1 or inum > self.capacity:
            raise FileNotFound("external inode %d out of range" % inum)
        blk, slot = divmod(inum - 1, SLOTS_PER_BLOCK)
        bno = mapping.bmap_lookup(self.fs.cache, self._map, blk)
        if bno == 0:
            raise CorruptFileSystem("external inode table has a hole at block %d" % blk)
        return bno, blk, slot * SLOT_SIZE

    def get(self, inum: int) -> CNode:
        bno, blk, off = self._locate(inum)
        buf = self.fs.cache.get(bno, logical=(EXT_TABLE_FILEID, blk))
        node = CNode.unpack(buf.image, off)
        if node.mode == layout.MODE_FREE:
            raise FileNotFound("external inode %d is free" % inum)
        node.loc = (LOC_EXT, inum)
        node.home_cg = self.fs.alloc.cg_of_block(bno)
        return node

    def store(self, inum: int, node: CNode, sync: bool,
              requires: Tuple = ()) -> OrderToken:
        bno, blk, off = self._locate(inum)
        buf = self.fs.cache.get(bno, logical=(EXT_TABLE_FILEID, blk))
        node.pack_into(buf.data, off)
        if sync:
            return self.fs._meta_write(bno, requires)
        self.fs.cache.mark_dirty(bno)
        return None

    def allocate(self, node: CNode, sync: bool) -> Tuple[int, OrderToken]:
        """Place ``node`` in a free slot (growing the table if needed);
        returns (inum, ordering token of the slot write)."""
        inum = self._take_free()
        grow_token = None
        if inum is None:
            inum, grow_token = self._grow()
        node.loc = (LOC_EXT, inum)
        token = self.store(inum, node, sync=sync, requires=(grow_token,))
        return inum, token

    def free(self, inum: int, sync: bool, requires: Tuple = ()) -> OrderToken:
        bno, blk, off = self._locate(inum)
        buf = self.fs.cache.get(bno, logical=(EXT_TABLE_FILEID, blk))
        buf.data[off:off + SLOT_SIZE] = bytes(SLOT_SIZE)
        self._free.append(inum)
        if sync:
            return self.fs._meta_write(bno, requires)
        self.fs.cache.mark_dirty(bno)
        return None

    def drop_hints(self) -> None:
        self._free.clear()
        self._scanned = False

    # -- internals ----------------------------------------------------------------

    def _take_free(self) -> Optional[int]:
        if not self._free and not self._scanned:
            self._scan()
        if self._free:
            return self._free.pop()
        return None

    def _scan(self) -> None:
        """Rebuild the free list by reading the table (timed)."""
        for blk in range(self.fs.sb["ext_size"] // BLOCK_SIZE):
            bno = mapping.bmap_lookup(self.fs.cache, self._map, blk)
            if bno == 0:
                continue
            buf = self.fs.cache.get(bno, logical=(EXT_TABLE_FILEID, blk))
            image = buf.image
            for slot in range(SLOTS_PER_BLOCK):
                if CNode.unpack(image, slot * SLOT_SIZE).mode == layout.MODE_FREE:
                    self._free.append(blk * SLOTS_PER_BLOCK + slot + 1)
        self._scanned = True

    def _grow(self) -> Tuple[int, OrderToken]:
        blk = self.fs.sb["ext_size"] // BLOCK_SIZE
        bno, _ = mapping.bmap_ensure(
            self.fs.cache, self._map, blk,
            alloc_data=self.fs._alloc_ext_table_block,
            alloc_meta=self.fs._alloc_ext_table_block,
        )
        self.fs.cache.create(bno, logical=(EXT_TABLE_FILEID, blk))
        init_token = self.fs._meta_write(bno)  # zeroed slots first
        self.fs.sb["ext_size"] += BLOCK_SIZE
        # Ordering: the superblock must reference the new table block
        # before any directory entry references a slot inside it — a
        # crash in between must never leave dangling external inums.
        sb_token = self.fs._store_superblock(sync_op=True,
                                             requires=(init_token,))
        base = blk * SLOTS_PER_BLOCK
        self._free.extend(range(base + 2, base + SLOTS_PER_BLOCK + 1))
        return base + 1, sb_token
