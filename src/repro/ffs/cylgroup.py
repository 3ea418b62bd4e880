"""The cylinder group: its on-disk format and its in-memory mirror.

This module is the one owner of the group *format*, for both file
systems (C-FFS keeps the FFS group and swaps the table)::

    base + 0              descriptor: free counts and rotors (layout.pack_cg)
    base + 1              bitmap: bit i is block ``base + i``, for
                          i < blocks_per_cg; bit ``blocks_per_cg + j``
                          is inode j of the group (FFS only)
    base + 2 ...          the format's table (FFS: inodes; C-FFS:
                          extent descriptors), up to ``data_start``
    base + data_start ... data blocks

mkfs (``GroupedAllocator.format_groups``), the allocator and fsck's
rebuild all go through the helpers below, so nothing else knows an
offset or touches a bit by hand.

At run time free counts and rotors are mirrored in memory (one small
object per group) and flushed to their descriptor blocks before each
sync.  The block bitmap is *not* mirrored: the allocator mutates the
cached bitmap buffer directly, so the buffer cache remains the single
source of truth and eviction/re-read cannot desynchronize anything.
Bitmap writes are always delayed — they carry no ordering requirement,
since fsck can rebuild them from the reachable inodes.
"""

from __future__ import annotations

from repro.blockdev.device import BLOCK_SIZE
from repro.cache.buffercache import BufferCache
from repro.errors import CorruptFileSystem
from repro.ffs import layout


def cg_base(cgi: int, blocks_per_cg: int) -> int:
    """First block of group ``cgi`` (block 0 is the superblock);
    ``cg_base(n_cgs, ...)`` is the first block past the last group."""
    return 1 + cgi * blocks_per_cg


def descriptor_block(base: int) -> int:
    return base


def bitmap_block(base: int) -> int:
    return base + 1


def table_block(base: int, index: int) -> int:
    """Block ``index`` of the group's table (inodes or extent descriptors)."""
    return base + 2 + index


def inode_bit(blocks_per_cg: int, idx: int) -> int:
    """Bitmap offset of the group's ``idx``-th inode: the inode bits
    follow the ``blocks_per_cg`` block bits in the same block."""
    return blocks_per_cg + idx


def fresh_bitmap(blocks_per_cg: int, data_start: int, usable: int) -> bytes:
    """The bitmap of an empty group: the metadata prefix and whatever
    lies past the ``usable`` data blocks marked in use, forever."""
    # Bit i is bit (i & 7) of byte (i >> 3): a little-endian integer.
    every_block = (1 << blocks_per_cg) - 1
    allocatable = ((1 << usable) - 1) << data_start
    return (every_block ^ allocatable).to_bytes(BLOCK_SIZE, "little")


def fresh_descriptor(free_blocks: int, free_inodes: int, data_start: int) -> bytes:
    """The descriptor of an empty group (block rotor at the data area)."""
    return layout.pack_cg(free_blocks, free_inodes, data_start, 0)


def bit_is_set(bitmap: bytearray, offset: int) -> bool:
    return bool(bitmap[offset >> 3] & (1 << (offset & 7)))


#: Byte translation table for the clear-bit scan: full bytes (0xFF)
#: map to 0, bytes with at least one clear bit map to 1, so ``find(1)``
#: locates the first interesting byte at C speed.
_HAS_CLEAR_BIT = bytes(0 if v == 0xFF else 1 for v in range(256))


def find_clear_bit(bitmap: bytearray, start: int, end: int):
    """Offset of the first clear bit in ``[start, end)``, or None.

    Equivalent to probing :func:`bit_is_set` at each offset in order,
    but skips over fully-allocated bytes without entering Python-level
    iteration (nearly every byte is full on a busy group).
    """
    if start >= end:
        return None
    byte_i = start >> 3
    # Leading byte: mask off bits below ``start`` as if they were set.
    b = bitmap[byte_i] | ((1 << (start & 7)) - 1)
    if b != 0xFF:
        z = ~b & 0xFF
        off = (byte_i << 3) + (z & -z).bit_length() - 1
        return off if off < end else None
    end_byte = (end + 7) >> 3
    idx = bitmap[byte_i + 1:end_byte].translate(_HAS_CLEAR_BIT).find(1)
    if idx < 0:
        return None
    byte_i += 1 + idx
    z = ~bitmap[byte_i] & 0xFF
    off = (byte_i << 3) + (z & -z).bit_length() - 1
    return off if off < end else None


def set_bit(bitmap: bytearray, offset: int) -> None:
    bitmap[offset >> 3] |= 1 << (offset & 7)


def clear_bit(bitmap: bytearray, offset: int) -> None:
    bitmap[offset >> 3] &= ~(1 << (offset & 7))


def run_bits(bitmap: bytearray, offset: int, count: int) -> int:
    """Bits ``offset .. offset+count`` as one integer: bit i of the
    result is bit ``offset + i`` of the bitmap."""
    chunk = bitmap[offset >> 3:(offset + count + 7) >> 3]
    return int.from_bytes(chunk, "little") >> (offset & 7) & ((1 << count) - 1)


def set_run(bitmap: bytearray, offset: int, count: int) -> None:
    """:func:`set_bit` for ``count`` adjacent bits, as one edit."""
    lo, hi = offset >> 3, (offset + count + 7) >> 3
    run = ((1 << count) - 1) << (offset & 7)
    bitmap[lo:hi] = (int.from_bytes(bitmap[lo:hi], "little") | run).to_bytes(
        hi - lo, "little")


def clear_run(bitmap: bytearray, offset: int, count: int) -> None:
    """:func:`clear_bit` for ``count`` adjacent bits, as one edit."""
    lo, hi = offset >> 3, (offset + count + 7) >> 3
    keep = ~(((1 << count) - 1) << (offset & 7))
    bitmap[lo:hi] = (int.from_bytes(bitmap[lo:hi], "little") & keep).to_bytes(
        hi - lo, "little")


class CylinderGroup:
    """In-memory mirror of one group's descriptor (counts and rotors)."""

    __slots__ = (
        "index", "base", "blocks", "inodes",
        "free_blocks", "free_inodes", "block_rotor", "inode_rotor",
    )

    def __init__(self, index: int, base: int, blocks: int, inodes: int) -> None:
        self.index = index
        self.base = base          # first block of this cg (the descriptor)
        self.blocks = blocks      # blocks spanned by the cg
        self.inodes = inodes
        self.free_blocks = 0
        self.free_inodes = 0
        self.block_rotor = 0      # next-fit position for block allocation
        self.inode_rotor = 0

    @property
    def descriptor_block(self) -> int:
        return descriptor_block(self.base)

    @property
    def bitmap_block(self) -> int:
        return bitmap_block(self.base)

    def pack_descriptor(self) -> bytes:
        return layout.pack_cg(
            self.free_blocks, self.free_inodes, self.block_rotor, self.inode_rotor
        )

    def load_descriptor(self, data: bytes) -> None:
        fields = layout.unpack_cg(data)
        self.free_blocks = fields["free_blocks"]
        self.free_inodes = fields["free_inodes"]
        self.block_rotor = fields["block_rotor"]
        self.inode_rotor = fields["inode_rotor"]
        if self.free_blocks > self.blocks or self.free_inodes > self.inodes:
            raise CorruptFileSystem("cg %d free counts exceed capacity" % self.index)

    def store_descriptor(self, cache: BufferCache) -> None:
        buf = cache.get(self.descriptor_block)
        buf.data[:] = self.pack_descriptor()
        cache.mark_dirty(self.descriptor_block)

    @classmethod
    def load(
        cls, cache: BufferCache, index: int, base: int, blocks: int, inodes: int
    ) -> "CylinderGroup":
        cg = cls(index, base, blocks, inodes)
        cg.load_descriptor(cache.get(cg.descriptor_block).image)
        return cg
