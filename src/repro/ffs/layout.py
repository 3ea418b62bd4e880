"""On-disk layout constants and record formats for the FFS baseline.

Everything on disk is real packed bytes — the offline checker and the
corruption-injection tests parse the same serialization the file system
writes.  An inode record has one codec: :data:`INODE`, which only
:class:`repro.ffs.inode.Inode` packs into and unpacks from a block at
the record's offset.

Disk layout::

    block 0                     superblock
    block 1 ...                 cylinder groups, each:
        +0                      group descriptor
        +1                      block usage bitmap
        +2 .. +2+itable-1       inode table
        +data_start ..          data blocks

Inodes are 128 bytes (32 per 4 KB block) with twelve direct pointers
and single/double indirect pointers, like the paper's implementation
heritage (4.4BSD dinode, minus fields the simulation does not model).
"""

from __future__ import annotations

import struct

from repro.blockdev.device import BLOCK_SIZE

FFS_MAGIC = 0x0011954  # USENIX January 1997, give or take
INODE_SIZE = 128
INODES_PER_BLOCK = BLOCK_SIZE // INODE_SIZE

NDIRECT = 12
PTRS_PER_INDIRECT = BLOCK_SIZE // 4  # 1024 block pointers
# An indirect block is PTRS_PER_INDIRECT little-endian block numbers,
# 0 for a hole: the whole block for walks, one pointer for lookups.
INDIRECT_PTRS = struct.Struct("<%dI" % PTRS_PER_INDIRECT)
BLOCK_PTR = struct.Struct("<I")

# Inode modes.
MODE_FREE = 0
MODE_FILE = 1
MODE_DIR = 2

# mode, nlink, flags, gen, size, mtime, 12 direct, indirect, dindirect,
# nblocks: 2+2+2+2 + 8 + 8 + 48 + 4 + 4 + 4 = 84 bytes used, padded to 128.
INODE = struct.Struct("<HHHHQd12IIII44x")
assert INODE.size == INODE_SIZE

# Superblock: magic, version, total_blocks, n_cgs, blocks_per_cg,
# inodes_per_cg, itable_blocks, data_start, root_inum, next_gen,
# free_blocks, free_inodes, journal_start, journal_blocks.
# The journal fields were appended later; images written before then
# unpack them as zero (pack_superblock always zero-padded the block),
# which reads back as "no journal region".
_SUPERBLOCK_FMT = "<IIIIIIIIIQQQII"

# Cylinder-group descriptor: free_blocks, free_inodes, block_rotor, inode_rotor.
_CG_FMT = "<IIII"

# Directory entry header: inum, reclen, namelen, kind.
DIRENT_HEADER_FMT = "<IHBB"
DIRENT_HEADER_SIZE = struct.calcsize(DIRENT_HEADER_FMT)
DIRENT_ALIGN = 4

DT_FILE = 1
DT_DIR = 2


def dirent_size(namelen: int) -> int:
    """Bytes a directory entry with an ``namelen``-byte name occupies."""
    raw = DIRENT_HEADER_SIZE + namelen
    return (raw + DIRENT_ALIGN - 1) // DIRENT_ALIGN * DIRENT_ALIGN


def pack_superblock(sb: dict) -> bytes:
    packed = struct.pack(
        _SUPERBLOCK_FMT,
        sb["magic"],
        sb["version"],
        sb["total_blocks"],
        sb["n_cgs"],
        sb["blocks_per_cg"],
        sb["inodes_per_cg"],
        sb["itable_blocks"],
        sb["data_start"],
        sb["root_inum"],
        sb["next_gen"],
        sb["free_blocks"],
        sb["free_inodes"],
        sb.get("journal_start", 0),
        sb.get("journal_blocks", 0),
    )
    return packed + bytes(BLOCK_SIZE - len(packed))


def unpack_superblock(data: bytes) -> dict:
    size = struct.calcsize(_SUPERBLOCK_FMT)
    fields = struct.unpack(_SUPERBLOCK_FMT, data[:size])
    return {
        "magic": fields[0],
        "version": fields[1],
        "total_blocks": fields[2],
        "n_cgs": fields[3],
        "blocks_per_cg": fields[4],
        "inodes_per_cg": fields[5],
        "itable_blocks": fields[6],
        "data_start": fields[7],
        "root_inum": fields[8],
        "next_gen": fields[9],
        "free_blocks": fields[10],
        "free_inodes": fields[11],
        "journal_start": fields[12],
        "journal_blocks": fields[13],
    }


def replica_block(total_blocks: int, n_cgs: int, blocks_per_cg: int):
    """Block number of the superblock replica, or ``None``.

    The replica lives in the tail past the last cylinder group (blocks
    there belong to no group, so nothing else ever allocates them).
    Volumes whose geometry leaves no tail simply have no replica —
    fsck then cannot recover from a smashed superblock, same as before.
    Shared by both on-disk formats.
    """
    tail_start = 1 + n_cgs * blocks_per_cg
    candidate = total_blocks - 1
    return candidate if candidate >= tail_start else None


def pack_cg(free_blocks: int, free_inodes: int, block_rotor: int, inode_rotor: int) -> bytes:
    packed = struct.pack(_CG_FMT, free_blocks, free_inodes, block_rotor, inode_rotor)
    return packed + bytes(BLOCK_SIZE - len(packed))


def unpack_cg(data: bytes) -> dict:
    size = struct.calcsize(_CG_FMT)
    fields = struct.unpack(_CG_FMT, data[:size])
    return {
        "free_blocks": fields[0],
        "free_inodes": fields[1],
        "block_rotor": fields[2],
        "inode_rotor": fields[3],
    }
