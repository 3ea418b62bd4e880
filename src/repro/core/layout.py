"""C-FFS on-disk layout.

Disk layout::

    block 0                     superblock (includes the root directory's
                                embedded inode and the externalized
                                inode file's block pointers)
    block 1 ...                 cylinder groups, each:
        +0                      group descriptor (free counts, rotors)
        +1                      block usage bitmap
        +2 .. +2+gdt-1          group-descriptor table (one 256-byte
                                descriptor per aligned 16-block extent
                                of the data area)
        +data_start ..          data blocks

There is no static inode table: inodes are embedded in directory
blocks, externalized into the inode file, or (for the root) in the
superblock.
"""

from __future__ import annotations

import struct

from repro.blockdev.device import BLOCK_SIZE
from repro.ffs.layout import NDIRECT

CFFS_MAGIC = 0x0CFF5197

# ---------------------------------------------------------------------------
# The C-FFS inode: 96 bytes, embedded in directories or stored in the
# external inode file (padded to 128 there).
# ---------------------------------------------------------------------------

CINODE_SIZE = 96
# fileid, mode, nlink, flags, gen, size, mtime, 12 direct, indirect,
# dindirect, nblocks.
_CINODE_FMT = "<QHHHHQd12IIII4x"
_CINODE_STRUCT = struct.Struct(_CINODE_FMT)
assert _CINODE_STRUCT.size == CINODE_SIZE

MODE_FREE = 0
MODE_FILE = 1
MODE_DIR = 2


def pack_cinode(
    fileid: int, mode: int, nlink: int, flags: int, gen: int,
    size: int, mtime: float, direct, indirect: int, dindirect: int, nblocks: int,
) -> bytes:
    if len(direct) != NDIRECT:
        raise ValueError("inode needs exactly %d direct pointers" % NDIRECT)
    return _CINODE_STRUCT.pack(
        fileid, mode, nlink, flags, gen, size, mtime,
        *direct, indirect, dindirect, nblocks,
    )


def unpack_cinode(data: bytes) -> dict:
    fields = _CINODE_STRUCT.unpack_from(data, 0)
    return {
        "fileid": fields[0],
        "mode": fields[1],
        "nlink": fields[2],
        "flags": fields[3],
        "gen": fields[4],
        "size": fields[5],
        "mtime": fields[6],
        "direct": list(fields[7:19]),
        "indirect": fields[19],
        "dindirect": fields[20],
        "nblocks": fields[21],
    }


# ---------------------------------------------------------------------------
# Group (extent) descriptors: 256 bytes, 16 per block.
# ---------------------------------------------------------------------------

GROUP_SPAN = 16                    # blocks per extent (64 KB)
GDESC_SIZE = 256
GDESC_PER_BLOCK = BLOCK_SIZE // GDESC_SIZE

EXT_FREE = 0      # no blocks of the extent are allocated
EXT_GROUPED = 1   # the extent is an explicit group owned by a directory
EXT_UNGROUPED = 2 # blocks allocated individually (large files, metadata)

# state, valid_mask, owner dirid, then GROUP_SPAN slots of (fileid, file
# block index).
_GDESC_HEAD_FMT = "<HHQ4x"
_GDESC_SLOT_FMT = "<QI"
_GDESC_SLOT_SIZE = struct.calcsize(_GDESC_SLOT_FMT)  # 12
_GDESC_HEAD_SIZE = struct.calcsize(_GDESC_HEAD_FMT)  # 16
# Head and slots in one precompiled Struct: "<" disables alignment, so
# the 12-byte slots sit contiguously right after the 16-byte head —
# byte-identical to packing each piece separately.
_GDESC_STRUCT = struct.Struct(_GDESC_HEAD_FMT + "QI" * GROUP_SPAN)
assert _GDESC_STRUCT.size == _GDESC_HEAD_SIZE + GROUP_SPAN * _GDESC_SLOT_SIZE
assert _GDESC_STRUCT.size <= GDESC_SIZE

# The pieces one state transition touches, for reading and editing a
# descriptor in place in its cached block: the head without its pad
# (state, valid_mask, owner) at offset 0, either 16-bit head field alone
# (state at GDESC_STATE_OFFSET, mask at GDESC_MASK_OFFSET), and one slot
# record at gdesc_slot_offset(slot).
GDESC_HEAD = struct.Struct("<HHQ")
GDESC_U16 = struct.Struct("<H")
GDESC_STATE_OFFSET = 0
GDESC_MASK_OFFSET = 2
GDESC_SLOT = struct.Struct(_GDESC_SLOT_FMT)


def gdesc_slot_offset(slot: int) -> int:
    return _GDESC_HEAD_SIZE + slot * _GDESC_SLOT_SIZE


# Tie the pieces to the whole: a descriptor packed in one go must read
# back piece by piece.
_probe = _GDESC_STRUCT.pack(1, 2, 3, *range(4, 4 + 2 * GROUP_SPAN))
assert GDESC_HEAD.unpack_from(_probe, 0) == (1, 2, 3)
assert GDESC_U16.unpack_from(_probe, GDESC_STATE_OFFSET) == (1,)
assert GDESC_U16.unpack_from(_probe, GDESC_MASK_OFFSET) == (2,)
assert all(
    GDESC_SLOT.unpack_from(_probe, gdesc_slot_offset(s)) == (4 + 2 * s, 5 + 2 * s)
    for s in range(GROUP_SPAN)
)
del _probe


def pack_gdesc(state: int, valid_mask: int, owner: int, slots) -> bytes:
    """``slots`` is a list of GROUP_SPAN (fileid, fblock) pairs."""
    if len(slots) != GROUP_SPAN:
        raise ValueError("descriptor needs exactly %d slots" % GROUP_SPAN)
    out = bytearray(GDESC_SIZE)
    flat = [v for pair in slots for v in pair]
    _GDESC_STRUCT.pack_into(out, 0, state, valid_mask, owner, *flat)
    return bytes(out)


def unpack_gdesc_from(data: bytes, offset: int = 0) -> dict:
    """Decode a descriptor in place (no slice copy of the source)."""
    fields = _GDESC_STRUCT.unpack_from(data, offset)
    return {
        "state": fields[0],
        "valid_mask": fields[1],
        "owner": fields[2],
        "slots": list(zip(fields[3::2], fields[4::2])),
    }


# ---------------------------------------------------------------------------
# Superblock.
# ---------------------------------------------------------------------------

# magic, version, total_blocks, n_cgs, blocks_per_cg, gdt_blocks,
# data_start, group_span, config_flags, next_fileid, next_gen,
# free_blocks, ext table: size + direct/indirect/dindirect,
# journal_start, journal_blocks (zero when no log region was
# reserved), then the root's embedded inode.
_SB_FMT = "<IIIIIIIII QQQ Q12III II"

# config_flags bits.
SBF_EMBEDDED_INODES = 0x1
SBF_EXPLICIT_GROUPING = 0x2
_SB_SIZE = struct.calcsize(_SB_FMT)
SB_ROOT_INODE_OFFSET = (_SB_SIZE + 7) // 8 * 8


def pack_superblock(sb: dict, root_inode_bytes: bytes) -> bytes:
    if len(root_inode_bytes) != CINODE_SIZE:
        raise ValueError("root inode must be %d bytes" % CINODE_SIZE)
    head = struct.pack(
        _SB_FMT,
        sb["magic"], sb["version"], sb["total_blocks"], sb["n_cgs"],
        sb["blocks_per_cg"], sb["gdt_blocks"], sb["data_start"],
        sb["group_span"], sb["config_flags"],
        sb["next_fileid"], sb["next_gen"], sb["free_blocks"],
        sb["ext_size"], *sb["ext_direct"], sb["ext_indirect"], sb["ext_dindirect"],
        sb.get("journal_start", 0), sb.get("journal_blocks", 0),
    )
    out = bytearray(BLOCK_SIZE)
    out[:len(head)] = head
    out[SB_ROOT_INODE_OFFSET:SB_ROOT_INODE_OFFSET + CINODE_SIZE] = root_inode_bytes
    return bytes(out)


def unpack_superblock(data: bytes) -> dict:
    fields = struct.unpack_from(_SB_FMT, data, 0)
    return {
        "magic": fields[0],
        "version": fields[1],
        "total_blocks": fields[2],
        "n_cgs": fields[3],
        "blocks_per_cg": fields[4],
        "gdt_blocks": fields[5],
        "data_start": fields[6],
        "group_span": fields[7],
        "config_flags": fields[8],
        "next_fileid": fields[9],
        "next_gen": fields[10],
        "free_blocks": fields[11],
        "ext_size": fields[12],
        "ext_direct": list(fields[13:25]),
        "ext_indirect": fields[25],
        "ext_dindirect": fields[26],
        "journal_start": fields[27],
        "journal_blocks": fields[28],
    }


def root_inode_bytes(data: bytes) -> bytes:
    return bytes(data[SB_ROOT_INODE_OFFSET:SB_ROOT_INODE_OFFSET + CINODE_SIZE])


# ---------------------------------------------------------------------------
# Embedded-inode directory entries.
# ---------------------------------------------------------------------------

SECTOR_SIZE = 512
SECTORS_PER_DIR_BLOCK = BLOCK_SIZE // SECTOR_SIZE

# Entry header: reclen, namelen, etype, kind.
DENT_HEADER_FMT = "<HBBB3x"
DENT_HEADER_SIZE = struct.calcsize(DENT_HEADER_FMT)  # 8
DENT_ALIGN = 4

ET_FREE = 0
ET_EMBEDDED = 1   # payload: 96-byte inode
ET_EXTERNAL = 2   # payload: 8-byte external inode number

DK_FILE = 1
DK_DIR = 2

EXTERNAL_REF_SIZE = 8


def dent_payload_size(etype: int) -> int:
    if etype == ET_EMBEDDED:
        return CINODE_SIZE
    if etype == ET_EXTERNAL:
        return EXTERNAL_REF_SIZE
    return 0


def dent_size(namelen: int, etype: int) -> int:
    """Bytes an entry occupies: header, padded name, payload.  One
    expression (``_pad`` and ``dent_payload_size`` spelled out): the
    directory walks ask this once per live record."""
    return (DENT_HEADER_SIZE + ((namelen + DENT_ALIGN - 1) & -DENT_ALIGN)
            + (CINODE_SIZE if etype == ET_EMBEDDED
               else EXTERNAL_REF_SIZE if etype == ET_EXTERNAL else 0))


def _pad(n: int) -> int:
    # DENT_ALIGN is a power of two, so round up with a mask.
    return (n + DENT_ALIGN - 1) & -DENT_ALIGN


def max_name_for_sector() -> int:
    """Longest name an embedded entry can carry: what fits in one sector
    beside its inode, and what the header's one-byte ``namelen`` holds."""
    return min(SECTOR_SIZE - DENT_HEADER_SIZE - CINODE_SIZE, 0xFF)
