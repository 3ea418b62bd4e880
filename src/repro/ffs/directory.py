"""FFS directory block format: name -> inode number entries.

A directory data block is a chain of variable-length entries whose
record lengths tile the 4 KB block exactly (the 4.4BSD format).  An
entry with ``inum == 0`` is free space; removal merges the freed record
into its predecessor so live entries never move, which keeps cached
(block, offset) references stable.
"""

from __future__ import annotations

import struct
from typing import Iterator, List, Optional, Tuple

from repro.blockdev.device import BLOCK_SIZE
from repro.errors import CorruptFileSystem, InvalidArgument
from repro.ffs.layout import (
    DIRENT_HEADER_FMT,
    DIRENT_HEADER_SIZE,
    dirent_size,
)

# (offset, inum, kind, name, reclen)
DirEntry = Tuple[int, int, int, str, int]

# Precompiled header codec: the chain walks below decode one header per
# record per lookup/insert/remove, making this the hottest struct in
# the FFS tree (the C-FFS analogue lives in repro.core.directory).
_DIRENT_HEADER = struct.Struct(DIRENT_HEADER_FMT)


def init_block() -> bytearray:
    """A fresh directory block: one free entry spanning everything."""
    block = bytearray(BLOCK_SIZE)
    _DIRENT_HEADER.pack_into(block, 0, 0, BLOCK_SIZE, 0, 0)
    return block


def iter_entries(block: bytes) -> Iterator[DirEntry]:
    """Yield every record (live and free) in chain order."""
    offset = 0
    while offset < BLOCK_SIZE:
        inum, reclen, namelen, kind = _DIRENT_HEADER.unpack_from(block, offset)
        if reclen < DIRENT_HEADER_SIZE or offset + reclen > BLOCK_SIZE:
            raise CorruptFileSystem(
                "bad dirent reclen %d at offset %d" % (reclen, offset)
            )
        name = ""
        if inum != 0 and namelen:
            raw = bytes(block[offset + DIRENT_HEADER_SIZE:offset + DIRENT_HEADER_SIZE + namelen])
            name = raw.decode("utf-8", errors="replace")
        yield offset, inum, kind, name, reclen
        offset += reclen
    if offset != BLOCK_SIZE:
        raise CorruptFileSystem("dirent chain does not tile the block")


def live_entries(block: bytes) -> List[Tuple[str, int, int]]:
    """All (name, inum, kind) triples of live entries."""
    return [(name, inum, kind) for _, inum, kind, name, _ in iter_entries(block) if inum != 0]


def index_entries(block: bytes, blk: int) -> List[Tuple[str, Tuple[int, int, int]]]:
    """Live entries of directory block ``blk`` as the directory index
    keeps them: (name, (inum, kind, blk))."""
    return [(name, (inum, kind, blk)) for name, inum, kind in live_entries(block)]


def free_slots(block: bytes, blk: int) -> Tuple[Tuple[int, int], ...]:
    """(slot, largest insertion) pairs: a whole block is one slot."""
    return ((blk, free_bytes(block)),)


def find_entry(block: bytes, name: str) -> Optional[Tuple[int, int]]:
    """Locate ``name``: returns (inum, kind) or None."""
    for _, inum, kind, entry_name, _ in iter_entries(block):
        if inum != 0 and entry_name == name:
            return inum, kind
    return None


def free_bytes(block: bytes) -> int:
    """Largest insertion the block can accept right now."""
    best = 0
    for _, inum, _, entry_name, reclen in iter_entries(block):
        if inum == 0:
            avail = reclen
        else:
            avail = reclen - dirent_size(len(entry_name.encode("utf-8")))
        best = max(best, avail)
    return best


def add_entry(block: bytearray, inum: int, kind: int, name: str) -> bool:
    """Insert an entry; returns False if no record has enough slack."""
    if inum == 0:
        raise InvalidArgument("inum 0 is reserved for free records")
    encoded = name.encode("utf-8")
    needed = dirent_size(len(encoded))
    offset = 0
    while offset < BLOCK_SIZE:
        cur_inum, reclen, namelen, cur_kind = _DIRENT_HEADER.unpack_from(
            block, offset
        )
        if cur_inum == 0 and reclen >= needed:
            # Claim the free record, leaving the remainder free.
            _write_entry(block, offset, inum, needed, kind, encoded)
            remainder = reclen - needed
            if remainder >= DIRENT_HEADER_SIZE:
                _DIRENT_HEADER.pack_into(
                    block, offset + needed, 0, remainder, 0, 0
                )
            else:
                # Absorb unusable slack into the new entry.
                _DIRENT_HEADER.pack_into(
                    block, offset, inum, needed + remainder,
                    len(encoded), kind,
                )
            return True
        if cur_inum != 0:
            used = dirent_size(namelen)
            slack = reclen - used
            if slack >= needed:
                # Split the slack off the live entry.
                _DIRENT_HEADER.pack_into(
                    block, offset, cur_inum, used, namelen, cur_kind
                )
                _write_entry(block, offset + used, inum, slack, kind, encoded)
                return True
        offset += reclen
    return False


def remove_entry(block: bytearray, name: str) -> Optional[int]:
    """Remove ``name``; returns its inum or None if absent.

    The freed record merges into its predecessor (or becomes a free
    record when it heads the chain), so other entries stay in place.
    """
    prev_offset = None
    offset = 0
    while offset < BLOCK_SIZE:
        inum, reclen, namelen, kind = _DIRENT_HEADER.unpack_from(block, offset)
        if inum != 0:
            raw = bytes(block[offset + DIRENT_HEADER_SIZE:offset + DIRENT_HEADER_SIZE + namelen])
            if raw.decode("utf-8", errors="replace") == name:
                if prev_offset is None:
                    _DIRENT_HEADER.pack_into(block, offset, 0, reclen, 0, 0)
                else:
                    p_inum, p_reclen, p_namelen, p_kind = _DIRENT_HEADER.unpack_from(
                        block, prev_offset
                    )
                    _DIRENT_HEADER.pack_into(
                        block, prev_offset,
                        p_inum, p_reclen + reclen, p_namelen, p_kind,
                    )
                return inum
        prev_offset = offset
        offset += reclen
    return None


def _write_entry(
    block: bytearray, offset: int, inum: int, reclen: int, kind: int, encoded: bytes
) -> None:
    _DIRENT_HEADER.pack_into(block, offset, inum, reclen, len(encoded), kind)
    block[offset + DIRENT_HEADER_SIZE:offset + DIRENT_HEADER_SIZE + len(encoded)] = encoded
