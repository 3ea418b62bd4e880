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
# Last offset at which a whole header still fits in the block.
_LAST_HEADER = BLOCK_SIZE - DIRENT_HEADER_SIZE


def init_block() -> bytearray:
    """A fresh directory block: one free entry spanning everything."""
    block = bytearray(BLOCK_SIZE)
    _DIRENT_HEADER.pack_into(block, 0, 0, BLOCK_SIZE, 0, 0)
    return block


def _headers(block: bytes) -> Iterator[Tuple[int, int, int, int, int]]:
    """The one validated chain walk: (offset, inum, reclen, namelen,
    kind) of every record, live and free, names untouched.  A record
    length that is too small to hold a header, overruns the block or
    leaves a tail no header fits in ends in ``CorruptFileSystem``."""
    unpack_header = _DIRENT_HEADER.unpack_from
    offset = 0
    while offset <= _LAST_HEADER:
        inum, reclen, namelen, kind = unpack_header(block, offset)
        if reclen < DIRENT_HEADER_SIZE or offset + reclen > BLOCK_SIZE:
            raise CorruptFileSystem(
                "bad dirent reclen %d at offset %d" % (reclen, offset)
            )
        yield offset, inum, reclen, namelen, kind
        offset += reclen
    if offset != BLOCK_SIZE:
        raise CorruptFileSystem("dirent chain does not tile the block")


def iter_entries(block: bytes) -> Iterator[DirEntry]:
    """Yield every record (live and free) in chain order."""
    for offset, inum, reclen, namelen, kind in _headers(block):
        name = ""
        if inum != 0 and namelen:
            name_off = offset + DIRENT_HEADER_SIZE
            name = str(block[name_off:name_off + namelen], "utf-8", "replace")
        yield offset, inum, kind, name, reclen


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


def free_bytes(block: bytes) -> int:
    """Largest insertion the block can accept right now: the index scan
    asks once per block; an edit reports the new value itself."""
    best = 0
    for _, inum, reclen, namelen, _ in _headers(block):
        # The stored namelen, not the name: what add_entry splits by.
        avail = reclen if inum == 0 else reclen - dirent_size(namelen)
        if avail > best:
            best = avail
    return best


def add_entry(block: bytearray, inum: int, kind: int, name: str) -> Optional[int]:
    """Insert an entry into the first record with room; returns the
    largest insertion the block accepts afterwards, or None (block
    untouched) when no record has enough slack."""
    if inum == 0:
        raise InvalidArgument("inum 0 is reserved for free records")
    encoded = name.encode("utf-8")
    needed = dirent_size(len(encoded))
    target = None
    best = 0
    for record in _headers(block):
        _, cur_inum, reclen, namelen, _ = record
        avail = reclen if cur_inum == 0 else reclen - dirent_size(namelen)
        if target is None and avail >= needed:
            target = record
            # Whichever way the record is split, what is left of its
            # room is one piece of this size.
            avail -= needed
        if avail > best:
            best = avail
    if target is None:
        return None
    offset, cur_inum, reclen, namelen, cur_kind = target
    if cur_inum == 0:
        # Claim the free record, leaving the remainder free; slack too
        # small for a header is absorbed into the new entry.
        remainder = reclen - needed
        if remainder >= DIRENT_HEADER_SIZE:
            _DIRENT_HEADER.pack_into(block, offset + needed, 0, remainder, 0, 0)
            reclen = needed
    else:
        # Split the slack off the live entry.
        used = dirent_size(namelen)
        _DIRENT_HEADER.pack_into(block, offset, cur_inum, used, namelen, cur_kind)
        offset += used
        reclen -= used
    _DIRENT_HEADER.pack_into(block, offset, inum, reclen, len(encoded), kind)
    name_off = offset + DIRENT_HEADER_SIZE
    block[name_off:name_off + len(encoded)] = encoded
    return best


def remove_entry(block: bytearray, name: str) -> Optional[Tuple[int, int]]:
    """Remove ``name``; returns (its inum, the insertion the record that
    took its space now accepts), or None if absent.

    The freed record merges into its predecessor (or becomes a free
    record when it heads the chain), so other entries stay in place —
    and only that one record's room changed, so the block's largest
    insertion is the larger of what it was and the second result.
    """
    encoded = name.encode("utf-8")
    n = len(encoded)
    # A stored name that is not UTF-8 reads back with U+FFFD in it, so
    # only a name containing one can match other bytes than its own.
    lossy = "\ufffd" in name
    prev = None
    for record in _headers(block):
        offset, inum, reclen, namelen, _ = record
        name_off = offset + DIRENT_HEADER_SIZE
        if inum != 0 and (
            (namelen == n and block.startswith(encoded, name_off))
            or (lossy and str(block[name_off:name_off + namelen],
                              "utf-8", "replace") == name)
        ):
            if prev is None:
                _DIRENT_HEADER.pack_into(block, offset, 0, reclen, 0, 0)
                return inum, reclen
            p_offset, p_inum, p_reclen, p_namelen, p_kind = prev
            p_reclen += reclen
            _DIRENT_HEADER.pack_into(
                block, p_offset, p_inum, p_reclen, p_namelen, p_kind)
            if p_inum != 0:
                p_reclen -= dirent_size(p_namelen)
            return inum, p_reclen
        prev = record
    return None
