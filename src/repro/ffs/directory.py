"""FFS directory block format: name -> inode number entries.

A directory data block is a chain of variable-length entries whose
record lengths tile the 4 KB block exactly (the 4.4BSD format).  An
entry with ``inum == 0`` is free space; removal merges the freed record
into its predecessor so live entries never move, which keeps cached
(block, offset) references stable.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Tuple

from repro.blockdev.device import BLOCK_SIZE
from repro.errors import CorruptFileSystem, InvalidArgument
from repro.ffs.layout import (
    DIRENT_ALIGN as _ALIGN,
    DIRENT_HEADER_FMT,
    DIRENT_HEADER_SIZE,
    dirent_size,
)

# (offset, inum, reclen, namelen, kind, room): one chain record.
Record = Tuple[int, int, int, int, int, int]

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


def _headers(block: bytes,
             stop: Optional[bytes] = None) -> Optional[List[Record]]:
    """The one validated chain walk: the records, live and free, in
    chain order, names untouched; a free record's room is its length, a
    live one's the slack past its header and name.  With ``stop``, the
    records up to and including the first live one whose stored name is
    those bytes, or None if there is no such record.  A record length
    that is too small to hold a header, overruns the block or leaves a
    tail no header fits in ends in ``CorruptFileSystem``."""
    unpack_header = _DIRENT_HEADER.unpack_from
    offset = 0
    stop_len = -1 if stop is None else len(stop)
    records: List[Record] = []
    append = records.append
    while offset <= _LAST_HEADER:
        inum, reclen, namelen, kind = unpack_header(block, offset)
        if reclen < DIRENT_HEADER_SIZE or offset + reclen > BLOCK_SIZE:
            raise CorruptFileSystem(
                "bad dirent reclen %d at offset %d" % (reclen, offset)
            )
        # The stored namelen, not the name, sizes a live record (what
        # add_entry splits by): layout.dirent_size, spelled out.
        append((offset, inum, reclen, namelen, kind, reclen if inum == 0 else
                reclen - ((DIRENT_HEADER_SIZE + namelen + _ALIGN - 1) & -_ALIGN)))
        if (namelen == stop_len and inum != 0
                and block.startswith(stop, offset + DIRENT_HEADER_SIZE)):
            return records
        offset += reclen
    if offset != BLOCK_SIZE:
        raise CorruptFileSystem("dirent chain does not tile the block")
    return records if stop is None else None


def live_entries(block: bytes) -> List[Tuple[str, int, int]]:
    """All (name, inum, kind) triples of live entries, in chain order."""
    return [(name, inum, kind) for name, (inum, kind, _) in scan_block(block, 0)[0]]


def scan_block(block: bytes, blk: int) -> Tuple[List[tuple], Tuple[tuple]]:
    """What the directory index keeps of block ``blk``, from one walk:
    its live entries as (name, (inum, kind, blk)) and the one (slot,
    largest insertion) pair, a whole block being one slot."""
    entries = []
    best = 0
    for offset, inum, _reclen, namelen, kind, room in _headers(block):
        if room > best:
            best = room
        if inum != 0:
            name_off = offset + DIRENT_HEADER_SIZE
            name = str(block[name_off:name_off + namelen], "utf-8", "replace")
            entries.append((name, (inum, kind, blk)))
    return entries, ((blk, best),)


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
        room = record[5]
        if target is None and room >= needed:
            target = record
            # Whichever way the record is split, what is left of its
            # room is one piece of this size.
            room -= needed
        if room > best:
            best = room
    if target is None:
        return None
    offset, cur_inum, reclen, namelen, cur_kind, room = target
    if cur_inum == 0:
        # Claim the free record, leaving the remainder free; slack too
        # small for a header is absorbed into the new entry.
        remainder = reclen - needed
        if remainder >= DIRENT_HEADER_SIZE:
            _DIRENT_HEADER.pack_into(block, offset + needed, 0, remainder, 0, 0)
            reclen = needed
    else:
        # Split the slack off the live entry.
        used = reclen - room
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
    if "\ufffd" in name:
        records = _chain_to_decoded(block, name)
    else:
        records = _headers(block, name.encode("utf-8"))
    if records is None:
        return None
    offset, inum, reclen = records[-1][:3]
    if len(records) == 1:
        _DIRENT_HEADER.pack_into(block, offset, 0, reclen, 0, 0)
        return inum, reclen
    p_offset, p_inum, p_reclen, p_namelen, p_kind, p_room = records[-2]
    _DIRENT_HEADER.pack_into(
        block, p_offset, p_inum, p_reclen + reclen, p_namelen, p_kind)
    return inum, p_room + reclen


def _chain_to_decoded(block: bytes, name: str) -> Optional[List[Record]]:
    """The records up to the first live one whose name decodes to
    ``name``: a stored name that is not UTF-8 reads back with U+FFFD in
    it, so a name containing one can match other bytes than its own."""
    records = _headers(block)
    for i, (off, inum, _reclen, namelen, _kind, _room) in enumerate(records):
        off += DIRENT_HEADER_SIZE
        if inum != 0 and str(block[off:off + namelen], "utf-8", "replace") == name:
            return records[:i + 1]
    return None
