"""FFS directory block format: name -> inode number entries.

A directory data block is a chain of variable-length entries whose
record lengths tile the 4 KB block exactly (the 4.4BSD format).  An
entry with ``inum == 0`` is free space; removal merges the freed record
into its predecessor so live entries never move, which keeps cached
(block, offset) references stable.

An insert does not walk the block: it takes the block's *room list*,
``(offset, room)`` for every record with room in chain order, built by
one validated walk (``room_list``) and kept from what the edits return
(``add_entry`` updates it, ``merge_room`` applies a removal).
"""

from __future__ import annotations

import struct
from bisect import bisect_left
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
# (offset, room) of every record with room, in chain order.
Rooms = List[Tuple[int, int]]

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
    tail no header fits in, or a live record shorter than its header
    and padded name, ends in ``CorruptFileSystem``."""
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
        room = reclen if inum == 0 else (
            reclen - ((DIRENT_HEADER_SIZE + namelen + _ALIGN - 1) & -_ALIGN))
        if room < 0:
            raise CorruptFileSystem(
                "dirent reclen %d at offset %d is shorter than its name"
                % (reclen, offset))
        append((offset, inum, reclen, namelen, kind, room))
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


def room_list(block: bytes) -> Rooms:
    """The block's room list, from one validated walk: ``(offset,
    room)`` of every record that can take an insert, in chain order."""
    return [(record[0], record[5]) for record in _headers(block) if record[5]]


def add_entry(block: bytearray, rooms: Rooms, inum: int, kind: int,
              name: str) -> Optional[int]:
    """Insert an entry into the first record of ``rooms`` with room;
    returns the largest insertion the block accepts afterwards, or None
    (block untouched) when no record has enough slack.

    Only the target's header is read, and it must agree with its list
    entry (else ``CorruptFileSystem``, block untouched).  The list was
    built from a validated chain and every edit stays inside one record,
    so the chain stays valid; ``rooms`` is updated in place."""
    if inum == 0:
        raise InvalidArgument("inum 0 is reserved for free records")
    encoded = name.encode("utf-8")
    needed = dirent_size(len(encoded))
    for i, (offset, room) in enumerate(rooms):
        if room >= needed:
            break
    else:
        return None
    cur_inum, reclen, namelen, cur_kind = _DIRENT_HEADER.unpack_from(block, offset)
    if (offset + reclen > BLOCK_SIZE
            or room != (reclen if cur_inum == 0 else reclen - dirent_size(namelen))):
        raise CorruptFileSystem(
            "dirent at offset %d disagrees with the block's room list" % offset)
    # Whichever way the record is split, what is left of its room is
    # one piece: a free remainder, or the new entry's slack.
    left = room - needed
    piece = offset
    if cur_inum == 0:
        # Claim the free record, leaving the remainder free; slack too
        # small for a header is absorbed into the new entry.
        if left >= DIRENT_HEADER_SIZE:
            piece = offset + needed
            _DIRENT_HEADER.pack_into(block, piece, 0, left, 0, 0)
            reclen = needed
    else:
        # Split the slack off the live entry.
        used = reclen - room
        _DIRENT_HEADER.pack_into(block, offset, cur_inum, used, namelen, cur_kind)
        offset += used
        reclen -= used
        piece = offset
    _DIRENT_HEADER.pack_into(block, offset, inum, reclen, len(encoded), kind)
    name_off = offset + DIRENT_HEADER_SIZE
    block[name_off:name_off + len(encoded)] = encoded
    if left:
        rooms[i] = (piece, left)
    else:
        del rooms[i]
    return max([room for _offset, room in rooms], default=0)


def remove_entry(block: bytearray,
                 name: str) -> Optional[Tuple[int, int, int, int]]:
    """Remove ``name``; returns (its inum, then the offset, length and
    room of the record that took its space), or None if absent.

    The freed record merges into its predecessor (or becomes a free
    record when it heads the chain), so other entries stay in place —
    and only that one record's room changed, so the block's largest
    insertion is the larger of what it was and the returned room.
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
        return inum, offset, reclen, reclen
    p_offset, p_inum, p_reclen, p_namelen, p_kind, p_room = records[-2]
    _DIRENT_HEADER.pack_into(
        block, p_offset, p_inum, p_reclen + reclen, p_namelen, p_kind)
    return inum, p_offset, p_reclen + reclen, p_room + reclen


def merge_room(rooms: Rooms, offset: int, reclen: int, room: int) -> None:
    """Apply a removal to a room list: the ``reclen`` bytes at
    ``offset`` are now one record with ``room`` (what ``remove_entry``
    returned after its inum), replacing the entries inside it."""
    first = bisect_left(rooms, (offset,))
    rooms[first:bisect_left(rooms, (offset + reclen,), first)] = [(offset, room)]


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
