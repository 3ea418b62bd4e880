"""Embedded-inode directory blocks.

A directory block is eight *independent* 512-byte sectors, each tiled
by variable-length entries (header, padded name, payload).  An entry's
payload is either a full 96-byte embedded inode or an 8-byte external
inode number.  Keeping every entry inside one sector is the integrity
trick the paper leans on: sector writes are atomic, so a name and its
inode can never be torn apart by a crash, which removes one ordering
constraint from create and delete [Ganger94].

Within a sector, removal merges the freed record into its predecessor,
so live entries never move and cached (block, offset) inode locations
stay valid.
"""

from __future__ import annotations

import struct
from typing import Iterator, List, Optional, Tuple

from repro.blockdev.device import BLOCK_SIZE
from repro.errors import CorruptFileSystem, InvalidArgument, NameTooLong
from repro.core.layout import (
    DENT_ALIGN,
    DENT_HEADER_FMT,
    DENT_HEADER_SIZE,
    DK_DIR as DK_DIR,          # re-exported: callers address these through
    DK_FILE as DK_FILE,        # this module as the directory-format namespace
    ET_EMBEDDED as ET_EMBEDDED,
    ET_EXTERNAL as ET_EXTERNAL,
    ET_FREE,
    SECTOR_SIZE,
    SECTORS_PER_DIR_BLOCK,
    _pad,
    dent_payload_size,
    dent_size,
    max_name_for_sector,
)

# (entry offset in block, reclen, etype, kind, name, payload offset in block)
DirEntry = Tuple[int, int, int, int, str, int]
# (offset in block, reclen, namelen, etype, kind, room): one chain record.
Record = Tuple[int, int, int, int, int, int]

# Precompiled header codec: the scan loops below decode one header per
# entry per lookup, which makes this the hottest struct in the tree.
_DENT_HEADER = struct.Struct(DENT_HEADER_FMT)
_IDENT = struct.Struct("<Q")


def init_block() -> bytearray:
    """A fresh directory block: every sector one free record."""
    block = bytearray(BLOCK_SIZE)
    for s in range(SECTORS_PER_DIR_BLOCK):
        _DENT_HEADER.pack_into(block, s * SECTOR_SIZE, SECTOR_SIZE, 0, ET_FREE, 0)
    return block


def _headers(block: bytes, sector: int,
             stop: Optional[bytes] = None) -> Optional[List[Record]]:
    """The one validated chain walk: the records of one sector, live
    and free, in chain order, names untouched; a free record's room is
    its length, a live one's the slack past its header, padded name and
    payload.  With ``stop``, the records up to and including the first
    live one whose stored name is those bytes, or None if there is no
    such record.  A record length that is too small to hold a header,
    overruns the sector or leaves a tail no header fits in ends in
    ``CorruptFileSystem``; so does a live record of an unknown type or
    too short for its padded name and its type's payload."""
    unpack_header = _DENT_HEADER.unpack_from
    offset = sector * SECTOR_SIZE
    end = offset + SECTOR_SIZE
    last_header = end - DENT_HEADER_SIZE
    stop_len = -1 if stop is None else len(stop)
    records: List[Record] = []
    append = records.append
    while offset <= last_header:
        reclen, namelen, etype, kind = unpack_header(block, offset)
        if reclen < DENT_HEADER_SIZE or offset + reclen > end:
            raise CorruptFileSystem(
                "bad embedded dirent reclen %d at offset %d" % (reclen, offset)
            )
        room = reclen
        if etype != ET_FREE:
            room -= dent_size(namelen, etype)
            if etype > ET_EXTERNAL or room < 0:
                raise CorruptFileSystem(
                    "embedded dirent at offset %d (type %d, name %d bytes) "
                    "does not fit its reclen %d" % (offset, etype, namelen, reclen)
                )
        append((offset, reclen, namelen, etype, kind, room))
        if (namelen == stop_len and etype != ET_FREE
                and block.startswith(stop, offset + DENT_HEADER_SIZE)):
            return records
        offset += reclen
    if offset != end:
        raise CorruptFileSystem("embedded dirent chain does not tile the sector")
    return records if stop is None else None


def iter_block(block: bytes) -> Iterator[Tuple[int, DirEntry]]:
    """All entries (live and free) of a block as (sector, entry) pairs,
    each sector's in chain order."""
    for s in range(SECTORS_PER_DIR_BLOCK):
        for offset, reclen, namelen, etype, kind, _room in _headers(block, s):
            name_off = offset + DENT_HEADER_SIZE
            if etype != ET_FREE and namelen:
                # str() accepts bytes and bytearray alike, so callers can
                # hand the cache's live buffer in without a copy.
                name = str(block[name_off:name_off + namelen], "utf-8", "replace")
            else:
                name = ""
            payload_off = name_off + ((namelen + DENT_ALIGN - 1) & -DENT_ALIGN)
            yield s, (offset, reclen, etype, kind, name, payload_off)


def live_entries(block: bytes) -> List[Tuple[int, DirEntry]]:
    return [(s, e) for s, e in iter_block(block) if e[2] != ET_FREE]


def entry_ident(block: bytes, payload_off: int) -> int:
    """The identifier an entry's payload leads with: an embedded inode
    starts with its fileid and an external ref *is* the inode number,
    so one 64-bit read serves either."""
    return _IDENT.unpack_from(block, payload_off)[0]


def scan_block(block: bytes, blk: int) -> Tuple[List[tuple], List[tuple]]:
    """What the directory index keeps of block ``blk``, from one walk
    per sector: its live entries as (name, (etype, kind, blk,
    entry_off, payload_off, ident)), ``ident`` as in
    :func:`entry_ident`, and (slot, largest insertion) pairs, every
    sector its own slot."""
    ident_at = _IDENT.unpack_from
    entries, slots = [], []
    for s in range(SECTORS_PER_DIR_BLOCK):
        best = 0
        for offset, _reclen, namelen, etype, kind, room in _headers(block, s):
            if room > best:
                best = room
            if etype != ET_FREE:
                name_off = offset + DENT_HEADER_SIZE
                name = str(block[name_off:name_off + namelen], "utf-8", "replace")
                payload_off = name_off + ((namelen + DENT_ALIGN - 1) & -DENT_ALIGN)
                entries.append((name, (etype, kind, blk, offset, payload_off,
                                       ident_at(block, payload_off)[0])))
        slots.append(((blk, s), best))
    return entries, slots


def add_entry(
    block: bytearray, sector: int, name: str, etype: int, kind: int, payload: bytes
) -> Optional[Tuple[int, int]]:
    """Insert an entry into the first record of one sector with room;
    returns (payload offset, block-relative; the largest insertion the
    sector accepts afterwards), or None (block untouched) when the
    sector lacks space."""
    if etype == ET_FREE:
        raise InvalidArgument("cannot insert a free entry")
    encoded = name.encode("utf-8")
    if len(encoded) > max_name_for_sector():
        raise NameTooLong("name %r cannot share a sector with an inode" % name)
    if len(payload) != dent_payload_size(etype):
        raise InvalidArgument("payload size does not match entry type")
    needed = dent_size(len(encoded), etype)
    target = None
    best = 0
    for record in _headers(block, sector):
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
    offset, reclen, namelen, cur_etype, cur_kind, room = target
    if cur_etype == ET_FREE:
        # Claim the free record, leaving the remainder free; slack too
        # small for a header is absorbed into the new entry.
        remainder = reclen - needed
        if remainder >= DENT_HEADER_SIZE:
            _DENT_HEADER.pack_into(block, offset + needed, remainder, 0, ET_FREE, 0)
            reclen = needed
    else:
        # Split the slack off the live entry.
        used = reclen - room
        _DENT_HEADER.pack_into(block, offset, used, namelen, cur_etype, cur_kind)
        offset += used
        reclen -= used
    _DENT_HEADER.pack_into(block, offset, reclen, len(encoded), etype, kind)
    name_off = offset + DENT_HEADER_SIZE
    payload_off = name_off + _pad(len(encoded))
    block[name_off:payload_off] = encoded + bytes(payload_off - name_off - len(encoded))
    block[payload_off:payload_off + len(payload)] = payload
    return payload_off, best


def remove_entry(block: bytearray, name: str) -> Optional[Tuple[int, int]]:
    """Remove ``name`` from whichever sector holds it; returns (its
    sector, the insertion the record that took its space now accepts),
    or None if absent."""
    for sector in range(SECTORS_PER_DIR_BLOCK):
        freed = remove_from_sector(block, sector, name)
        if freed is not None:
            return sector, freed
    return None


def remove_from_sector(block: bytearray, sector: int, name: str) -> Optional[int]:
    """Remove ``name`` from one sector; returns the insertion the record
    that took its space now accepts, or None (sector untouched) if the
    sector does not hold it.

    Only that one record's room changed, so the sector's largest
    insertion is the larger of what it was and the result."""
    if "\ufffd" in name:
        records = _chain_to_decoded(block, sector, name)
    else:
        records = _headers(block, sector, name.encode("utf-8"))
    if records is None:
        return None
    offset, reclen = records[-1][:2]
    if len(records) == 1:
        _DENT_HEADER.pack_into(block, offset, reclen, 0, ET_FREE, 0)
        # Scrub the payload so stale inodes never look live.
        block[offset + DENT_HEADER_SIZE:offset + reclen] = bytes(
            reclen - DENT_HEADER_SIZE)
        return reclen
    p_offset, p_reclen, p_namelen, p_etype, p_kind, p_room = records[-2]
    _DENT_HEADER.pack_into(
        block, p_offset, p_reclen + reclen, p_namelen, p_etype, p_kind)
    block[offset:offset + reclen] = bytes(reclen)
    return p_room + reclen


def _chain_to_decoded(block: bytes, sector: int, name: str) -> Optional[List[Record]]:
    """The sector's records up to the first live one whose name decodes
    to ``name``: a stored name that is not UTF-8 reads back with U+FFFD
    in it, so a name containing one can match other bytes than its own."""
    records = _headers(block, sector)
    for i, (off, _reclen, namelen, etype, _kind, _room) in enumerate(records):
        off += DENT_HEADER_SIZE
        if etype != ET_FREE and str(block[off:off + namelen], "utf-8", "replace") == name:
            return records[:i + 1]
    return None


def change_entry_type(
    block: bytearray, entry_off: int, new_etype: int, payload: bytes
) -> Tuple[int, int]:
    """Convert an entry between embedded and external in place.

    The record length never changes (external payloads are smaller than
    embedded ones, so conversion always fits); returns (the new payload
    offset, the insertion the retyped record now accepts).
    """
    reclen, namelen, etype, kind = _DENT_HEADER.unpack_from(block, entry_off)
    if etype == ET_FREE:
        raise InvalidArgument("cannot retype a free entry")
    needed = dent_size(namelen, new_etype)
    if needed > reclen:
        raise InvalidArgument("entry too small for new payload")
    _DENT_HEADER.pack_into(block, entry_off, reclen, namelen, new_etype, kind)
    payload_off = entry_off + DENT_HEADER_SIZE + _pad(namelen)
    end = entry_off + reclen
    block[payload_off:end] = payload + bytes(end - payload_off - len(payload))
    return payload_off, reclen - needed
