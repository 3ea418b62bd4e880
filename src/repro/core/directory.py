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


def _headers(block: bytes, sector: int) -> Iterator[Tuple[int, int, int, int, int]]:
    """The one validated chain walk: (offset, reclen, namelen, etype,
    kind) of every record of one sector, live and free, names
    untouched.  A record length that is too small to hold a header,
    overruns the sector or leaves a tail no header fits in ends in
    ``CorruptFileSystem``."""
    unpack_header = _DENT_HEADER.unpack_from
    offset = sector * SECTOR_SIZE
    end = offset + SECTOR_SIZE
    last_header = end - DENT_HEADER_SIZE
    while offset <= last_header:
        reclen, namelen, etype, kind = unpack_header(block, offset)
        if reclen < DENT_HEADER_SIZE or offset + reclen > end:
            raise CorruptFileSystem(
                "bad embedded dirent reclen %d at offset %d" % (reclen, offset)
            )
        yield offset, reclen, namelen, etype, kind
        offset += reclen
    if offset != end:
        raise CorruptFileSystem("embedded dirent chain does not tile the sector")


def iter_block(block: bytes) -> Iterator[Tuple[int, DirEntry]]:
    """All entries (live and free) of a block as (sector, entry) pairs,
    each sector's in chain order."""
    for s in range(SECTORS_PER_DIR_BLOCK):
        for offset, reclen, namelen, etype, kind in _headers(block, s):
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


def index_entries(block: bytes, blk: int) -> List[Tuple[str, tuple]]:
    """Live entries of directory block ``blk`` as the directory index
    keeps them: (name, (etype, kind, blk, entry_off, payload_off,
    ident)), ``ident`` as in :func:`entry_ident`."""
    ident_at = _IDENT.unpack_from
    return [
        (name, (etype, kind, blk, off, payload_off,
                ident_at(block, payload_off)[0]))
        for _, (off, _reclen, etype, kind, name, payload_off)
        in iter_block(block) if etype != ET_FREE
    ]


def free_slots(block: bytes, blk: int) -> List[Tuple[Tuple[int, int], int]]:
    """(slot, largest insertion) pairs: every sector is its own slot."""
    return [((blk, s), sector_free_bytes(block, s))
            for s in range(SECTORS_PER_DIR_BLOCK)]


def sector_free_bytes(block: bytes, sector: int) -> int:
    """Largest insertion this sector can accept: the index scan asks
    once per sector; an edit reports the new value itself."""
    best = 0
    for _, reclen, namelen, etype, _ in _headers(block, sector):
        avail = reclen if etype == ET_FREE else reclen - dent_size(namelen, etype)
        if avail > best:
            best = avail
    return best


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
        _, reclen, namelen, cur_etype, _ = record
        avail = reclen if cur_etype == ET_FREE else reclen - dent_size(namelen, cur_etype)
        if target is None and avail >= needed:
            target = record
            # Whichever way the record is split, what is left of its
            # room is one piece of this size.
            avail -= needed
        if avail > best:
            best = avail
    if target is None:
        return None
    offset, reclen, namelen, cur_etype, cur_kind = target
    if cur_etype == ET_FREE:
        # Claim the free record, leaving the remainder free; slack too
        # small for a header is absorbed into the new entry.
        remainder = reclen - needed
        if remainder >= DENT_HEADER_SIZE:
            _DENT_HEADER.pack_into(block, offset + needed, remainder, 0, ET_FREE, 0)
            reclen = needed
    else:
        # Split the slack off the live entry.
        used = dent_size(namelen, cur_etype)
        _DENT_HEADER.pack_into(block, offset, used, namelen, cur_etype, cur_kind)
        offset += used
        reclen -= used
    _write_entry(block, offset, reclen, etype, kind, encoded, payload)
    return offset + DENT_HEADER_SIZE + _pad(len(encoded)), best


def _write_entry(
    block: bytearray, offset: int, reclen: int, etype: int, kind: int,
    encoded: bytes, payload: bytes,
) -> None:
    _DENT_HEADER.pack_into(block, offset, reclen, len(encoded), etype, kind)
    name_off = offset + DENT_HEADER_SIZE
    block[name_off:name_off + _pad(len(encoded))] = encoded + bytes(
        _pad(len(encoded)) - len(encoded)
    )
    payload_off = name_off + _pad(len(encoded))
    block[payload_off:payload_off + len(payload)] = payload


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
    encoded = name.encode("utf-8")
    n = len(encoded)
    # A stored name that is not UTF-8 reads back with U+FFFD in it, so
    # only a name containing one can match other bytes than its own.
    lossy = "\ufffd" in name
    prev = None
    for record in _headers(block, sector):
        offset, reclen, namelen, etype, _ = record
        name_off = offset + DENT_HEADER_SIZE
        if etype != ET_FREE and (
            (namelen == n and block.startswith(encoded, name_off))
            or (lossy and str(block[name_off:name_off + namelen],
                              "utf-8", "replace") == name)
        ):
            if prev is None:
                _DENT_HEADER.pack_into(block, offset, reclen, 0, ET_FREE, 0)
                # Scrub the payload so stale inodes never look live.
                block[name_off:offset + reclen] = bytes(reclen - DENT_HEADER_SIZE)
                return reclen
            p_offset, p_reclen, p_namelen, p_etype, p_kind = prev
            p_reclen += reclen
            _DENT_HEADER.pack_into(
                block, p_offset, p_reclen, p_namelen, p_etype, p_kind)
            block[offset:offset + reclen] = bytes(reclen)
            if p_etype != ET_FREE:
                p_reclen -= dent_size(p_namelen, p_etype)
            return p_reclen
        prev = record
    return None


def rewrite_payload(block: bytearray, payload_off: int, payload: bytes) -> None:
    """Update an entry's payload in place (embedded inode writeback)."""
    block[payload_off:payload_off + len(payload)] = payload


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
    block[payload_off:payload_off + reclen - (DENT_HEADER_SIZE + _pad(namelen))] = bytes(
        reclen - DENT_HEADER_SIZE - _pad(namelen)
    )
    block[payload_off:payload_off + len(payload)] = payload
    return payload_off, reclen - needed
