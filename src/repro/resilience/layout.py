"""On-disk layout of the resilience region.

A resilient device reserves the tail of the underlying device::

    [ usable blocks ... | CRC sidecar | spare pool | header ]

- the *CRC sidecar* holds one CRC-32 per usable block
  (:mod:`repro.resilience.checksums`);
- the *spare pool* supplies replacement blocks for bad-block remapping;
- the *header* (always the last physical block) carries the region's
  magic, the geometry, the remap table (logical block -> spare index),
  and the lost-block list, all protected by a trailing CRC-32 so fsck
  and :meth:`ResilientBlockDevice.attach` can tell a real header from
  noise.

Checksums are keyed by *logical* block number: a remapped block keeps
its sidecar slot, so verified reads work identically before and after
a remap.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from repro.blockdev.device import BLOCK_SIZE
from repro.errors import CorruptFileSystem, InvalidArgument
from repro.resilience.checksums import CRCS_PER_BLOCK, crc32

RESILIENCE_MAGIC = b"CFRESIL1"

#: Fixed-size header prefix: magic, version, usable blocks, CRC-sidecar
#: blocks, spare-pool size, spares consumed, remap entries, lost entries.
_HEADER = struct.Struct("<8sHQIIIII")
#: One remap entry: logical block, spare index.
_REMAP_ENTRY = struct.Struct("<QI")
#: One lost-block entry.
_LOST_ENTRY = struct.Struct("<Q")
_CRC_TRAILER = struct.Struct("<I")

#: 2 = checksums are zlib CRC-32; any other version is refused.
HEADER_VERSION = 2


def crc_blocks_for(usable_blocks: int) -> int:
    """Sidecar blocks needed to checksum ``usable_blocks`` blocks."""
    return (usable_blocks + CRCS_PER_BLOCK - 1) // CRCS_PER_BLOCK


@dataclass(frozen=True)
class ResilienceGeometry:
    """Where the reserved region lives on the underlying device."""

    total_blocks: int      # physical blocks of the underlying device
    usable_blocks: int     # logical blocks exposed upward
    n_crc_blocks: int
    n_spares: int

    @property
    def crc_start(self) -> int:
        return self.usable_blocks

    @property
    def spare_start(self) -> int:
        return self.usable_blocks + self.n_crc_blocks

    @property
    def header_block(self) -> int:
        return self.total_blocks - 1

    def crc_location(self, bno: int) -> Tuple[int, int]:
        """(sidecar block, byte offset) of logical block ``bno``'s CRC."""
        return (self.crc_start + bno // CRCS_PER_BLOCK,
                (bno % CRCS_PER_BLOCK) * 4)

    def spare_block(self, index: int) -> int:
        """Physical block number of the ``index``-th spare."""
        return self.spare_start + index


def compute_geometry(total_blocks: int, n_spares: int) -> ResilienceGeometry:
    """Carve ``total_blocks`` into usable + sidecar + spares + header."""
    if n_spares < 1:
        raise InvalidArgument("spare pool needs at least 1 block")
    usable = total_blocks - n_spares - 1
    while True:
        n_crc = crc_blocks_for(usable)
        fitted = total_blocks - n_spares - 1 - n_crc
        if fitted == usable:
            break
        usable = fitted
    if usable <= 0:
        raise InvalidArgument(
            "device of %d blocks cannot fit a resilience region with %d spares"
            % (total_blocks, n_spares))
    return ResilienceGeometry(total_blocks, usable, n_crc, n_spares)


@dataclass
class ResilienceHeader:
    """The mutable state persisted in the header block."""

    geometry: ResilienceGeometry
    spares_used: int = 0
    remap: Dict[int, int] = field(default_factory=dict)   # logical -> spare idx
    lost: Set[int] = field(default_factory=set)           # logical blocks

    def phys(self, bno: int) -> int:
        """The physical block holding logical block ``bno``: its spare
        when remapped, else its home location."""
        spare = self.remap.get(bno)
        return bno if spare is None else self.geometry.spare_block(spare)

    def pack(self) -> bytes:
        geo = self.geometry
        body = bytearray(_HEADER.pack(
            RESILIENCE_MAGIC, HEADER_VERSION, geo.usable_blocks,
            geo.n_crc_blocks, geo.n_spares, self.spares_used,
            len(self.remap), len(self.lost)))
        for logical in sorted(self.remap):
            body += _REMAP_ENTRY.pack(logical, self.remap[logical])
        for logical in sorted(self.lost):
            body += _LOST_ENTRY.pack(logical)
        if len(body) + _CRC_TRAILER.size > BLOCK_SIZE:
            raise InvalidArgument(
                "resilience header overflows one block "
                "(%d remaps, %d lost)" % (len(self.remap), len(self.lost)))
        body += _CRC_TRAILER.pack(crc32(body))
        return bytes(body) + bytes(BLOCK_SIZE - len(body))


def try_unpack_header(raw: bytes, total_blocks: int) -> Optional[ResilienceHeader]:
    """Decode a header block; None when it is not a resilience header.

    A wrong magic means "not a resilient device" (None); a right magic
    with a bad CRC or inconsistent geometry is reported as corruption.
    """
    if raw[:len(RESILIENCE_MAGIC)] != RESILIENCE_MAGIC:
        return None
    (_, version, usable, n_crc, n_spares,
     spares_used, n_remaps, n_lost) = _HEADER.unpack_from(raw, 0)
    if version != HEADER_VERSION:
        raise CorruptFileSystem(
            "resilience header version %d unsupported" % version)
    body_len = (_HEADER.size + n_remaps * _REMAP_ENTRY.size
                + n_lost * _LOST_ENTRY.size)
    if body_len + _CRC_TRAILER.size > BLOCK_SIZE:
        raise CorruptFileSystem("resilience header entry counts overflow")
    (stored_crc,) = _CRC_TRAILER.unpack_from(raw, body_len)
    if crc32(raw[:body_len]) != stored_crc:
        raise CorruptFileSystem("resilience header CRC mismatch")
    geo = ResilienceGeometry(total_blocks, usable, n_crc, n_spares)
    if (geo.usable_blocks + geo.n_crc_blocks + geo.n_spares + 1
            != total_blocks):
        raise CorruptFileSystem(
            "resilience header geometry does not cover the device "
            "(%d + %d + %d + 1 != %d)"
            % (usable, n_crc, n_spares, total_blocks))
    header = ResilienceHeader(geo, spares_used=spares_used)
    off = _HEADER.size
    for _ in range(n_remaps):
        logical, spare = _REMAP_ENTRY.unpack_from(raw, off)
        off += _REMAP_ENTRY.size
        header.remap[logical] = spare
    for _ in range(n_lost):
        (logical,) = _LOST_ENTRY.unpack_from(raw, off)
        off += _LOST_ENTRY.size
        header.lost.add(logical)
    return header


__all__ = [
    "HEADER_VERSION",
    "RESILIENCE_MAGIC",
    "ResilienceGeometry",
    "ResilienceHeader",
    "compute_geometry",
    "crc_blocks_for",
    "try_unpack_header",
]
