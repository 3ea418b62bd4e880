"""The one checksum and the per-block checksum sidecar codec.

:data:`crc32` is stdlib :func:`zlib.crc32` (CRC-32, the IEEE 802.3
polynomial), bound directly so the hot path pays no python frame.  It
is the only checksum in the tree: the resilience sidecar and header,
the journal's records, and the cluster's sealed ``/.cluster`` records
and content checks all import this name.  ``crc32(data, prev)``
continues a run.

Every usable block of a resilient device carries its 4-byte checksum
in a reserved sidecar region at the tail of the underlying device.
Sidecar layout: checksums are stored little-endian, packed 1024 to a
4 KB block; the checksum of logical block *b* lives at sidecar block
``b // 1024``, offset ``(b % 1024) * 4``.
"""

from __future__ import annotations

import struct
import zlib
from typing import List

crc32 = zlib.crc32

#: Checksum entries per 4 KB sidecar block.
CRCS_PER_BLOCK = 1024

_CRC_BLOCK = struct.Struct("<%dI" % CRCS_PER_BLOCK)


def pack_crc_block(crcs: List[int]) -> bytes:
    """Pack exactly :data:`CRCS_PER_BLOCK` checksums into block bytes."""
    return _CRC_BLOCK.pack(*crcs)


def unpack_crc_block(raw: bytes) -> List[int]:
    """The :data:`CRCS_PER_BLOCK` checksums held in one sidecar block."""
    return list(_CRC_BLOCK.unpack(raw))


__all__ = [
    "CRCS_PER_BLOCK",
    "crc32",
    "pack_crc_block",
    "unpack_crc_block",
]
