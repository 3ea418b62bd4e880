"""The block device: lossless data storage plus drive timing.

Data is held at this layer (the drive is timing-only), so on-board
caching and write-behind can never corrupt state.  Blocks are 4 KB —
the paper's C-FFS "currently does not support ... fragments (the units
of allocation are 4 KB blocks)" — and unwritten blocks read as zeros.

Devices can be persisted to sparse image files (``save_image`` /
``load_image``), which is what the ``python -m repro`` CLI operates on.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from typing import Dict, Iterable, List, Optional, Sequence

from repro.disk.drive import SimulatedDisk
from repro.disk.geometry import SECTOR_SIZE
from repro.disk.profiles import PROFILES, DriveProfile
from repro.blockdev.scheduler import clook_order, coalesce_blocks
from repro.errors import AddressError, InvalidArgument

BLOCK_SIZE = 4096
SECTORS_PER_BLOCK = BLOCK_SIZE // SECTOR_SIZE

ZERO_BLOCK = bytes(BLOCK_SIZE)

_IMAGE_MAGIC = b"CFFSIMG1"


def block_image(data: bytes) -> bytes:
    """``data`` as the immutable image of one block, checked before it
    becomes anyone's state.  ``bytes`` is returned as it is, so every
    holder of a block version — device store, cache buffer, fault
    recorder — shares one object; anything mutable (``bytearray``,
    ``memoryview``) is snapshotted here."""
    if len(data) != BLOCK_SIZE:
        raise ValueError("a block is exactly %d bytes" % BLOCK_SIZE)
    return data if type(data) is bytes else bytes(data)


class BatchedIO:
    """``read_batch`` / ``write_batch`` for every device class.

    The plan — C-LOOK order from the arm's position, adjacent runs
    coalesced — is made here once; the requests go through the
    instance's own ``read_extent`` / ``write_extent``, so a proxy's
    faults, checksums or capture apply to each one.  Needs ``disk``.
    """

    def write_batch(self, writes: Dict[int, bytes]) -> int:
        """Write many blocks: C-LOOK order, adjacent runs coalesced.

        Returns the number of disk requests issued.  This is the path
        the buffer cache uses to flush, and the coalescing is what lets
        explicitly-grouped blocks travel as single requests.
        """
        if not writes:
            return 0
        head = self.disk.current_lba_estimate() // SECTORS_PER_BLOCK
        ordered = clook_order(writes.keys(), head)
        nrequests = 0
        for start, count in coalesce_blocks(ordered):
            self.write_extent(start, [writes[b] for b in range(start, start + count)])
            nrequests += 1
        return nrequests

    def read_batch(self, block_numbers: Iterable[int]) -> Dict[int, bytes]:
        """Read many blocks: C-LOOK order, adjacent runs coalesced."""
        blocks = list(block_numbers)
        if not blocks:
            return {}
        head = self.disk.current_lba_estimate() // SECTORS_PER_BLOCK
        ordered = clook_order(blocks, head)
        out: Dict[int, bytes] = {}
        for start, count in coalesce_blocks(ordered):
            data = self.read_extent(start, count)
            for i in range(count):
                out[start + i] = data[i]
        return out


class BlockDevice(BatchedIO):
    """4 KB-block view of a simulated disk with scatter/gather batches."""

    def __init__(self, profile: DriveProfile) -> None:
        self.disk = SimulatedDisk(profile)
        self.clock = self.disk.clock
        self.total_blocks = self.disk.total_sectors // SECTORS_PER_BLOCK
        self._blocks: Dict[int, bytes] = {}

    # -- single-block operations ---------------------------------------------

    def read_block(self, bno: int) -> bytes:
        """Read one block (timed)."""
        self._check(bno, 1)
        self.disk.read(bno * SECTORS_PER_BLOCK, SECTORS_PER_BLOCK)
        return self._blocks.get(bno, ZERO_BLOCK)

    def write_block(self, bno: int, data: bytes) -> None:
        """Write one block (timed)."""
        self._check(bno, 1)
        image = block_image(data)
        self.disk.write(bno * SECTORS_PER_BLOCK, SECTORS_PER_BLOCK)
        self._blocks[bno] = image

    # -- extent operations ----------------------------------------------------

    def read_extent(self, start: int, count: int) -> List[bytes]:
        """Read ``count`` adjacent blocks in one disk request."""
        self._check(start, count)
        self.disk.read(start * SECTORS_PER_BLOCK, count * SECTORS_PER_BLOCK)
        return [self._blocks.get(b, ZERO_BLOCK) for b in range(start, start + count)]

    def write_extent(self, start: int, blocks: Sequence[bytes]) -> None:
        """Write adjacent blocks in one scatter/gather disk request."""
        count = len(blocks)
        self._check(start, count)
        images = [block_image(data) for data in blocks]
        self.disk.write(start * SECTORS_PER_BLOCK, count * SECTORS_PER_BLOCK)
        self._blocks.update(zip(range(start, start + count), images))

    # -- maintenance ------------------------------------------------------------

    def flush(self) -> None:
        """Drain the drive's write-behind buffer (end-of-phase barrier)."""
        self.disk.flush_write_buffer()

    def peek_block(self, bno: int) -> bytes:
        """Read data without timing (used by fsck-style offline tools
        when the experiment explicitly excludes their cost, and by
        tests)."""
        self._check(bno, 1)
        return self._blocks.get(bno, ZERO_BLOCK)

    def content_digest(self) -> str:
        """SHA-256 over the device's logical contents (hex).

        Hashes ``(block number, payload)`` in block order, skipping
        blocks that hold only zeros (an unwritten block and an
        explicitly zeroed one read identically, so they must digest
        identically).  Unlike hashing a ``save_image`` file this is
        independent of the compressor, which makes it the right
        fingerprint for differential tests comparing disk images
        across code changes.
        """
        hasher = hashlib.sha256()
        pack = struct.Struct("<Q").pack
        for bno in sorted(self._blocks):
            data = self._blocks[bno]
            if data == ZERO_BLOCK:
                continue
            hasher.update(pack(bno))
            hasher.update(data)
        return hasher.hexdigest()

    def poke_block(self, bno: int, data: bytes) -> None:
        """Write data without timing (test corruption injection)."""
        self._check(bno, 1)
        self._blocks[bno] = block_image(data)

    # -- image persistence -------------------------------------------------------

    def save_image(self, path: str) -> None:
        """Write a sparse, compressed image of the device to ``path``.

        Only written blocks are stored; the drive profile travels by
        name so a later :meth:`load_image` restores the same timing
        model.
        """
        payload = bytearray()
        for bno in sorted(self._blocks):
            payload += struct.pack("<Q", bno)
            payload += self._blocks[bno]
        compressed = zlib.compress(bytes(payload), level=6)
        name = self.disk.profile.name.encode("utf-8")
        with open(path, "wb") as handle:
            handle.write(_IMAGE_MAGIC)
            handle.write(struct.pack("<H", len(name)))
            handle.write(name)
            handle.write(struct.pack("<QQ", self.total_blocks, len(self._blocks)))
            handle.write(compressed)

    @classmethod
    def load_image(cls, path: str, profile: Optional[DriveProfile] = None) -> "BlockDevice":
        """Restore a device saved with :meth:`save_image`."""
        with open(path, "rb") as handle:
            if handle.read(len(_IMAGE_MAGIC)) != _IMAGE_MAGIC:
                raise InvalidArgument("%s is not a device image" % path)
            (name_len,) = struct.unpack("<H", handle.read(2))
            name = handle.read(name_len).decode("utf-8")
            total_blocks, n_blocks = struct.unpack("<QQ", handle.read(16))
            payload = zlib.decompress(handle.read())
        if profile is None:
            profile = PROFILES.get(name)
            if profile is None:
                raise InvalidArgument(
                    "image was made with unknown drive profile %r" % name
                )
        device = cls(profile)
        if device.total_blocks != total_blocks:
            raise InvalidArgument(
                "image has %d blocks but profile %r provides %d"
                % (total_blocks, profile.name, device.total_blocks)
            )
        record = struct.calcsize("<Q") + BLOCK_SIZE
        if len(payload) != n_blocks * record:
            raise InvalidArgument("image payload is truncated")
        for i in range(n_blocks):
            off = i * record
            (bno,) = struct.unpack_from("<Q", payload, off)
            device._blocks[bno] = bytes(payload[off + 8:off + record])
        return device

    def _check(self, bno: int, count: int) -> None:
        if count <= 0:
            raise AddressError("extent must cover at least one block")
        if bno < 0 or bno + count > self.total_blocks:
            raise AddressError(
                "blocks [%d, %d) outside device of %d blocks"
                % (bno, bno + count, self.total_blocks)
            )
