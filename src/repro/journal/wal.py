"""The write-ahead metadata journal: on-disk log format and writer.

Layout (after the FTOS-FFS style of carving a log region out of the
volume): the superblock records ``journal_start``/``journal_blocks``,
a run of blocks in the post-cylinder-group tail, just before the
superblock replica::

    journal_start          header block (magic, checkpoint sequence)
    journal_start + 1 ...  transactions, appended in order:
        descriptor block   seq, block numbers covered, CRC-32
        data blocks        full 4 KB after-images, one per number
        commit block       seq, count, CRC-32 over the data images

Every record is CRC-32-protected (the same checksum the resilience
layer uses) so replay can tell a committed transaction from
a torn tail without trusting anything outside the log.  Sequence
numbers increase monotonically across the volume's life; the header's
``checkpoint_seq`` says which transactions are already reflected in
their home locations, so replay applies exactly the committed run
``checkpoint_seq + 1, checkpoint_seq + 2, ...`` and stops at the first
record that is missing, torn, or out of sequence.

The writer side is the cache write-pipeline implementation:

- ordered metadata updates are *noted* (:meth:`Journal.note`) by the
  file system when it dirties the block;
- a *group commit* (:meth:`Journal.commit`) bundles every noted block
  into one transaction written with two sequential extent requests —
  this is where journaling earns its keep, many random metadata writes
  become one log append;
- commits happen before any noted block goes home (``pre_flush`` /
  ``ready``), so the log always contains what the home locations are
  about to become;
- a *checkpoint* (``post_flush``) runs after the home writes land:
  any committed images not yet home are written, the header advances,
  and the log head resets to the start of the region.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.blockdev.device import BLOCK_SIZE, BlockDevice
from repro.cache.buffercache import BufferCache
from repro.errors import JournalCorrupt
from repro.resilience.checksums import crc32

JOURNAL_MAGIC = b"CFFSJRNL"
#: 2 = checksums are zlib CRC-32; any other version is refused.
JOURNAL_VERSION = 2

DESC_MAGIC = 0x4A445343    # "JDSC"
COMMIT_MAGIC = 0x4A434D54  # "JCMT"

#: Smallest region a journal will run in: header + descriptor + one
#: data block + commit still leave room to breathe.
MIN_JOURNAL_BLOCKS = 8

# Header: magic, version, nblocks, checkpoint_seq (+ trailing CRC-32).
_JHDR_FMT = "<8sIIQ"
_JHDR_SIZE = struct.calcsize(_JHDR_FMT)
# Descriptor / commit record heads (+ payload, + trailing CRC-32).
_JDESC_FMT = "<IQI"   # magic, seq, count; then count block numbers
_JDESC_SIZE = struct.calcsize(_JDESC_FMT)
_JCOMMIT_FMT = "<IQII"  # magic, seq, count, data_crc
_JCOMMIT_SIZE = struct.calcsize(_JCOMMIT_FMT)
_CRC = struct.Struct("<I")

#: Block numbers one descriptor block can carry.
MAX_TXN_BLOCKS = (BLOCK_SIZE - _JDESC_SIZE - _CRC.size) // 4


def default_journal_blocks(total_blocks: int) -> int:
    """Auto-sized log region: ~1.5% of the volume, clamped sane."""
    return max(32, min(1024, total_blocks // 64))


def _seal(body: bytes) -> bytes:
    """``body`` + CRC-32, zero-padded to one block."""
    sealed = body + _CRC.pack(crc32(body))
    return sealed + bytes(BLOCK_SIZE - len(sealed))


def pack_header(nblocks: int, checkpoint_seq: int) -> bytes:
    return _seal(struct.pack(
        _JHDR_FMT, JOURNAL_MAGIC, JOURNAL_VERSION, nblocks, checkpoint_seq))


def unpack_header(raw: bytes) -> Optional[dict]:
    """Parsed header fields, or None when the block is not a journal
    header (wrong magic or CRC mismatch); a journal header of another
    format version raises :class:`JournalCorrupt` naming it."""
    magic, version, nblocks, checkpoint_seq = struct.unpack_from(_JHDR_FMT, raw, 0)
    if magic != JOURNAL_MAGIC:
        return None
    if version != JOURNAL_VERSION:
        raise JournalCorrupt(
            "journal format version %d unsupported" % version)
    (crc,) = _CRC.unpack_from(raw, _JHDR_SIZE)
    if crc != crc32(raw[:_JHDR_SIZE]):
        return None
    return {"nblocks": nblocks, "checkpoint_seq": checkpoint_seq}


def pack_descriptor(seq: int, bnos: Sequence[int]) -> bytes:
    body = struct.pack(_JDESC_FMT, DESC_MAGIC, seq, len(bnos))
    body += struct.pack("<%dI" % len(bnos), *bnos)
    return _seal(body)


def parse_descriptor(raw: bytes) -> Optional[Tuple[int, List[int]]]:
    magic, seq, count = struct.unpack_from(_JDESC_FMT, raw, 0)
    if magic != DESC_MAGIC or not 0 < count <= MAX_TXN_BLOCKS:
        return None
    body_size = _JDESC_SIZE + 4 * count
    (crc,) = _CRC.unpack_from(raw, body_size)
    if crc != crc32(raw[:body_size]):
        return None
    bnos = list(struct.unpack_from("<%dI" % count, raw, _JDESC_SIZE))
    return seq, bnos


def pack_commit(seq: int, count: int, data_crc: int) -> bytes:
    return _seal(struct.pack(_JCOMMIT_FMT, COMMIT_MAGIC, seq, count, data_crc))


def parse_commit(raw: bytes) -> Optional[Tuple[int, int, int]]:
    magic, seq, count, data_crc = struct.unpack_from(_JCOMMIT_FMT, raw, 0)
    if magic != COMMIT_MAGIC:
        return None
    (crc,) = _CRC.unpack_from(raw, _JCOMMIT_SIZE)
    if crc != crc32(raw[:_JCOMMIT_SIZE]):
        return None
    return seq, count, data_crc


def extent_crc(images: Sequence[bytes]) -> int:
    """One CRC-32 over a transaction's data images, in order."""
    crc = 0
    for image in images:
        crc = crc32(image, crc)
    return crc


class Journal:
    """The log writer; implements the cache write-pipeline contract."""

    def __init__(self, device: BlockDevice, cache: BufferCache,
                 start: int, nblocks: int) -> None:
        if nblocks < MIN_JOURNAL_BLOCKS:
            raise JournalCorrupt(
                "journal region of %d blocks is below the minimum of %d"
                % (nblocks, MIN_JOURNAL_BLOCKS))
        header = unpack_header(device.peek_block(start))
        if header is None or header["nblocks"] != nblocks:
            raise JournalCorrupt(
                "no valid journal header at block %d" % start)
        self.device = device
        self.cache = cache
        self.start = start
        self.nblocks = nblocks
        self._seq = header["checkpoint_seq"]
        self._checkpoint_seq = header["checkpoint_seq"]
        self._head = start + 1
        self._noted: Set[int] = set()     # dirty blocks of the open txn
        self._unhomed: Dict[int, bytes] = {}  # committed, not yet home

    @classmethod
    def format(cls, device: BlockDevice, start: int, nblocks: int) -> None:
        """Initialize a fresh (empty, checkpointed) log region."""
        if nblocks < MIN_JOURNAL_BLOCKS:
            raise JournalCorrupt(
                "journal region of %d blocks is below the minimum of %d"
                % (nblocks, MIN_JOURNAL_BLOCKS))
        # Header plus a zeroed first descriptor slot: replay of a fresh
        # region stops immediately, whatever the device held before.
        device.write_extent(start, [pack_header(nblocks, 0), bytes(BLOCK_SIZE)])

    # -- transaction building ---------------------------------------------------

    def note(self, bno: int) -> None:
        """Add a dirtied metadata block to the open transaction."""
        self._noted.add(bno)

    def commit(self) -> int:
        """Group-commit every noted block to the log; returns blocks
        logged.  Safe to call with nothing noted (no-op)."""
        if not self._noted:
            return 0
        bnos = sorted(self._noted)
        self._noted.clear()
        images: Dict[int, bytes] = {}
        for bno in bnos:
            buf = self.cache.peek(bno)
            images[bno] = (bytes(buf.image) if buf is not None
                           else self.device.peek_block(bno))
        logged = 0
        with obs.span("journal", "commit", blocks=len(bnos)) as sp:
            while bnos:
                avail = self.start + self.nblocks - self._head - 2
                if avail < 1:
                    self.checkpoint()
                    avail = self.nblocks - 3
                chunk = bnos[:min(len(bnos), avail, MAX_TXN_BLOCKS)]
                bnos = bnos[len(chunk):]
                seq = self._seq + 1
                data = [images[b] for b in chunk]
                self.device.write_extent(
                    self._head, [pack_descriptor(seq, chunk)] + data)
                self.device.write_extent(
                    self._head + 1 + len(chunk),
                    [pack_commit(seq, len(chunk), extent_crc(data))])
                self._head += len(chunk) + 2
                self._seq = seq
                for b in chunk:
                    self._unhomed[b] = images[b]
                logged += len(chunk)
                sp.incr("log_blocks", len(chunk) + 2)
        obs.count("journal.commits")
        obs.count("journal.commit_blocks", logged)
        return logged

    def checkpoint(self) -> None:
        """Write home any committed images that have not landed there,
        advance the header's checkpoint sequence, and reset the head."""
        if self._unhomed:
            self.device.write_batch(dict(self._unhomed))
            self._unhomed.clear()
        if self._seq == self._checkpoint_seq and self._head == self.start + 1:
            return  # nothing committed since the last checkpoint
        self.device.write_block(self.start, pack_header(self.nblocks, self._seq))
        self._checkpoint_seq = self._seq
        self._head = self.start + 1
        obs.count("journal.checkpoints")

    # -- cache write-pipeline contract -------------------------------------------

    def prepare(self, bno: int, data: bytes):
        if bno in self._noted:
            # A noted block must not go home before its commit record.
            self.commit()
        return (data, True)

    def committed(self, bnos) -> None:
        for bno in bnos:
            self._unhomed.pop(bno, None)

    def ready(self, bno: int) -> bool:
        if bno in self._noted:
            self.commit()
        return True

    def pre_flush(self) -> None:
        self.commit()

    def post_flush(self) -> None:
        self.checkpoint()

    def forgotten(self, bno: int) -> None:
        # The block was freed without being written: drop it from the
        # open transaction, and never write its stale committed image
        # home (the log copy, if any, is harmless — the block is free).
        self._noted.discard(bno)
        self._unhomed.pop(bno, None)
