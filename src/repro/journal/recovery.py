"""Journal replay and log inspection.

Replay is the fast-remount path: read the log region sequentially,
apply the committed transactions newer than the checkpoint to their
home locations, and advance the checkpoint.  It comes in two flavors:

- :func:`replay_journal` — offline/untimed (``peek``/``poke``), used
  by fsck before its walk so the walk sees the post-replay state;
- :func:`timed_replay` — the mount path: sequential extent reads and
  one batched home write, all charged to the simulated clock.  This is
  what the ≥10x-faster-than-fsck remount claim measures.

Replay is idempotent (transactions carry full after-images, and the
checkpoint advance empties the log), and a torn tail — a transaction
whose descriptor, data, or commit record is missing or fails its
CRC-32 — is discarded, never applied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro import obs
from repro.blockdev.device import BlockDevice
from repro.errors import JournalCorrupt, ReplayError
from repro.journal import wal


@dataclass
class TxnRecord:
    """One transaction found in the log."""

    seq: int
    bnos: List[int]
    status: str  # "committed" | "torn"
    images: Optional[List[bytes]] = None

    @property
    def committed(self) -> bool:
        return self.status == "committed"


@dataclass
class JournalScan:
    """Everything a pass over the log region learned."""

    start: int
    nblocks: int
    checkpoint_seq: int
    txns: List[TxnRecord] = field(default_factory=list)

    @property
    def replayable(self) -> List[TxnRecord]:
        return [t for t in self.txns if t.committed]


@dataclass
class ReplayStats:
    """What one replay applied."""

    txns: int = 0
    blocks: int = 0
    discarded: int = 0  # torn-tail transactions dropped
    elapsed: float = 0.0  # simulated seconds (timed replay only)


#: Log blocks one timed read of the replay scan fetches.
_READ_CHUNK = 32


class _ExtentReader:
    """Sequential, chunked, timed reads over the log region."""

    def __init__(self, device: BlockDevice, end: int) -> None:
        self.device = device
        self.end = end
        self._have: Dict[int, bytes] = {}

    def read(self, bno: int) -> bytes:
        if bno not in self._have:
            count = min(_READ_CHUNK, self.end - bno)
            for i, raw in enumerate(self.device.read_extent(bno, count)):
                self._have[bno + i] = raw
        return self._have[bno]


def scan_journal(
    device: BlockDevice,
    start: int,
    nblocks: int,
    read: Optional[Callable[[int], bytes]] = None,
) -> JournalScan:
    """Parse the log region: header, then the run of transactions after
    the checkpoint, stopping at the first stale, torn, or missing
    record.  ``read`` defaults to untimed :meth:`peek_block`."""
    if read is None:
        read = device.peek_block
    header = wal.unpack_header(read(start))
    if header is None:
        raise JournalCorrupt("no valid journal header at block %d" % start)
    if header["nblocks"] != nblocks:
        raise JournalCorrupt(
            "journal header says %d blocks, superblock says %d"
            % (header["nblocks"], nblocks))
    scan = JournalScan(start, nblocks, header["checkpoint_seq"])
    pos = start + 1
    end = start + nblocks
    expect = header["checkpoint_seq"] + 1
    while pos < end:
        desc = wal.parse_descriptor(read(pos))
        if desc is None:
            break  # end of log (or torn descriptor: nothing after it counts)
        seq, bnos = desc
        if seq != expect:
            break  # stale record from before the checkpoint
        if pos + len(bnos) + 2 > end:
            scan.txns.append(TxnRecord(seq, bnos, "torn"))
            break
        images = [read(pos + 1 + i) for i in range(len(bnos))]
        commit = wal.parse_commit(read(pos + 1 + len(bnos)))
        if commit != (seq, len(bnos), wal.extent_crc(images)):
            scan.txns.append(TxnRecord(seq, bnos, "torn"))
            break
        scan.txns.append(TxnRecord(seq, bnos, "committed", images))
        pos += len(bnos) + 2
        expect += 1
    return scan


def _check_targets(scan: JournalScan, total_blocks: int) -> None:
    log_range = range(scan.start, scan.start + scan.nblocks)
    for txn in scan.replayable:
        for bno in txn.bnos:
            if not 0 <= bno < total_blocks or bno in log_range:
                raise ReplayError(
                    "transaction %d writes block %d, outside the volume "
                    "or inside the log region" % (txn.seq, bno))


def replay_journal(device: BlockDevice, start: int,
                   nblocks: int) -> ReplayStats:
    """Offline (untimed) replay: apply the committed tail with pokes
    and advance the checkpoint.  The geometry comes from the caller's
    superblock; ``start`` of 0 (no log region) is a no-op."""
    if not start:
        return ReplayStats()
    scan = scan_journal(device, start, nblocks)
    _check_targets(scan, device.total_blocks)
    stats = ReplayStats(discarded=len(scan.txns) - len(scan.replayable))
    last_seq = scan.checkpoint_seq
    for txn in scan.replayable:
        for bno, image in zip(txn.bnos, txn.images):
            device.poke_block(bno, image)
            stats.blocks += 1
        stats.txns += 1
        last_seq = txn.seq
    if last_seq != scan.checkpoint_seq:
        device.poke_block(start, wal.pack_header(nblocks, last_seq))
    return stats


def timed_replay(device: BlockDevice, start: int,
                 nblocks: int) -> ReplayStats:
    """Mount-path replay, charged to the simulated clock: sequential
    extent reads over the log, one batched home write, a header write
    when the checkpoint advances, and a barrier."""
    if not start:
        return ReplayStats()
    clock = device.clock
    began = clock.now
    with obs.span("journal", "replay", start=start) as sp:
        reader = _ExtentReader(device, start + nblocks)
        scan = scan_journal(device, start, nblocks, read=reader.read)
        _check_targets(scan, device.total_blocks)
        stats = ReplayStats(discarded=len(scan.txns) - len(scan.replayable))
        writes: Dict[int, bytes] = {}
        last_seq = scan.checkpoint_seq
        for txn in scan.replayable:
            for bno, image in zip(txn.bnos, txn.images):
                writes[bno] = image
            stats.txns += 1
            last_seq = txn.seq
        stats.blocks = len(writes)
        if writes:
            device.write_batch(writes)
        if last_seq != scan.checkpoint_seq:
            device.write_block(start, wal.pack_header(nblocks, last_seq))
        device.flush()
        sp.incr("txns", stats.txns)
        sp.incr("blocks", stats.blocks)
    stats.elapsed = clock.now - began
    return stats


def describe_journal(device: BlockDevice, start: int, nblocks: int) -> str:
    """Human-readable log inspection (the ``repro journal`` command)."""
    if not start:
        return "no journal region on this volume"
    scan = scan_journal(device, start, nblocks)
    used = sum(len(t.bnos) + 2 for t in scan.txns if t.committed)
    lines = [
        "journal: blocks %d..%d (%d blocks), checkpoint seq %d"
        % (start, start + nblocks - 1, nblocks, scan.checkpoint_seq),
        "log: %d transaction(s), %d of %d blocks used"
        % (len(scan.replayable), 1 + used, nblocks),
    ]
    for txn in scan.txns:
        if txn.committed:
            lines.append(
                "  txn %-6d committed  %d block(s): %s"
                % (txn.seq, len(txn.bnos),
                   ", ".join(str(b) for b in txn.bnos)))
        else:
            lines.append(
                "  txn %-6d TORN (discarded at replay)  %d block(s)"
                % (txn.seq, len(txn.bnos)))
    if not scan.txns:
        lines.append("  (empty: volume is checkpointed)")
    return "\n".join(lines)
