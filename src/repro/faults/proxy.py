"""A fault-injecting proxy around :class:`BlockDevice`.

The proxy is a drop-in device: file systems and the buffer cache work
over it unchanged.  Every timed media request consults a
:class:`FaultSchedule`:

- *transient* faults are absorbed here with bounded exponential
  backoff (charged to the simulated clock), modelling in-drive
  retry/recalibration — callers only see the added latency unless the
  retry budget is exhausted;
- *hard* faults raise :class:`MediaReadError`/:class:`MediaWriteError`
  with nothing landed;
- *torn* writes land only a prefix of a multi-block extent before
  raising, which is exactly the partial-failure window the ordering
  rules in both file systems must survive;
- a scheduled *power cut* lands the remaining media-write budget and
  then raises :class:`PowerLoss`; the device is dead afterwards;
- *location faults* (weak, bad, and rotting blocks — see
  :mod:`repro.faults.schedule`) tie decay to physical addresses:
  weak blocks cost in-drive retries, bad blocks fail every request
  touching them, and rotting blocks silently return flipped bits on
  their first read — the failure mode only checksums catch.

With ``record_journal=True`` the proxy keeps the ordered list of
``(block, bytes)`` media writes that actually landed.  ``image_at(k)``
replays a prefix onto a fresh device — the crash-point sweep images.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.blockdev.device import (SECTORS_PER_BLOCK, BatchedIO, BlockDevice,
                                   block_image)
from repro.errors import MediaReadError, MediaWriteError, PowerLoss
from repro.faults.schedule import (
    ERROR_LATENCY,
    HARD,
    RETRY_ATTEMPTS,
    TORN,
    TRANSIENT,
    FaultSchedule,
    FaultStats,
    retry_delay,
)


class FaultyBlockDevice(BatchedIO):
    """Wraps a :class:`BlockDevice`, injecting faults per a schedule."""

    def __init__(
        self,
        inner: BlockDevice,
        schedule: Optional[FaultSchedule] = None,
        record_journal: bool = False,
    ) -> None:
        self.inner = inner
        self.schedule = schedule if schedule is not None else FaultSchedule()
        self.stats = FaultStats()
        self.journal: Optional[List[Tuple[int, bytes]]] = (
            [] if record_journal else None)
        # Called once per landed media write as (block, data), after the
        # journal append.  Lets a harness interleave several devices'
        # write streams into one global order — the cluster crash sweep
        # kills a multi-shard protocol at every point of that order.
        self.on_media_write: Optional[Callable[[int, bytes], None]] = None
        self.dead = False
        self._rotted: set = set()   # rot already applied to the media

    # -- device surface the file systems rely on -------------------------------

    @property
    def clock(self):
        return self.inner.clock

    @property
    def disk(self):
        return self.inner.disk

    @property
    def total_blocks(self) -> int:
        return self.inner.total_blocks

    @property
    def _blocks(self) -> Dict[int, bytes]:
        return self.inner._blocks

    # -- reads -----------------------------------------------------------------

    def read_block(self, bno: int) -> bytes:
        return self.read_extent(bno, 1)[0]

    def read_extent(self, start: int, count: int) -> List[bytes]:
        self.inner._check(start, count)
        self._require_power()
        self.stats.reads += 1
        index = self.stats.reads - 1
        decision = self.schedule.decide("read", index)
        if decision.kind == HARD:
            self.stats.hard_read_faults += 1
            self.clock.advance(ERROR_LATENCY)
            raise MediaReadError(
                "unreadable blocks [%d, %d)" % (start, start + count))
        bad = self._touches(start, count, self.schedule.bad_read_blocks)
        if bad is not None:
            self.stats.hard_read_faults += 1
            self.clock.advance(ERROR_LATENCY)
            raise MediaReadError(
                "unreadable blocks [%d, %d): bad media at block %d"
                % (start, start + count, bad))
        if decision.kind == TRANSIENT:
            self._absorb_transient("read", start, count, decision.failures)
        weak = [b for b in range(start, start + count)
                if b in self.schedule.weak_read_blocks]
        if weak:
            self.stats.weak_reads += len(weak)
            # Weak locations struggle but stay readable: clamp below the
            # in-drive give-up threshold so only latency is charged.
            self._absorb_transient(
                "read", start, count,
                min(len(weak), RETRY_ATTEMPTS - 1))
        datas = self.inner.read_extent(start, count)
        if self.schedule.rot_blocks:
            datas = self._apply_rot(start, datas)
        return datas

    # -- writes ----------------------------------------------------------------

    def write_block(self, bno: int, data: bytes) -> None:
        self.write_extent(bno, [data])

    def write_extent(self, start: int, blocks: Sequence[bytes]) -> None:
        count = len(blocks)
        self.inner._check(start, count)
        images = [block_image(data) for data in blocks]
        self._require_power()
        self.stats.writes += 1
        index = self.stats.writes - 1
        decision = self.schedule.decide("write", index)
        if decision.kind == HARD:
            self.stats.hard_write_faults += 1
            self.clock.advance(ERROR_LATENCY)
            raise MediaWriteError(
                "write to blocks [%d, %d) failed" % (start, start + count))
        bad = self._touches(start, count, self.schedule.bad_write_blocks)
        if bad is not None:
            self.stats.hard_write_faults += 1
            self.clock.advance(ERROR_LATENCY)
            raise MediaWriteError(
                "write to blocks [%d, %d) failed: bad media at block %d"
                % (start, start + count, bad))
        if decision.kind == TRANSIENT:
            self._absorb_transient("write", start, count, decision.failures)

        landed = count
        torn = decision.kind == TORN and decision.torn_blocks < count
        if torn:
            landed = decision.torn_blocks
        cut = False
        if self.schedule.power_cut_after_write is not None:
            budget = self.schedule.power_cut_after_write - self.stats.media_writes
            if budget < landed:
                landed = max(budget, 0)
                cut = True
        if landed:
            self.disk.write(start * SECTORS_PER_BLOCK, landed * SECTORS_PER_BLOCK)
            for bno, image in zip(range(start, start + landed), images):
                # One object for the store, the recorder and the hook.
                self.inner.poke_block(bno, image)
                # Fresh data cancels pending decay and supersedes any
                # rot already applied at this location.
                self.schedule.rot_blocks.discard(bno)
                self._rotted.discard(bno)
                if self.journal is not None:
                    self.journal.append((bno, image))
                if self.on_media_write is not None:
                    self.on_media_write(bno, image)
            self.stats.media_writes += landed
        if cut:
            self.stats.power_cuts += 1
            self.dead = True
            raise PowerLoss(
                "power cut after %d media writes" % self.stats.media_writes)
        if torn:
            self.stats.torn_writes += 1
            raise MediaWriteError(
                "torn write: %d of %d blocks at %d landed"
                % (landed, count, start))

    # -- maintenance -----------------------------------------------------------

    def flush(self) -> None:
        self._require_power()
        self.inner.flush()

    def peek_block(self, bno: int) -> bytes:
        return self.inner.peek_block(bno)

    def poke_block(self, bno: int, data: bytes) -> None:
        self.inner.poke_block(bno, data)

    def save_image(self, path: str) -> None:
        self.inner.save_image(path)

    def _check(self, bno: int, count: int) -> None:
        self.inner._check(bno, count)

    # -- fault plumbing ---------------------------------------------------------

    @staticmethod
    def _touches(start: int, count: int, locations) -> Optional[int]:
        """First block of ``[start, start+count)`` in ``locations``."""
        if not locations:
            return None
        for bno in range(start, start + count):
            if bno in locations:
                return bno
        return None

    def _apply_rot(self, start: int, datas: List[bytes]) -> List[bytes]:
        """Silently corrupt scheduled blocks on their first read."""
        for i, data in enumerate(datas):
            bno = start + i
            if bno in self.schedule.rot_blocks and bno not in self._rotted:
                datas[i] = self.schedule.corrupt(bno, data)
                self.inner.poke_block(bno, datas[i])
                self._rotted.add(bno)
                self.stats.rot_corruptions += 1
        return datas

    def _require_power(self) -> None:
        if self.dead:
            raise PowerLoss("device lost power")

    def _absorb_transient(self, op: str, start: int, count: int,
                          failures: int) -> None:
        """In-drive retry: charge backoff per failed attempt, or give up."""
        if failures >= RETRY_ATTEMPTS:
            self.stats.transient_faults += failures
            self.clock.advance(ERROR_LATENCY)
            if op == "read":
                self.stats.hard_read_faults += 1
                raise MediaReadError(
                    "blocks [%d, %d): transient fault persisted after %d attempts"
                    % (start, start + count, failures))
            self.stats.hard_write_faults += 1
            raise MediaWriteError(
                "blocks [%d, %d): transient fault persisted after %d attempts"
                % (start, start + count, failures))
        for attempt in range(failures):
            self.stats.transient_faults += 1
            self.clock.advance(retry_delay(attempt))

    # -- crash images ------------------------------------------------------------

    def image_at(self, k: Optional[int] = None) -> BlockDevice:
        """A fresh device holding the first ``k`` journalled media writes
        (all of them when ``k`` is None).  Requires ``record_journal``."""
        if self.journal is None:
            raise ValueError("proxy was created without record_journal")
        device = BlockDevice(self.inner.disk.profile)
        prefix = self.journal if k is None else self.journal[:k]
        for bno, data in prefix:
            device.poke_block(bno, data)
        return device


__all__ = ["FaultyBlockDevice"]
