"""The self-healing device layer: verified reads, bad-block remapping.

:class:`ResilientBlockDevice` is a drop-in device (same surface the
buffer cache and file systems use) that sits between them and the —
optionally fault-injecting — device below, and turns media decay into
detected, healed, or gracefully-degraded outcomes:

- every read is verified against the per-block CRC-32 sidecar; a block
  whose bytes do not match raises :class:`~repro.errors.ChecksumError`
  instead of returning, so corruption is *detected*, never silently
  installed into the buffer cache;
- a write that fails hard is healed transparently: the block is
  remapped to a spare from the reserved pool and the remap table is
  persisted before the write is acknowledged;
- reads retry within a fixed budget and follow the remap table, so
  they fall back to the remapped copy of a block whose original
  location has gone bad;
- a :class:`~repro.resilience.health.HealthMonitor` demotes service
  (``HEALTHY -> DEGRADED -> READ_ONLY -> FAILED``) instead of dying
  when the spare pool or a failure budget is exhausted.

Checksums are maintained in memory and persisted to the sidecar on
``flush()`` (the same barrier the buffer cache already drives), so a
crash can leave them stale at most back to the last sync — which fsck
detects and rebuilds (see ``repro.fsck``).

The device counts in :class:`ResilienceStats` and registers it with
the drive's registry as ``resilience.*``, next to three values it reads
from itself: ``resilience.health`` (the state ordinal),
``resilience.health_transitions`` and ``resilience.spares_used``.  The
scrubber adds its own (see :mod:`repro.resilience.scrub`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.blockdev.device import BLOCK_SIZE, BatchedIO
from repro.blockdev.scheduler import coalesce_blocks
from repro.errors import (
    AddressError,
    ChecksumError,
    MediaReadError,
    MediaWriteError,
    PowerLoss,
    ReadOnlyFileSystem,
)
from repro.resilience.checksums import (
    CRCS_PER_BLOCK,
    crc32,
    pack_crc_block,
    unpack_crc_block,
)
from repro.obs.metrics import Stats
from repro.resilience.health import HealthMonitor, HealthState
from repro.resilience.layout import (
    ResilienceHeader,
    compute_geometry,
    try_unpack_header,
)

#: Checksum of an all-zero block — the sidecar value of unwritten blocks.
ZERO_CRC = crc32(bytes(BLOCK_SIZE))

#: Attempts at one block before a read gives up (per request); a
#: reserved-region block gets as many write attempts.
MAX_READ_RETRIES = 3
#: Re-reads after a checksum mismatch before declaring the data bad
#: (a mismatch caused by an in-flight transient may clear on retry).
VERIFY_RETRIES = 1
#: Checksum failures tolerated before writes are no longer trusted and
#: the device demotes itself to READ_ONLY.
MAX_CHECKSUM_FAILURES = 64
#: Hard read failures (retry budget exhausted, no remap copy) tolerated
#: before the device demotes itself to READ_ONLY.
MAX_UNREADABLE_BLOCKS = 64
#: Spare blocks a volume reserves for bad-block remapping unless told
#: otherwise (``repro mkfs --resilient``, the chaos soak).
DEFAULT_SPARES = 32


@dataclass
class ResilienceStats(Stats):
    """Counters the resilient device keeps (the chaos report reads them)."""

    verified_reads: int = 0      # blocks read with a matching CRC
    checksum_failures: int = 0   # blocks surfaced as ChecksumError
    read_retries: int = 0        # extra read attempts after media errors
    unreadable_blocks: int = 0   # reads that exhausted the retry budget
    remaps: int = 0              # blocks moved to the spare pool
    write_heals: int = 0         # writes that succeeded only via a remap
    scrub_rescues: int = 0       # weak blocks proactively remapped
    lost_blocks: int = 0         # blocks whose data is gone for good
    sidecar_flushes: int = 0     # sidecar persistence barriers


class ResilientBlockDevice(BatchedIO):
    """A verified, self-healing view over a (possibly faulty) device.

    Create with :meth:`format` on a fresh device or :meth:`attach` on
    one that already carries a resilience region.  The exposed
    ``total_blocks`` is the *usable* count; the reserved tail (CRC
    sidecar, spare pool, header) is invisible to callers.
    """

    def __init__(self, inner, header: ResilienceHeader,
                 crcs: List[int]) -> None:
        self.inner = inner
        self.header = header
        self.geometry = header.geometry
        self.health = HealthMonitor()
        self.stats = ResilienceStats()
        registry = inner.disk.registry
        registry.register("resilience", self.stats)
        registry.read("resilience.health", lambda: self.health.state.value)
        registry.read("resilience.health_transitions",
                      lambda: len(self.health.transitions))
        registry.read("resilience.spares_used",
                      lambda: self.header.spares_used)
        self._crc = crcs                      # logical block -> CRC-32
        self._dirty_crc_blocks: set = set()   # sidecar blocks to persist
        self._header_dirty = False

    # -- construction ----------------------------------------------------------

    @classmethod
    def format(cls, inner, n_spares: int = DEFAULT_SPARES) -> "ResilientBlockDevice":
        """Initialize the reserved region on ``inner`` (timed writes),
        with ``n_spares`` blocks reserved for bad-block remapping.

        The sidecar starts as the CRC of the zero block for every
        logical block (unwritten blocks read as zeros), the spare pool
        empty, the remap table empty.
        """
        geo = compute_geometry(inner.total_blocks, n_spares)
        header = ResilienceHeader(geo)
        crcs = [ZERO_CRC] * geo.usable_blocks
        device = cls(inner, header, crcs)
        writes = {geo.crc_start + i: device._pack_sidecar_block(i)
                  for i in range(geo.n_crc_blocks)}
        writes[geo.header_block] = header.pack()
        inner.write_batch(writes)
        inner.flush()
        return device

    @classmethod
    def attach(cls, inner) -> "ResilientBlockDevice":
        """Open the resilience region already present on ``inner``."""
        raw = inner.read_block(inner.total_blocks - 1)
        header = try_unpack_header(raw, inner.total_blocks)
        if header is None:
            raise AddressError(
                "device carries no resilience region (format it first)")
        geo = header.geometry
        sidecar = inner.read_batch(
            range(geo.crc_start, geo.crc_start + geo.n_crc_blocks))
        crcs: List[int] = []
        for i in range(geo.n_crc_blocks):
            crcs.extend(unpack_crc_block(sidecar[geo.crc_start + i]))
        return cls(inner, header, crcs[:geo.usable_blocks])

    # -- device surface --------------------------------------------------------

    @property
    def clock(self):
        return self.inner.clock

    @property
    def disk(self):
        return self.inner.disk

    @property
    def total_blocks(self) -> int:
        return self.geometry.usable_blocks

    def read_block(self, bno: int) -> bytes:
        return self.read_extent(bno, 1)[0]

    def read_extent(self, start: int, count: int) -> List[bytes]:
        self._check(start, count)
        self.health.check_readable()
        out: List[Optional[bytes]] = [None] * count
        try:
            for lstart, pstart, n in self._segments(start, count):
                try:
                    datas = self.inner.read_extent(pstart, n)
                except MediaReadError:
                    # One bad block poisons the whole inner extent;
                    # retry block by block so its neighbours survive.
                    datas = [self._read_block_retrying(lstart + i)
                             for i in range(n)]
                for i, data in enumerate(datas):
                    out[lstart - start + i] = self._verify(lstart + i, data)
        except PowerLoss:
            self.health.transition(HealthState.FAILED, self.clock.now,
                                   "power lost")
            raise
        return out  # type: ignore[return-value]

    def write_block(self, bno: int, data: bytes) -> None:
        self.write_extent(bno, [data])

    def write_extent(self, start: int, blocks: Sequence[bytes]) -> None:
        count = len(blocks)
        self._check(start, count)
        for data in blocks:
            if len(data) != BLOCK_SIZE:
                raise ValueError(
                    "block write must be exactly %d bytes" % BLOCK_SIZE)
        self.health.check_writable()
        try:
            for lstart, pstart, n in self._segments(start, count):
                seg = blocks[lstart - start:lstart - start + n]
                try:
                    self.inner.write_extent(pstart, seg)
                except MediaWriteError:
                    # Hard or torn: heal block by block.  Rewriting the
                    # already-landed prefix of a torn extent is
                    # idempotent, so the whole segment is retried.
                    self._heal_segment(lstart, seg)
                    continue
                self._record_written(lstart, seg)
        except PowerLoss:
            self.health.transition(HealthState.FAILED, self.clock.now,
                                   "power lost")
            raise

    def flush(self) -> None:
        """Persist dirty checksums and the remap table, then drain the
        drive's write-behind buffer (the end-of-phase barrier)."""
        self.health.check_readable()   # flush is legal while READ_ONLY
        try:
            self._persist_sidecar()
            if self._header_dirty:
                self._persist_header()
            self.inner.flush()
        except PowerLoss:
            self.health.transition(HealthState.FAILED, self.clock.now,
                                   "power lost")
            raise

    def peek_block(self, bno: int) -> bytes:
        """Untimed read of a *logical* block (remap-resolved, unverified)."""
        self._check(bno, 1)
        return self.inner.peek_block(self.header.phys(bno))

    def poke_block(self, bno: int, data: bytes) -> None:
        """Untimed raw write of a *logical* block.

        Deliberately does NOT update the CRC sidecar: this is the
        corruption-injection channel tests use, and a poked block that
        bypassed the checksummed write path *should* fail verification.
        """
        self._check(bno, 1)
        self.inner.poke_block(self.header.phys(bno), data)

    def save_image(self, path: str) -> None:
        self.inner.save_image(path)

    def _check(self, bno: int, count: int) -> None:
        if count <= 0:
            raise AddressError("extent must cover at least one block")
        if bno < 0 or bno + count > self.geometry.usable_blocks:
            raise AddressError(
                "blocks [%d, %d) outside usable region of %d blocks"
                % (bno, bno + count, self.geometry.usable_blocks))

    # -- scrubbing support -----------------------------------------------------

    def scrub_block(self, bno: int) -> str:
        """Verify one block in place; heal or condemn what is decaying.

        Returns a verdict: ``"ok"`` (verified clean), ``"rescued"``
        (readable but struggling — copied to a spare before it dies),
        ``"healed"`` (unreadable but provably empty — remapped to a
        fresh zero block), ``"lost"`` (data gone: unreadable or failing
        its checksum; marked so reads fail fast), or ``"lost-known"``
        (already on the lost list).
        """
        self._check(bno, 1)
        if bno in self.header.lost:
            return "lost-known"
        phys = self.header.phys(bno)
        faulty_stats = getattr(self.inner, "stats", None)
        transients_before = (faulty_stats.transient_faults
                             if faulty_stats is not None else 0)
        try:
            data = self._read_block_retrying(bno)
        except MediaReadError:
            if self._crc[bno] == ZERO_CRC and self._try_remap(
                    bno, bytes(BLOCK_SIZE)):
                return "healed"
            self._mark_lost(bno, "scrub: unreadable")
            return "lost"
        if crc32(data) != self._crc[bno]:
            self._mark_lost(bno, "scrub: checksum mismatch")
            return "lost"
        transients = ((faulty_stats.transient_faults
                       if faulty_stats is not None else 0)
                      - transients_before)
        if transients > 0 and phys == bno and self._crc[bno] != ZERO_CRC:
            # The location needed in-drive retries but real data is
            # intact: rescue it onto a spare before it decays further.
            # (Struggling *empty* blocks are not worth a spare.)
            if self._try_remap(bno, data):
                self.stats.scrub_rescues += 1
                return "rescued"
        return "ok"

    # -- internals -------------------------------------------------------------

    def _segments(self, start: int, count: int
                  ) -> List[Tuple[int, int, int]]:
        """Split a logical run into physically-contiguous segments:
        ``(logical_start, physical_start, length)`` triples."""
        if not self.header.remap:
            return [(start, start, count)]
        segs: List[Tuple[int, int, int]] = []
        run_l, run_p, n = start, self.header.phys(start), 1
        for logical in range(start + 1, start + count):
            phys = self.header.phys(logical)
            if phys == run_p + n:
                n += 1
            else:
                segs.append((run_l, run_p, n))
                run_l, run_p, n = logical, phys, 1
        segs.append((run_l, run_p, n))
        return segs

    def _read_block_retrying(self, bno: int) -> bytes:
        """Read one logical block, retrying within the read budget."""
        phys = self.header.phys(bno)
        last: Optional[MediaReadError] = None
        for attempt in range(MAX_READ_RETRIES):
            if attempt:
                self.stats.read_retries += 1
            try:
                return self.inner.read_extent(phys, 1)[0]
            except MediaReadError as exc:
                last = exc
        self.stats.unreadable_blocks += 1
        self.health.transition(HealthState.DEGRADED, self.clock.now,
                               "unreadable block %d" % bno)
        if self.stats.unreadable_blocks >= MAX_UNREADABLE_BLOCKS:
            self.health.transition(
                HealthState.READ_ONLY, self.clock.now,
                "unreadable-block budget exhausted (%d)"
                % self.stats.unreadable_blocks)
        assert last is not None
        raise last

    def _verify(self, bno: int, data: bytes) -> bytes:
        """CRC-check a block read; raise ChecksumError on mismatch."""
        if bno in self.header.lost:
            raise ChecksumError("block %d is marked lost" % bno)
        if crc32(data) == self._crc[bno]:
            self.stats.verified_reads += 1
            return data
        for _ in range(VERIFY_RETRIES):
            try:
                data = self.inner.read_extent(self.header.phys(bno), 1)[0]
            except MediaReadError:
                continue
            if crc32(data) == self._crc[bno]:
                self.stats.verified_reads += 1
                return data
        self.stats.checksum_failures += 1
        self._mark_lost(bno, "read verification failed")
        raise ChecksumError(
            "block %d: data CRC 0x%08x does not match sidecar 0x%08x"
            % (bno, crc32(data), self._crc[bno]))

    def _mark_lost(self, bno: int, reason: str) -> None:
        if bno in self.header.lost:
            return
        self.header.lost.add(bno)
        self._header_dirty = True
        self.stats.lost_blocks += 1
        self.health.transition(HealthState.DEGRADED, self.clock.now,
                               "%s (block %d)" % (reason, bno))
        if self.stats.checksum_failures >= MAX_CHECKSUM_FAILURES:
            self.health.transition(
                HealthState.READ_ONLY, self.clock.now,
                "checksum-failure budget exhausted (%d)"
                % self.stats.checksum_failures)

    def _heal_segment(self, lstart: int, seg: Sequence[bytes]) -> None:
        for i, data in enumerate(seg):
            logical = lstart + i
            try:
                self.inner.write_extent(self.header.phys(logical), [data])
            except MediaWriteError:
                if not self._try_remap(logical, data):
                    self.health.transition(
                        HealthState.READ_ONLY, self.clock.now,
                        "spare pool exhausted remapping block %d" % logical)
                    raise ReadOnlyFileSystem(
                        "no spare blocks left to remap block %d; "
                        "device demoted to read-only" % logical)
                self.stats.write_heals += 1
            self._record_written(logical, [data])

    def _try_remap(self, logical: int, data: bytes) -> bool:
        """Move ``logical`` onto a fresh spare holding ``data``.

        Consumes spares until one accepts the write (a spare can itself
        be bad); returns False when the pool is exhausted.  The remap
        table is persisted before success is reported, so a crash never
        strands data on an unrecorded spare.
        """
        if self.health.state.value >= HealthState.READ_ONLY.value:
            return False
        while self.header.spares_used < self.geometry.n_spares:
            spare_index = self.header.spares_used
            self.header.spares_used += 1
            self._header_dirty = True
            try:
                self.inner.write_extent(
                    self.geometry.spare_block(spare_index), [data])
            except MediaWriteError:
                continue   # burned spare; try the next one
            self.header.remap[logical] = spare_index
            self.header.lost.discard(logical)
            self.stats.remaps += 1
            self._record_written(logical, [data])
            self._persist_header()
            self.health.transition(HealthState.DEGRADED, self.clock.now,
                                   "block %d remapped to spare %d"
                                   % (logical, spare_index))
            return True
        return False

    def _record_written(self, lstart: int, seg: Sequence[bytes]) -> None:
        for i, data in enumerate(seg):
            logical = lstart + i
            self._crc[logical] = crc32(data)
            self._dirty_crc_blocks.add(logical // CRCS_PER_BLOCK)
            if logical in self.header.lost:
                self.header.lost.discard(logical)
                self._header_dirty = True

    def _pack_sidecar_block(self, index: int) -> bytes:
        lo = index * CRCS_PER_BLOCK
        crcs = self._crc[lo:lo + CRCS_PER_BLOCK]
        if len(crcs) < CRCS_PER_BLOCK:
            crcs = crcs + [0] * (CRCS_PER_BLOCK - len(crcs))
        return pack_crc_block(crcs)

    def _persist_sidecar(self) -> None:
        if not self._dirty_crc_blocks:
            return
        writes = {self.geometry.crc_start + i: self._pack_sidecar_block(i)
                  for i in sorted(self._dirty_crc_blocks)}
        self._write_reserved(writes)
        self._dirty_crc_blocks.clear()
        self.stats.sidecar_flushes += 1

    def _persist_header(self) -> None:
        self._write_reserved({self.geometry.header_block: self.header.pack()})
        self._header_dirty = False

    def _write_reserved(self, writes: Dict[int, bytes]) -> None:
        """Write reserved-region blocks with a small retry budget.

        Contiguous dirty blocks ship as one extent request — the CRC
        sidecar region runs hot during sync, and per-block requests
        there pay a full positioning cost each.  A failing extent falls
        back to per-block writes so the retry budget and the health
        demotion still name the exact unwritable block.

        The reserved tail is not remappable (the map must live
        somewhere); a persistent failure here demotes the device.
        """
        for start, count in coalesce_blocks(sorted(writes)):
            if count > 1:
                try:
                    self.inner.write_extent(
                        start, [writes[b] for b in range(start, start + count)])
                    continue
                except MediaWriteError:
                    pass   # isolate the failing block below
            for bno in range(start, start + count):
                last: Optional[MediaWriteError] = None
                for _ in range(MAX_READ_RETRIES):
                    try:
                        self.inner.write_extent(bno, [writes[bno]])
                        last = None
                        break
                    except MediaWriteError as exc:
                        last = exc
                if last is not None:
                    self.health.transition(
                        HealthState.READ_ONLY, self.clock.now,
                        "reserved block %d unwritable" % bno)
                    raise last


class LogicalView:
    """Offline remap-resolving view of a resilient image (for fsck).

    Presents the usable-block window of a raw device image through the
    remap table, exposing exactly the surface the offline checkers use:
    ``total_blocks``, ``peek_block``, ``poke_block``.

    Unlike :meth:`ResilientBlockDevice.poke_block` (the corruption-
    injection channel), pokes through this view *maintain* the CRC
    sidecar: the view is how fsck repairs a resilient image, and a
    repair that staled the checksums would make every repaired block
    unreadable at the next mount.
    """

    def __init__(self, base, header: ResilienceHeader) -> None:
        self.base = base
        self.header = header
        self.total_blocks = header.geometry.usable_blocks

    def _check(self, bno: int) -> None:
        if not 0 <= bno < self.total_blocks:
            raise AddressError(
                "blocks [%d, %d) outside device of %d blocks"
                % (bno, bno + 1, self.total_blocks))

    def peek_block(self, bno: int) -> bytes:
        self._check(bno)
        return self.base.peek_block(self.header.phys(bno))

    def poke_block(self, bno: int, data: bytes) -> None:
        self._check(bno)
        self.base.poke_block(self.header.phys(bno), data)
        sidecar_block, offset = self.header.geometry.crc_location(bno)
        raw = bytearray(self.base.peek_block(sidecar_block))
        struct.pack_into("<I", raw, offset, crc32(data))
        self.base.poke_block(sidecar_block, bytes(raw))


__all__ = [
    "LogicalView",
    "ResilienceStats",
    "ResilientBlockDevice",
    "ZERO_CRC",
]
