"""The simulated disk drive.

:class:`SimulatedDisk` services read and write requests against the
shared :class:`~repro.clock.SimClock`.  Timing composes five pieces:

1. per-request command overhead (host driver + controller),
2. seek time from the arm's current cylinder (three-point curve),
3. rotational latency to the target sector (the platter angle is a
   global function of absolute time),
4. media transfer at the target zone's rate, plus track-switch costs,
5. bus transfer, which is modelled as overlapped with media transfer
   for media operations and paid explicitly for cache hits.

On top of the mechanics sit the on-board read segments (sequential
prefetch / streaming) and the optional write-behind buffer, which
drains in the background whenever the media is otherwise idle.  The
drive is timing-only: data bytes live at the block-device layer.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro import obs
from repro.clock import SimClock
from repro.disk.cache import ReadCache, WriteBuffer
from repro.disk.geometry import SECTOR_SIZE
from repro.disk.profiles import DriveProfile
from repro.disk.stats import REQUEST_SIZE_BUCKETS, DiskStats
from repro.errors import AddressError
from repro.obs.metrics import Histogram, MetricsRegistry

# Controller time to set up each background drain operation.
_DRAIN_OVERHEAD_S = 0.0003


class SimulatedDisk:
    """A single disk drive with mechanical timing and on-board caching."""

    def __init__(self, profile: DriveProfile) -> None:
        self.profile = profile
        self.clock = SimClock()
        self.stats = DiskStats()
        # The stack's registry: every layer over this drive registers
        # the fields it counts in here.
        self.registry = MetricsRegistry()
        self.registry.register("disk", self.stats)
        # Counted from stats.request_sizes when a snapshot asks for it.
        self.registry.read("disk.request_sectors", self._request_sectors)
        self.geometry = profile.geometry()
        self.seek_curve = profile.seek_curve()
        self.rotation = profile.rotation()
        self.read_cache = ReadCache(profile.cache_segments, profile.readahead_sectors)
        if profile.write_cache:
            self.write_buffer: Optional[WriteBuffer] = WriteBuffer(
                capacity_sectors=profile.write_buffer_kb * 1024 // SECTOR_SIZE
            )
        else:
            self.write_buffer = None
        self.current_cylinder = 0
        # First LBA of the arm's cylinder (what C-LOOK orders from).
        self._arm_lba = 0
        # Per-request constants, computed once (read/write pay them on
        # every host request), and per zone: the geometry's spans plus
        # the seconds one sector takes to pass under the head.
        self._overhead_s = profile.command_overhead_ms * 1e-3
        self._bus_s_per_sector = SECTOR_SIZE / (profile.bus_mb_per_s * 1e6)
        self._zones = [span + (self.rotation.sector_time(span[3]),)
                       for span in self.geometry.zone_spans()]
        # Absolute time at which the media (arm) becomes free.
        self._media_free_at = 0.0

    # -- public API ---------------------------------------------------------

    @property
    def total_sectors(self) -> int:
        return self.geometry.total_sectors

    def _request_sectors(self) -> Dict[str, object]:
        hist = Histogram("disk.request_sectors", REQUEST_SIZE_BUCKETS)
        for nsectors, n in self.stats.request_sizes.items():
            hist.observe(nsectors, n)
        return hist.value

    def read(self, lba: int, nsectors: int) -> None:
        """Service a read; advances the clock to its completion."""
        self._check_range(lba, nsectors)
        now = self.clock.now
        stats = self.stats
        stats.record_request(False, nsectors)
        t = now + self._overhead_s
        stats.overhead_time += self._overhead_s

        # Serve from the write-behind buffer when it fully covers the
        # request (the data has not reached the media yet).
        if self.write_buffer is not None and self.write_buffer.covering_range(lba, nsectors):
            bus = nsectors * self._bus_s_per_sector
            t += bus
            stats.bus_time += bus
            stats.cache_hits += 1
            self.clock.advance_to(t)
            self._log("read", lba, nsectors, now, t, "buffer")
            return

        # Partial overlap with pending writes: drain everything first so
        # the media holds current data, then read from media.  (The file
        # systems write whole blocks, so this path is rare.)
        if self.write_buffer is not None and self.write_buffer.overlapping(lba, nsectors):
            drain_until = max(t, self._media_free_at)
            while not self.write_buffer.empty:
                self._drain_one(drain_until)
                drain_until = self._media_free_at
            t = max(t, self._media_free_at)

        hit = self.read_cache.lookup(lba, nsectors, t)
        if hit is not None:
            seg, ready = hit
            bus = nsectors * self._bus_s_per_sector
            completion = max(t, ready) + bus
            stats.cache_hits += 1
            stats.bus_time += bus
            self.read_cache.extend_cap(seg, lba + nsectors, self.total_sectors)
            # A streaming continuation occupies the media as it fills.
            if seg.frozen_extent is None:
                self._media_free_at = max(self._media_free_at, completion)
            self.clock.advance_to(completion)
            self._log("read", lba, nsectors, now, completion, "cache")
            return

        completion, sector_s = self._media_operation(lba, nsectors, t)
        seg = self.read_cache.install(lba, nsectors, completion, sector_s,
                                      self.total_sectors)
        self.read_cache.freeze_all(completion, except_segment=seg)
        self.clock.advance_to(completion)
        self._log("read", lba, nsectors, now, completion, "media")

    def write(self, lba: int, nsectors: int) -> None:
        """Service a write; advances the clock to its (host) completion."""
        self._check_range(lba, nsectors)
        now = self.clock.now
        stats = self.stats
        stats.record_request(True, nsectors)
        self.read_cache.invalidate_range(lba, nsectors)
        t = now + self._overhead_s
        stats.overhead_time += self._overhead_s

        if self.write_buffer is None:
            completion, _ = self._media_operation(lba, nsectors, t)
            self.read_cache.freeze_all(completion)
            self.clock.advance_to(completion)
            self._log("write", lba, nsectors, now, completion, "media")
            return

        # Write-behind: stall for space if needed, then complete at bus
        # speed; the media work happens during background drains.
        if self._media_free_at < t and not self.write_buffer.empty:
            self._advance_background(t)
        if self.write_buffer.would_overflow(nsectors):
            stall_from = t
            while self.write_buffer.would_overflow(nsectors) and not self.write_buffer.empty:
                self._drain_one(max(t, self._media_free_at))
                t = max(t, self._media_free_at)
            stats.stall_time += max(0.0, t - stall_from)
        absorbed = self.write_buffer.add(lba, nsectors, when=t)
        if absorbed:
            stats.write_absorbed += 1
        bus = nsectors * self._bus_s_per_sector
        stats.bus_time += bus
        self.clock.advance_to(t + bus)
        self._log("write", lba, nsectors, now, t + bus, "buffer")

    def flush_write_buffer(self) -> None:
        """Drain every pending write; advances the clock past the drain.

        The benchmarks call this at the end of each phase, matching the
        paper's "we forcefully write back all dirty blocks before
        considering the measurement complete".
        """
        if self.write_buffer is None:
            return
        t = max(self.clock.now, self._media_free_at)
        while not self.write_buffer.empty:
            self._drain_one(t)
            t = self._media_free_at
        self.clock.advance_to(t)

    def _log(self, op: str, lba: int, nsectors: int, issue: float,
             completion: float, source: str) -> None:
        # Every host-visible request passes through here once: the
        # ``disk`` span is the one per-request record.  The enabled()
        # guard keeps the disabled path allocation-free (obs.record's
        # keyword dict is built at the call).
        if obs.enabled():
            obs.record("disk", op, issue, completion,
                       lba=lba, nsectors=nsectors, source=source)

    def current_lba_estimate(self) -> int:
        """Approximate LBA under the head (for C-LOOK batch ordering)."""
        return self._arm_lba

    # -- internals ----------------------------------------------------------

    def _check_range(self, lba: int, nsectors: int) -> None:
        if nsectors <= 0:
            raise AddressError("request must cover at least one sector")
        if lba < 0 or lba + nsectors > self.geometry.total_sectors:
            raise AddressError(
                "request [%d, %d) outside disk of %d sectors"
                % (lba, lba + nsectors, self.geometry.total_sectors)
            )

    def _media_operation(self, lba: int, nsectors: int, earliest: float) -> Tuple[float, float]:
        """Perform a foreground media access; returns its completion time
        and the seconds per sector of its first zone."""
        self._advance_background(earliest)
        start = max(earliest, self._media_free_at)
        completion, sector_s = self._mechanical_access(lba, nsectors, start)
        self._media_free_at = completion
        return completion, sector_s

    def _mechanical_access(self, lba: int, nsectors: int, start: float) -> Tuple[float, float]:
        """Seek + rotate + transfer starting at absolute time ``start``;
        returns the completion time and the seconds per sector of the
        zone the access starts in.  One zone lookup serves the whole
        access unless it ends in another zone."""
        first_lba, end_lba, first_cyl, spt, spc, sector_s = self._zones[
            self.geometry.zone_of_lba(lba)]
        cyl_offset, rem = divmod(lba - first_lba, spc)
        sector = rem % spt

        seek = self.seek_curve.seek_time(first_cyl + cyl_offset - self.current_cylinder)
        t = start + seek

        rot_wait = self.rotation.wait_for_sector(t, sector, spt)
        t += rot_wait

        transfer = nsectors * sector_s
        switches = (sector + nsectors - 1) // spt
        transfer += switches * self.profile.track_switch_ms * 1e-3
        t += transfer

        end = lba + nsectors - 1
        if end < end_lba:
            cyl_offset = (end - first_lba) // spc
            self.current_cylinder = first_cyl + cyl_offset
            self._arm_lba = first_lba + cyl_offset * spc
        else:
            self.current_cylinder, _, _ = self.geometry.chs(end)
            self._arm_lba = self.geometry.lba(self.current_cylinder, 0, 0)

        stats = self.stats
        stats.seek_time += seek
        stats.rotation_time += rot_wait
        stats.transfer_time += transfer
        return t, sector_s

    def _advance_background(self, now: float) -> None:
        """Run background drains that fit before ``now``."""
        if self.write_buffer is None:
            return
        while not self.write_buffer.empty and self._media_free_at < now:
            self._drain_one(self._media_free_at)

    def _drain_one(self, start: float) -> None:
        """Drain the next pending write range onto the media."""
        assert self.write_buffer is not None
        item = self.write_buffer.pop_drain()
        if item is None:
            return
        lba, nsectors, ready = item
        begin = max(start, ready) + _DRAIN_OVERHEAD_S
        completion, _ = self._mechanical_access(lba, nsectors, begin)
        self._media_free_at = completion
        self.read_cache.freeze_all(completion)
