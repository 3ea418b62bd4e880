"""On-board drive cache models: segmented read-ahead and write-behind.

Two small models live here; the drive composes them:

- :class:`ReadCache` — a segmented read cache with *streaming* fill.
  After a media read the drive keeps reading sequentially into the
  segment (bounded by ``readahead_sectors``); a later request that lands
  inside the stream is served as a continuation at media rate, which is
  how sequential request trains reach full bandwidth despite synchronous
  hosts.  Any media operation elsewhere freezes all segments (the arm
  moved away, so prefetch stopped).

- :class:`WriteBuffer` — a write-behind buffer with *absorption*:
  a rewrite of a range that is still pending replaces it at no extra
  media cost.  This reproduces the locality effect the paper credits in
  the delete experiment ("the same block gets overwritten repeatedly as
  the multiple inodes that it contains are re-initialized").

Both models deal in timing only; user data is stored losslessly at the
block-device layer, so caching decisions can never corrupt data.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass
class ReadSegment:
    """One prefetch stream.

    Sector availability is linear in time from the fill origin: sector
    ``i >= fill_base`` becomes available at
    ``fill_time + (i - fill_base + 1) * sector_time``; sectors before
    ``fill_base`` were part of the original request and are available at
    ``fill_time``.
    """

    start: int           # first cached sector (LBA)
    fill_base: int       # first sector filled by prefetch (original request end)
    fill_time: float     # when prefetch began (original request completion)
    sector_time: float   # seconds per sector at this zone
    end_cap: int         # exclusive prefetch bound (last request end + readahead)
    frozen_extent: Optional[int] = None  # exclusive; set when the arm moved away

    def extent_at(self, now: float) -> int:
        """Exclusive end of the sectors actually filled by ``now``."""
        if self.frozen_extent is not None:
            return self.frozen_extent
        filled = self.fill_base + int((now - self.fill_time) / self.sector_time)
        return max(self.fill_base, min(self.end_cap, filled))

    def available_at(self, sector: int) -> float:
        """Absolute time at which ``sector`` is (or will be) cached."""
        if sector < self.fill_base:
            return self.fill_time
        return self.fill_time + (sector - self.fill_base + 1) * self.sector_time

    def freeze(self, now: float) -> None:
        if self.frozen_extent is None:
            self.frozen_extent = self.extent_at(now)


class ReadCache:
    """Fixed number of prefetch segments with LRU replacement."""

    def __init__(self, segments: int, readahead_sectors: int) -> None:
        self.max_segments = max(0, segments)
        self.readahead = max(0, readahead_sectors)
        self._segments: List[ReadSegment] = []  # LRU order: oldest first

    @property
    def enabled(self) -> bool:
        return self.max_segments > 0 and self.readahead >= 0

    def lookup(self, start: int, nsectors: int, now: float) -> Optional[Tuple[ReadSegment, float]]:
        """Find a segment that can serve ``[start, start+nsectors)``.

        Returns ``(segment, ready_time)`` where ``ready_time`` is when
        the last requested sector is cached (possibly in the future for
        a streaming continuation), or ``None`` on a miss.  A hit
        requires the request to begin inside the segment's reachable
        range and end within its prefetch bound.
        """
        end = start + nsectors
        for i in range(len(self._segments) - 1, -1, -1):
            seg = self._segments[i]
            if seg.frozen_extent is not None:
                if start >= seg.start and end <= seg.frozen_extent:
                    self._touch(i)
                    return seg, seg.available_at(end - 1)
            else:
                # Live stream: a request that *starts* within the
                # stream's prefetch reach is a seamless continuation --
                # the drive keeps reading at media rate, so the request
                # end is unbounded.  Requests starting beyond the
                # prefetch bound missed the stream entirely.
                if start >= seg.start and start < seg.end_cap:
                    self._touch(i)
                    return seg, seg.available_at(end - 1)
        return None

    def extend_cap(self, seg: ReadSegment, request_end: int, disk_end: int) -> None:
        """Advance a live segment's prefetch bound after a served request."""
        if seg.frozen_extent is None:
            seg.end_cap = min(max(seg.end_cap, request_end + self.readahead), disk_end)

    def install(
        self,
        start: int,
        nsectors: int,
        completion: float,
        sector_time: float,
        disk_end: int,
    ) -> Optional[ReadSegment]:
        """Create a new segment after a media read completing at ``completion``."""
        if not self.enabled:
            return None
        seg = ReadSegment(
            start=start,
            fill_base=start + nsectors,
            fill_time=completion,
            sector_time=sector_time,
            end_cap=min(start + nsectors + self.readahead, disk_end),
        )
        self._segments.append(seg)
        while len(self._segments) > self.max_segments:
            self._segments.pop(0)
        return seg

    def freeze_all(self, now: float, except_segment: Optional[ReadSegment] = None) -> None:
        """The arm moved: stop every prefetch stream at its current fill."""
        for seg in self._segments:
            if seg is not except_segment:
                seg.freeze(now)

    def invalidate_range(self, start: int, nsectors: int) -> None:
        """Drop segments overlapping a written range (write coherence)."""
        end = start + nsectors
        for seg in self._segments:
            if seg.start < end and seg.end_cap > start:
                self._segments = [kept for kept in self._segments
                                  if kept.end_cap <= start or kept.start >= end]
                return

    def invalidate_all(self) -> None:
        self._segments.clear()

    def _touch(self, index: int) -> None:
        seg = self._segments.pop(index)
        self._segments.append(seg)


#: The most sectors one drain operation writes.
MAX_COALESCE_SECTORS = 1024


class WriteBuffer:
    """Write-behind buffer: pending ranges keyed by start LBA.

    Ranges are what the host wrote (the file systems write in whole
    blocks, so exact-match absorption covers the rewrite case).  The
    drive drains pending ranges in ascending-LBA order (C-LOOK style)
    and coalesces chains of adjacent ranges into single media
    operations.
    """

    def __init__(self, capacity_sectors: int) -> None:
        self.capacity = capacity_sectors
        self._pending: Dict[int, Tuple[int, float]] = {}  # start -> (nsectors, enqueue time)
        self._starts: List[int] = []                      # sorted keys
        self.pending_sectors = 0
        self._rotor = 0                                   # C-LOOK position

    def __len__(self) -> int:
        return len(self._pending)

    @property
    def empty(self) -> bool:
        return not self._pending

    def add(self, start: int, nsectors: int, when: float = 0.0) -> bool:
        """Queue a write; returns True if absorbed by a pending range."""
        existing = self._pending.get(start)
        if existing is not None and existing[0] == nsectors:
            self._pending[start] = (nsectors, when)
            return True
        if existing is not None:
            self.pending_sectors += nsectors - existing[0]
            self._pending[start] = (nsectors, when)
            return True
        self._pending[start] = (nsectors, when)
        bisect.insort(self._starts, start)
        self.pending_sectors += nsectors
        return False

    def would_overflow(self, nsectors: int) -> bool:
        return self.pending_sectors + nsectors > self.capacity

    def covering_range(self, start: int, nsectors: int) -> Optional[Tuple[int, int]]:
        """Pending range fully containing ``[start, start+nsectors)``, if any."""
        i = bisect.bisect_right(self._starts, start) - 1
        if i >= 0:
            s = self._starts[i]
            n = self._pending[s][0]
            if start >= s and start + nsectors <= s + n:
                return s, n
        return None

    def overlapping(self, start: int, nsectors: int) -> List[Tuple[int, int]]:
        """All pending ranges overlapping ``[start, start+nsectors)``."""
        end = start + nsectors
        out: List[Tuple[int, int]] = []
        i = bisect.bisect_left(self._starts, start)
        if i > 0:
            s = self._starts[i - 1]
            if s + self._pending[s][0] > start:
                out.append((s, self._pending[s][0]))
        while i < len(self._starts) and self._starts[i] < end:
            s = self._starts[i]
            out.append((s, self._pending[s][0]))
            i += 1
        return out

    def remove(self, start: int) -> None:
        n, _ = self._pending.pop(start)
        idx = bisect.bisect_left(self._starts, start)
        del self._starts[idx]
        self.pending_sectors -= n

    def pop_drain(self) -> Optional[Tuple[int, int, float]]:
        """Next range to drain: C-LOOK ascending, with adjacent coalescing.

        Returns ``(start, nsectors, ready)`` where ``ready`` is the
        latest enqueue time among the coalesced ranges — the drain
        cannot begin before the data existed in the buffer.
        """
        if not self._pending:
            return None
        i = bisect.bisect_left(self._starts, self._rotor)
        if i >= len(self._starts):
            i = 0
        start = self._starts[i]
        total, ready = self._pending[start]
        self.remove(start)
        # Coalesce a chain of physically adjacent pending ranges.
        nxt = start + total
        while total < MAX_COALESCE_SECTORS and nxt in self._pending:
            n, enq = self._pending[nxt]
            self.remove(nxt)
            ready = max(ready, enq)
            total += n
            nxt = start + total
        self._rotor = start + total
        return start, total, ready
