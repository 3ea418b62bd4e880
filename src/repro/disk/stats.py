"""Per-drive statistics: the counters the drive keeps in plain fields.

Every experiment in the paper is ultimately explained by request counts
and where the time went (positioning vs. transfer), so the drive keeps
both.  The "order of magnitude fewer disk accesses" claim is checked
directly against these counters.

The drive registers its :class:`DiskStats` with its metrics registry
under ``disk.*`` names, so a snapshot (``repro trace --metrics``)
carries the same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.obs.metrics import Stats

#: Bucket bounds (sectors) of the request-size histogram the drive's
#: registry reports, counted from the exact ``request_sizes``: one block,
#: the paper's 16-block group span, and powers of two between and beyond.
REQUEST_SIZE_BUCKETS = (8, 16, 32, 64, 128, 256, 512)


@dataclass(slots=True)
class DiskStats(Stats):
    """Counters accumulated by a :class:`~repro.disk.drive.SimulatedDisk`."""

    reads: int = 0
    writes: int = 0
    sectors_read: int = 0
    sectors_written: int = 0
    cache_hits: int = 0
    write_absorbed: int = 0
    # Simulated seconds, starting from the int 0 like the counts.
    seek_time: float = 0
    rotation_time: float = 0
    transfer_time: float = 0
    overhead_time: float = 0
    bus_time: float = 0
    stall_time: float = 0
    request_sizes: Dict[int, int] = field(default_factory=dict)

    @property
    def total_requests(self) -> int:
        return self.reads + self.writes

    def record_request(self, is_write: bool, nsectors: int) -> None:
        if is_write:
            self.writes += 1
            self.sectors_written += nsectors
        else:
            self.reads += 1
            self.sectors_read += nsectors
        sizes = self.request_sizes
        sizes[nsectors] = sizes.get(nsectors, 0) + 1
