"""Parameter sets for the disk drives the paper uses.

Three sources:

- **Table 1** of the paper (quoted in the supplied text) gives seek
  characteristics for three state-of-the-art-for-1996 drives from HP,
  Seagate and Quantum: single-cylinder seeks of 1.0/0.6/1.0 ms, average
  seeks of 8.7/8.0/7.9 ms and maximum seeks of 16.5/19.0/18.0 ms.
- **Table 2** describes the experimental platform's Seagate ST31200
  (a 1 GB 5400 RPM drive of 1993 vintage).
- The **HP C2247** is cited as having half the sectors per track of the
  HP C3653 with only a 33% higher average access time.

Rotation rates, geometry and zone tables are reconstructed from vendor
spec sheets of the era where the paper does not quote them; every value
below is a plain dataclass field, so experiments can copy a profile and
vary any parameter.

Calibration notes (recorded here because they shape the headline
results; see DESIGN.md §2 and EXPERIMENTS.md):

- ``write_cache`` is enabled on the ST31200 profile.  The write-behind
  buffer absorbs repeated rewrites of the same block, which is exactly
  the locality effect the paper credits for the embedded-inode delete
  win ("the same block gets overwritten repeatedly as the multiple
  inodes that it contains are re-initialized").
- ``readahead_sectors`` bounds the drive's sequential prefetch per
  cache segment ("The disk prefetches sequential disk data into its
  on-board cache", paper §4.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.disk.geometry import DiskGeometry, Zone
from repro.disk.mechanics import RotationModel, SeekCurve


@dataclass(frozen=True)
class DriveProfile:
    """Everything needed to instantiate a :class:`SimulatedDisk`."""

    name: str
    year: int
    rpm: float
    heads: int
    # Zone table as (cylinders, sectors_per_track) pairs, outermost first.
    zone_table: Tuple[Tuple[int, int], ...]
    single_cyl_seek_ms: float
    avg_seek_ms: float
    full_seek_ms: float
    track_switch_ms: float = 0.8
    command_overhead_ms: float = 1.1  # host driver + controller per request
    bus_mb_per_s: float = 10.0        # fast SCSI-2
    cache_segments: int = 2
    readahead_sectors: int = 64       # max prefetch beyond a read (sectors)
    write_cache: bool = False
    write_buffer_kb: int = 256        # write-behind buffer capacity

    def geometry(self) -> DiskGeometry:
        return DiskGeometry(self.heads, [Zone(c, s) for c, s in self.zone_table])

    def seek_curve(self) -> SeekCurve:
        cylinders = sum(c for c, _ in self.zone_table)
        return SeekCurve.from_three_points(
            self.single_cyl_seek_ms, self.avg_seek_ms, self.full_seek_ms, cylinders
        )

    def rotation(self) -> RotationModel:
        return RotationModel(self.rpm)

    @property
    def cylinders(self) -> int:
        return sum(c for c, _ in self.zone_table)

    @property
    def capacity_bytes(self) -> int:
        return self.geometry().capacity_bytes

    @property
    def rotation_ms(self) -> float:
        return 60000.0 / self.rpm

    @property
    def max_media_mb_per_s(self) -> float:
        """Media rate of the outermost zone in MB/s."""
        spt = self.zone_table[0][1]
        return spt * 512.0 / (self.rotation_ms / 1000.0) / 1e6


# ---------------------------------------------------------------------------
# Table 1 drives (1996 state of the art; motivate the bandwidth argument).
# Seek numbers are the paper's; geometry reconstructed from spec sheets.
# ---------------------------------------------------------------------------

HP_C3653 = DriveProfile(
    name="HP C3653",
    year=1996,
    rpm=7200.0,
    heads=8,
    zone_table=(
        (600, 144),
        (600, 132),
        (600, 120),
        (600, 108),
        (527, 96),
    ),
    single_cyl_seek_ms=1.0,
    avg_seek_ms=8.7,
    full_seek_ms=16.5,
    command_overhead_ms=0.9,
    bus_mb_per_s=20.0,
    cache_segments=4,
    readahead_sectors=128,
)

SEAGATE_BARRACUDA_4LP = DriveProfile(
    name="Seagate Barracuda 4LP",
    year=1996,
    rpm=7200.0,
    heads=8,
    zone_table=(
        (700, 160),
        (700, 144),
        (700, 128),
        (700, 112),
        (688, 96),
    ),
    single_cyl_seek_ms=0.6,
    avg_seek_ms=8.0,
    full_seek_ms=19.0,
    command_overhead_ms=0.9,
    bus_mb_per_s=20.0,
    cache_segments=4,
    readahead_sectors=128,
)

QUANTUM_ATLAS_II = DriveProfile(
    name="Quantum Atlas II",
    year=1996,
    rpm=7200.0,
    heads=10,
    zone_table=(
        (650, 152),
        (650, 136),
        (650, 124),
        (650, 112),
        (656, 100),
    ),
    single_cyl_seek_ms=1.0,
    avg_seek_ms=7.9,
    full_seek_ms=18.0,
    command_overhead_ms=0.9,
    bus_mb_per_s=20.0,
    cache_segments=4,
    readahead_sectors=128,
)

# ---------------------------------------------------------------------------
# The HP C2247: "had only half as many sectors on each track as the HP
# C3653 ... but an average access time that was only 33% higher."
# ---------------------------------------------------------------------------

HP_C2247 = DriveProfile(
    name="HP C2247",
    year=1992,
    rpm=5400.0,
    heads=13,
    zone_table=(
        (500, 72),
        (500, 66),
        (500, 60),
        (500, 54),
        (51, 48),
    ),
    single_cyl_seek_ms=1.3,
    avg_seek_ms=11.5,
    full_seek_ms=23.0,
    command_overhead_ms=1.3,
    bus_mb_per_s=10.0,
    cache_segments=2,
    readahead_sectors=64,
)

# ---------------------------------------------------------------------------
# Table 2: the experimental platform's Seagate ST31200 (1 GB, 5400 RPM).
# ---------------------------------------------------------------------------

SEAGATE_ST31200 = DriveProfile(
    name="Seagate ST31200",
    year=1993,
    rpm=5400.0,
    heads=9,
    zone_table=(
        (540, 88),
        (540, 82),
        (540, 76),
        (540, 70),
        (540, 64),
    ),
    single_cyl_seek_ms=1.0,
    avg_seek_ms=10.5,
    full_seek_ms=21.0,
    command_overhead_ms=1.1,
    bus_mb_per_s=10.0,
    cache_segments=2,
    readahead_sectors=32,
    write_cache=True,
    write_buffer_kb=256,
)

PROFILES: Dict[str, DriveProfile] = {
    p.name: p
    for p in (HP_C3653, SEAGATE_BARRACUDA_4LP, QUANTUM_ATLAS_II, HP_C2247, SEAGATE_ST31200)
}

TABLE1_DRIVES: List[DriveProfile] = [HP_C3653, SEAGATE_BARRACUDA_4LP, QUANTUM_ATLAS_II]
