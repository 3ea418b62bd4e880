"""Sector-accurate simulated disk drives.

This package replaces the physical disks of the paper's testbed (Seagate
ST31200 experimental platform; HP C3653, Quantum Atlas II and Seagate
Barracuda in the motivation section) with a mechanical simulation that
reproduces their *cost structure*: multi-millisecond positioning per
request, microsecond-scale per-byte transfer, zoned recording, on-board
caching with read-ahead, and optional write-behind.

The public surface is:

- :class:`repro.disk.geometry.DiskGeometry` — zoned platter geometry and
  LBA <-> (cylinder, head, sector) translation.
- :class:`repro.disk.mechanics.SeekCurve` /
  :class:`repro.disk.mechanics.RotationModel` — mechanical timing.
- :class:`repro.disk.drive.SimulatedDisk` — a drive that services read
  and write requests and returns completion times.
- :mod:`repro.disk.profiles` — parameter sets for the paper's drives.
"""

from repro.disk.geometry import DiskGeometry, Zone
from repro.disk.mechanics import RotationModel, SeekCurve
from repro.disk.drive import SimulatedDisk
from repro.disk.stats import DiskStats
from repro.disk.profiles import (
    DriveProfile,
    HP_C2247,
    HP_C3653,
    QUANTUM_ATLAS_II,
    SEAGATE_BARRACUDA_4LP,
    SEAGATE_ST31200,
    PROFILES,
)

__all__ = [
    "DiskGeometry",
    "Zone",
    "SeekCurve",
    "RotationModel",
    "SimulatedDisk",
    "DiskStats",
    "DriveProfile",
    "HP_C2247",
    "HP_C3653",
    "QUANTUM_ATLAS_II",
    "SEAGATE_BARRACUDA_4LP",
    "SEAGATE_ST31200",
    "PROFILES",
]
