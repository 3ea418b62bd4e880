"""File-size workloads: throughput sweeps and realistic distributions.

Two uses:

- the throughput-vs-file-size sweep (small-file performance as file
  size grows toward the grouping threshold and beyond);
- a survey-calibrated file size distribution for aging and the
  application suite, matching the paper's static observation that
  "79% of all files on our file servers are less than 8 KB in size".
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence

from repro.vfs.interface import FileSystem
from repro.workloads.measure import Measured, run_script
from repro.workloads.smallfile import smallfile_ops, smallfile_paths

# Piecewise size distribution: (upper bound in bytes, cumulative mass).
# Calibrated so that P(size < 8 KB) = 0.79 and a long tail reaches a
# few MB, consistent with the file-server surveys of the era
# ([Baker91]; the paper's own measurements).
SIZE_BUCKETS = (
    (512, 0.17),
    (1024, 0.30),
    (2048, 0.46),
    (4096, 0.62),
    (8192, 0.79),
    (16384, 0.88),
    (32768, 0.93),
    (65536, 0.962),
    (131072, 0.978),
    (262144, 0.988),
    (1048576, 0.996),
    (4194304, 1.0),
)


def sample_file_size(rng: random.Random) -> int:
    """Draw a file size from the survey-calibrated distribution."""
    u = rng.random()
    prev_bound = 64
    prev_mass = 0.0
    for bound, mass in SIZE_BUCKETS:
        if u <= mass:
            frac = (u - prev_mass) / (mass - prev_mass)
            return int(prev_bound + frac * (bound - prev_bound))
        prev_bound, prev_mass = bound, mass
    return SIZE_BUCKETS[-1][0]


@dataclass
class SweepPoint:
    """Throughput at one file size: the create and the cold-read window."""

    file_size: int
    n_files: int
    create: Measured
    read: Measured

    @property
    def create_mb_per_s(self) -> float:
        return self.n_files * self.file_size / self.create.seconds / 1e6

    @property
    def read_mb_per_s(self) -> float:
        return self.n_files * self.file_size / self.read.seconds / 1e6


def run_size_sweep(
    fs: FileSystem,
    file_sizes: Sequence[int],
    total_bytes: int = 4 << 20,
) -> List[SweepPoint]:
    """Create-then-read workloads at each file size.

    Each point creates enough files of the given size to move roughly
    ``total_bytes`` of payload, syncs, drops caches, reads them back
    cold, and records both windows.  Every size gets its own directory so
    explicit grouping behaves as it would for a fresh directory tree.
    """
    points: List[SweepPoint] = []
    for size in file_sizes:
        n_files = max(16, total_bytes // size)
        dirname = "/sweep%d" % size
        fs.mkdir(dirname)
        paths = smallfile_paths(dirname, n_files)
        create = run_script(
            fs, smallfile_ops(paths, size, "create", ord("z")), sync=True)
        fs.drop_caches()
        read = run_script(fs, smallfile_ops(paths, size, "read"))
        fs.drop_caches()
        points.append(SweepPoint(size, n_files, create, read))
    return points
