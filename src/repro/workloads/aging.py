"""File system aging, after the program described in [Herrin93] (§4.3).

"The program simply creates and deletes a large number of files.  The
probability that the next operation performed is a file creation
(rather than a deletion) is taken from a distribution centered around
a desired file system utilization."

We implement exactly that: below the target utilization creations are
more likely; above it deletions are.  File sizes come from the
survey-calibrated distribution, so the aged image carries a realistic
mix of small grouped files and larger ungrouped ones, and explicit
groups accumulate internal holes the way the paper's aging study
exercises.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.vfs.interface import FileSystem
from repro.workloads.measure import Measured, window
from repro.workloads.sizes import sample_file_size


@dataclass
class AgingResult:
    """What the aging pass did and where it left the file system."""

    operations: int
    creations: int
    deletions: int
    live_files: int
    utilization: float
    survivors: Optional[List[str]] = None  # paths still live after aging


def age_filesystem(
    fs: FileSystem,
    target_utilization: float,
    operations: int = 20000,
    n_dirs: int = 8,
    seed: int = 42,
    max_file_bytes: int = 1 << 20,
) -> AgingResult:
    """Create/delete files until the image looks ``operations`` old.

    The create probability follows the distance from the target
    utilization along a logistic curve through p=0.5 at the target
    (steepness 8).
    """
    if not 0.05 <= target_utilization <= 0.95:
        raise ValueError("target utilization must be within [0.05, 0.95]")
    rng = random.Random(seed)
    dirs = ["/aged%02d" % d for d in range(n_dirs)]
    for d in dirs:
        if not fs.exists(d):
            fs.mkdir(d)

    live: List[str] = []
    serial = 0
    creations = 0
    deletions = 0
    total = fs.total_data_blocks()

    for _ in range(operations):
        utilization = 1.0 - fs.free_blocks() / total
        # Logistic pull toward the target.
        x = 8.0 * (target_utilization - utilization)
        p_create = 1.0 / (1.0 + pow(2.718281828, -x))
        if (rng.random() < p_create or not live):
            size = min(sample_file_size(rng), max_file_bytes)
            path = "%s/a%07d" % (rng.choice(dirs), serial)
            serial += 1
            fs.write_file(path, b"a" * size)
            live.append(path)
            creations += 1
        else:
            victim = live.pop(rng.randrange(len(live)))
            fs.unlink(victim)
            deletions += 1
    fs.sync()
    return AgingResult(
        operations=operations,
        creations=creations,
        deletions=deletions,
        live_files=len(live),
        utilization=1.0 - fs.free_blocks() / total,
        survivors=list(live),
    )


@dataclass
class AgedRead:
    """The cold read of a sample of aged survivors."""

    files: int
    measured: Measured

    @property
    def files_per_second(self) -> float:
        seconds = self.measured.seconds
        return self.files / seconds if seconds else 0.0


def read_aged_files(
    fs: FileSystem,
    result: AgingResult,
    sample: int = 400,
) -> AgedRead:
    """Cold-read a directory-local sample of the files aging left behind.

    This is the measurement the aged image is *for*: survivors live in
    groups that have accumulated internal holes and in scattered
    ungrouped space.  Small files (up to 64 KB) are read with directory
    locality (sorted by path, from a random starting point) — the
    access pattern name-space co-location bets on.
    """
    candidates = sorted(result.survivors or [])
    chosen: List[str] = []
    if candidates:
        start_at = random.Random(17).randrange(len(candidates))
        for path in candidates[start_at:] + candidates[:start_at]:
            if fs.stat(path).size <= 64 * 1024:
                chosen.append(path)
            if len(chosen) >= sample:
                break
    fs.drop_caches()
    with window(fs) as measured:
        for path in chosen:
            fs.read_file(path)
    return AgedRead(len(chosen), measured)
