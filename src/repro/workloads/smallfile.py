"""The small-file microbenchmark (from [Rosenblum92], as used in §4.2).

Four phases over N small files named by one directory (or spread over
several): create+write, read back in creation order, overwrite in the
same order, and remove in the same order.  Between phases all dirty
blocks are forcefully written back and the caches are dropped, so each
phase runs cold — matching the paper's measurement discipline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import InvalidArgument
from repro.vfs.interface import FileSystem
from repro.workloads.measure import Measured, Op, run_script

PHASES = ("create", "read", "overwrite", "delete")


@dataclass
class PhaseResult:
    """One phase's measurements (simulated time)."""

    phase: str
    n_files: int
    file_size: int
    measured: Measured

    @property
    def seconds(self) -> float:
        return self.measured.seconds

    @property
    def disk_requests(self) -> int:
        return self.measured.disk_requests

    @property
    def files_per_second(self) -> float:
        return self.n_files / self.seconds if self.seconds > 0 else float("inf")

    @property
    def requests_per_file(self) -> float:
        return self.disk_requests / self.n_files if self.n_files else 0.0


@dataclass
class SmallFileResult:
    """All four phases for one configuration."""

    label: str
    phases: Dict[str, PhaseResult] = field(default_factory=dict)

    def __getitem__(self, phase: str) -> PhaseResult:
        return self.phases[phase]


def smallfile_paths(root: str, n_files: int, n_dirs: int = 1) -> List[str]:
    """The file names one small-file run touches, in creation order."""
    if n_dirs == 1:
        return ["%s/f%06d" % (root, i) for i in range(n_files)]
    # Round-robin across directories: creation (and hence access) order
    # interleaves the directories, as concurrent activity would.
    return ["%s/d%03d/f%06d" % (root, i % n_dirs, i) for i in range(n_files)]


def smallfile_ops(paths: Sequence[str], file_size: int, phase: str,
                  payload: Optional[bytes] = None) -> List[Op]:
    """One phase (create / read / overwrite / delete) as a script.

    This is the phase's one definition: :func:`run_smallfile` and the
    size sweep run it in lock-step inside their timing windows, the
    engine interleaves it with other clients' scripts.
    """
    data = payload if payload is not None else b"s" * file_size
    if len(data) != file_size:
        raise ValueError("payload length must equal file_size")

    def write(fs: FileSystem, path: str) -> None:
        fs.write_file(path, data)

    def read(fs: FileSystem, path: str) -> None:
        got = fs.read_file(path)
        if len(got) != file_size:
            raise AssertionError("short read of %s" % path)

    def delete(fs: FileSystem, path: str) -> None:
        fs.unlink(path)

    bodies = {"create": write, "read": read, "overwrite": write,
              "delete": delete}
    if phase not in bodies:
        raise InvalidArgument("unknown small-file phase %r" % phase)
    body = bodies[phase]
    return [(phase, lambda fs, p=path: body(fs, p)) for path in paths]


def run_smallfile(
    fs: FileSystem,
    n_files: int = 10000,
    file_size: int = 1024,
    n_dirs: int = 1,
    label: Optional[str] = None,
    phases: tuple = PHASES,
) -> SmallFileResult:
    """Run the four-phase benchmark; returns per-phase results.

    The file system must be freshly mounted (or at least have ``/bench``
    available for creation).  Phase timing includes the final write-back
    of all dirty blocks, and caches are dropped between phases.
    """
    paths = smallfile_paths("/bench", n_files, n_dirs)
    # Built before the volume is touched: a bad phase fails first.
    scripts = {name: smallfile_ops(paths, file_size, name) for name in phases}

    fs.mkdir("/bench")
    for parent in dict.fromkeys(p.rsplit("/", 1)[0] for p in paths):
        if parent != "/bench":
            fs.mkdir(parent)
    fs.sync()
    fs.drop_caches()

    result = SmallFileResult(label=label if label is not None else fs.name)
    for name in phases:
        # The workload span brackets exactly the measured window (the
        # script plus the final write-back), so traces slice per phase.
        result.phases[name] = PhaseResult(
            name, n_files, file_size,
            run_script(fs, scripts[name], sync=True,
                       workload=name, files=n_files, size=file_size))
        fs.drop_caches()
    return result
