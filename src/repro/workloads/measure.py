"""How a phase is measured: one window over the clock and the drive.

Every synchronous driver times its work the same way — read the
simulated clock and snapshot the drive's counters, run, read both again.
:func:`window` is that bracket, :func:`run_script` runs an op script
inside one (the lock-step counterpart of ``repro.engine.client.replay``)
and :class:`Measured` is what either leaves behind: simulated seconds
plus the window's whole ``DiskStats`` delta, so a phase's request counts
and its seek / rotation / transfer split are read off one object.

The engine's and the cluster's phase reports follow a different clock
discipline (queued, event-driven) and do not pass through here; their
bracket is ``repro.engine.report.replay_window``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Sequence, Tuple

from repro import obs
from repro.vfs.interface import FileSystem

#: One scripted operation: a label plus a callable on the file system
#: (the shape of repro.engine.client.Op, which this layer cannot import),
#: in the workloads an :class:`~repro.workloads.trace.Operation` record.
Op = Tuple[str, Callable[[FileSystem], object]]


@dataclass
class Measured:
    """What one window saw; complete once the window has closed."""

    seconds: float = 0.0
    #: The drive's ``DiskStats`` accumulated inside the window (a
    #: ``delta``; this layer may not import the type, L001).
    disk: Any = None

    @property
    def disk_requests(self) -> int:
        return self.disk.total_requests


@contextmanager
def window(fs: FileSystem, workload: Optional[str] = None,
           **attrs: object) -> Iterator[Measured]:
    """Measure the body of the ``with`` block on ``fs``'s clock and drive.

    Named, the body also runs inside a ``workload`` span of that name
    carrying ``attrs``, so a trace slices at exactly the measured
    window.  The yielded :class:`Measured` is filled in when the block
    exits — also when the body raises.
    """
    device = fs.cache.device
    clock, stats = device.clock, device.disk.stats
    measured = Measured()
    before, start = stats.snapshot(), clock.now
    try:
        with (obs.span("workload", workload, **attrs) if workload
              else obs.NULL_SPAN):
            yield measured
    finally:
        measured.seconds = clock.now - start
        measured.disk = stats.delta(before)


def run_script(fs: FileSystem, ops: Sequence[Op], sync: bool = False,
               **span: Any) -> Measured:
    """Run ``ops`` in lock-step inside one :func:`window`.

    ``sync`` ends the window with the write-back of every dirty block
    (the paper's "forcefully write back all dirty blocks before
    considering the measurement complete"); ``span`` names the window's
    ``workload`` span, as for :func:`window`.
    """
    with window(fs, **span) as measured:
        for _label, op in ops:
            op(fs)
        if sync:
            fs.sync()
    return measured
