"""Simulated time base shared by every component of the reproduction.

All performance numbers produced by the benchmarks are *simulated* time:
the disk model advances the clock by mechanical service times, and the
file systems charge small CPU costs per operation so that fully-cached
operation sequences do not appear infinitely fast.

The clock is a plain monotonically non-decreasing float of seconds.  It
is deliberately not tied to wall-clock time; experiments are therefore
deterministic and independent of host speed.
"""

from __future__ import annotations


class SimClock:
    """A monotonically non-decreasing simulated clock.

    The clock supports two operations: advancing by a delta (used by CPU
    cost charging) and moving forward to an absolute completion time
    (used by the disk model, which computes when a request finishes).
    """

    __slots__ = ("_now",)

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Advance the clock by ``seconds`` (must be non-negative)."""
        if seconds < 0:
            raise ValueError("cannot advance the clock backwards: %r" % seconds)
        self._now += seconds
        return self._now

    def advance_to(self, when: float) -> float:
        """Move the clock forward to ``when``; ignores times in the past.

        The disk model computes absolute completion times that may be in
        the past relative to another component's idea of "now" (e.g. a
        background drain that already finished); moving to a past time is
        a no-op rather than an error.
        """
        if when > self._now:
            self._now = when
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SimClock(now=%.6f)" % self._now


#: The CPU costs of the paper's 120 MHz Pentium: one system-call
#: crossing, copying one KB between cache and user buffers, scanning one
#: directory entry.
SYSCALL_US = 20.0
COPY_US_PER_KB = 25.0
DIRENT_SCAN_NS = 400.0


class CpuModel:
    """Charges simulated CPU time for in-memory work.

    The paper's platform was a 120 MHz Pentium; per-operation software
    overheads there were tens of microseconds and memory copies ran at
    roughly 40 MB/s.  These costs matter because they bound the best
    case (fully cached) throughput and because per-request host overhead
    is part of why many small disk requests lose to few large ones.
    """

    __slots__ = ("clock",)

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock

    def charge_syscall(self) -> None:
        """Fixed cost of crossing the (simulated) system-call boundary."""
        self.clock.advance(SYSCALL_US * 1e-6)

    def charge_copy(self, nbytes: int) -> None:
        """Cost of copying ``nbytes`` between cache and user buffers."""
        if nbytes > 0:
            self.clock.advance(COPY_US_PER_KB * 1e-6 * (nbytes / 1024.0))

    def charge_dirent_scan(self, nentries: int) -> None:
        """Cost of scanning ``nentries`` directory entries.

        The implementation keeps an in-memory name index for speed (as a
        real kernel's name cache would), but still charges the linear
        scan cost the on-disk format implies, so simulated times remain
        honest.
        """
        if nentries > 0:
            self.clock.advance(DIRENT_SCAN_NS * 1e-9 * nentries)
