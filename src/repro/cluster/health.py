"""Per-shard health: the device state machine lifted to cluster scope.

PR 5's :class:`~repro.resilience.health.HealthMonitor` tracks one
device.  The cluster keeps one monitor *per shard* and classifies the
taxonomy errors its execution paths surface into state transitions
over the same monotonic machine::

    HEALTHY --> DEGRADED --> READ_ONLY --> FAILED

Classification (the budgets are :data:`MAX_WRITE_FAULTS` and
:data:`MAX_READ_FAULTS`):

- :class:`~repro.errors.ReadOnlyFileSystem` — the shard's own stack
  already demoted itself: mirror it as READ_ONLY.
- :class:`~repro.errors.DeviceDegraded` / :class:`~repro.errors.
  PowerLoss` — the device is gone: FAILED.
- hard media-write failures — DEGRADED on the first, READ_ONLY once
  ``MAX_WRITE_FAULTS`` have been seen (the write path cannot be
  trusted; reads keep working, which is what makes evacuation
  possible).
- hard media-read failures — DEGRADED on the first, FAILED once
  ``MAX_READ_FAULTS`` have been seen (a shard that cannot read cannot
  even be evacuated).

Every transition is mirrored into the cluster's metrics registry:
``cluster.health.s<k>`` gauges hold the state ordinal and
``cluster.health.transitions`` counts moves, so the chaos report and
the observability stack read the same numbers.

Both execution paths — the facade's lock-step calls and the clients'
capture-replay — run an op through one loop
(:meth:`~repro.cluster.core.Cluster.run_op`), which hands every failure
to one decision, :meth:`ClusterHealth.after_failure` (classify it,
spend the retry budget: :func:`next_delay`), and refuses a write whose
shard is not writable (:meth:`ClusterHealth.refusal`).  A sick shard's
subtrees move only by evacuation (:mod:`repro.cluster.evacuate`).

The monitors are *advisory* at cluster scope: they steer the router
away from sick shards and gate evacuation; they do not block the
underlying file systems, whose own health enforcement (the resilient
device) stays where PR 5 put it.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.errors import (
    DeviceDegraded,
    MediaReadError,
    MediaWriteError,
    PowerLoss,
    ReadOnlyFileSystem,
    ReproError,
    TransientDiskError,
)
from repro.obs.metrics import MetricsRegistry
from repro.resilience.health import HealthMonitor, HealthState

#: Hard write faults tolerated before the shard demotes READ_ONLY.
MAX_WRITE_FAULTS = 3
#: Hard read faults tolerated before the shard demotes FAILED.
MAX_READ_FAULTS = 3

#: Bounded retry per cluster op: attempts, the backoff before the first
#: retry (doubling per retry, on the SimClock), and the *simulated* time
#: one operation may spend including backoff, so a sick shard cannot
#: stall a client forever.
OP_ATTEMPTS = 3
OP_BACKOFF = 0.004
OP_TIMEOUT = 2.0


def next_delay(attempts: int, elapsed: float,
               metrics: MetricsRegistry) -> Optional[float]:
    """The backoff before trying again, or ``None``: give up.

    ``attempts`` counts the failures so far (this one included) and
    ``elapsed`` the simulated time the operation has already spent.
    The one retry-budget decision; it counts its own answer into
    ``cluster.retry.attempts`` / ``cluster.retry.exhausted``.
    """
    delay = OP_BACKOFF * (2 ** (attempts - 1))
    if attempts >= OP_ATTEMPTS or elapsed + delay > OP_TIMEOUT:
        metrics.counter("cluster.retry.exhausted").inc()
        return None
    metrics.counter("cluster.retry.attempts").inc()
    return delay


def settle(attempts: int, metrics: MetricsRegistry) -> None:
    """The operation succeeded; after a retry, that fault was absorbed."""
    if attempts > 0:
        metrics.counter("cluster.retry.absorbed").inc()


class ClusterHealth:
    """Per-shard :class:`HealthMonitor` bank with error classification."""

    def __init__(self, n_shards: int, metrics: MetricsRegistry,
                 now: Callable[[], float]) -> None:
        self.metrics = metrics
        self._now = now
        self.monitors: List[HealthMonitor] = []
        self._write_faults = [0] * n_shards
        self._read_faults = [0] * n_shards
        for sid in range(n_shards):
            self.monitors.append(HealthMonitor(on_transition=self._mirror(sid)))
            metrics.gauge("cluster.health.s%d" % sid).set(
                HealthState.HEALTHY.value)

    def _mirror(self, sid: int):
        def hook(change) -> None:
            self.metrics.gauge("cluster.health.s%d" % sid).set(
                change.state.value)
            self.metrics.counter("cluster.health.transitions").inc()
        return hook

    # -- state queries ---------------------------------------------------------

    def state(self, sid: int) -> HealthState:
        return self.monitors[sid].state

    def ordinal(self, sid: int) -> int:
        """The state ordinal (0..3) — the router's health hook."""
        return self.monitors[sid].state.value

    def writable(self, sid: int) -> bool:
        return self.monitors[sid].state.value < HealthState.READ_ONLY.value

    def readable(self, sid: int) -> bool:
        return self.monitors[sid].state is not HealthState.FAILED

    def refusal(self, sid: int) -> Optional[ReadOnlyFileSystem]:
        """The error a write to shard ``sid`` gets, or ``None``: writable."""
        if self.writable(sid):
            return None
        return ReadOnlyFileSystem("shard refuses writes (health %s)"
                                  % self.state(sid).name)

    def log(self) -> List[Tuple[float, int, str, str, str]]:
        """All transitions, ordered by (time, shard) — deterministic."""
        rows = []
        for sid, monitor in enumerate(self.monitors):
            for t, prev, state, reason in monitor.summary():
                rows.append((t, sid, prev, state, reason))
        return sorted(rows, key=lambda r: (r[0], r[1]))

    # -- transitions -----------------------------------------------------------

    def mark(self, sid: int, state: HealthState, reason: str) -> bool:
        """Explicit transition (fault injection, evacuation retirement)."""
        return self.monitors[sid].transition(state, self._now(), reason)

    def classify(self, sid: int, exc: ReproError, op: str) -> bool:
        """Record one failure of shard ``sid``: is it worth retrying?

        True for a media fault, counted against the shard's budget of
        its kind (a :class:`TransientDiskError` is charged to ``op``,
        the path that surfaced it): the same call may succeed a moment
        later.  False when the shard itself is the problem (it goes
        READ_ONLY or FAILED) or for a plain file-system error (ENOENT
        and friends), which is no health signal.
        """
        if isinstance(exc, MediaWriteError):
            self._count_fault(sid, "write")
        elif isinstance(exc, MediaReadError):
            self._count_fault(sid, "read")
        elif isinstance(exc, TransientDiskError):
            self._count_fault(sid, op)
        else:
            if isinstance(exc, (DeviceDegraded, PowerLoss)):
                self.mark(sid, HealthState.FAILED, "%s: %s"
                          % (type(exc).__name__, exc))
            elif isinstance(exc, ReadOnlyFileSystem):
                self.mark(sid, HealthState.READ_ONLY, "shard refused writes")
            return False
        return True

    def after_failure(self, sid: int, exc: ReproError, op: str,
                      attempts: int, elapsed: float, retryable: bool
                      ) -> Optional[float]:
        """The one post-failure decision of both execution paths.

        ``exc`` is what the call on shard ``sid`` raised; ``op`` is the
        call's path (``"write"`` for a mutation); ``attempts`` counts
        the op's failures so far, this one included, and ``elapsed``
        its simulated time.  ``retryable`` is False for an op the
        caller cannot re-run.  Returns the backoff before trying again,
        or ``None``: give up and surface ``exc``.
        """
        if not self.classify(sid, exc, op) or not retryable:
            return None
        return next_delay(attempts, elapsed, self.metrics)

    def _count_fault(self, sid: int, op: str) -> None:
        if op == "write":
            self._write_faults[sid] += 1
            n = self._write_faults[sid]
            self.mark(sid, HealthState.DEGRADED,
                      "hard write fault (%d in budget)" % n)
            if n >= MAX_WRITE_FAULTS:
                self.mark(sid, HealthState.READ_ONLY,
                          "write fault budget exhausted (%d)" % n)
        else:
            self._read_faults[sid] += 1
            n = self._read_faults[sid]
            self.mark(sid, HealthState.DEGRADED,
                      "hard read fault (%d in budget)" % n)
            if n >= MAX_READ_FAULTS:
                self.mark(sid, HealthState.FAILED,
                          "read fault budget exhausted (%d)" % n)


__all__ = [
    "ClusterHealth",
    "HealthState",
    "next_delay",
    "settle",
]
