"""Phase aggregation shared by the multi-client and cluster drivers.

Both drivers replay scripted clients over the event loop and end up
with the same raw material: per-client :class:`~repro.engine.client.
OpRecord` lists plus, from :func:`replay_window`, each disk queue's
:class:`~repro.engine.diskqueue.QueueAccounting` delta for the phase.
This module owns the bracket and the reduction from that raw material
to the report dataclasses the CLIs render — one client's summary, and
one phase's aggregate — so the single-engine harness
(:mod:`repro.engine.multiclient`) and the sharded cluster
(:mod:`repro.cluster`) cannot drift apart in how they measure.

A "client" here is anything with ``name`` and ``records`` attributes;
both :class:`~repro.engine.client.ClientContext` and the cluster's
client satisfy that shape.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, List, Sequence

from repro.analysis.metrics import (
    LatencySummary,
    jain_fairness,
    summarize_latencies,
)
from repro.clock import SimClock
from repro.engine.diskqueue import DiskQueue, QueueAccounting


@dataclass
class ClientSummary:
    """One client's view of one phase."""

    client: str
    n_ops: int
    ops_per_second: float
    cpu_seconds: float
    queue_delay: float           # total host-queue wait across requests
    n_requests: int
    latency: LatencySummary
    retries: int = 0             # transient disk faults this client rode out
    io_errors: int = 0           # operations aborted by a hard fault


@dataclass
class PhaseReport:
    """Aggregate and per-client measurements for one phase."""

    phase: str
    seconds: float
    n_ops: int
    latency: LatencySummary      # across all clients' operations
    per_client: List[ClientSummary] = field(default_factory=list)
    mean_queue_depth: float = 0.0
    mean_queue_delay: float = 0.0
    fairness: float = 1.0        # Jain index over per-client rates
    retried: int = 0             # queue-level transient-fault requeues
    failed: int = 0              # requests that completed with an error

    @property
    def ops_per_second(self) -> float:
        return self.n_ops / self.seconds if self.seconds > 0 else float("inf")


def summarize_client(client, phase: str, start: float) -> ClientSummary:
    """Reduce one client's records for ``phase`` to its summary row."""
    records = [r for r in client.records if r.phase == phase]
    latencies = [r.latency for r in records]
    finish = max((r.end for r in records), default=start)
    span = finish - start
    rate = len(records) / span if span > 0 else float("inf")
    return ClientSummary(
        client=client.name,
        n_ops=len(records),
        ops_per_second=rate,
        cpu_seconds=sum(r.cpu_seconds for r in records),
        queue_delay=sum(r.queue_delay for r in records),
        n_requests=sum(r.n_requests for r in records),
        latency=summarize_latencies(latencies),
        retries=sum(r.retries for r in records),
        io_errors=sum(1 for r in records if r.error is not None),
    )


@dataclass
class Window:
    """One replayed phase as its disk queues saw it; complete once the
    window has closed."""

    start: float
    seconds: float = 0.0
    #: Each queue's accounting inside the window, in the order given.
    queues: List[QueueAccounting] = field(default_factory=list)


@contextmanager
def replay_window(clock: SimClock,
                  queues: Sequence[DiskQueue]) -> Iterator[Window]:
    """Bracket a replayed phase (its replay and the sync that ends it)
    on the loop ``clock``: the one place a queue's counters are diffed."""
    before = [queue.stats.snapshot() for queue in queues]
    window = Window(clock.now)
    try:
        yield window
    finally:
        window.seconds = clock.now - window.start
        window.queues = [queue.stats.delta(earlier)
                         for queue, earlier in zip(queues, before)]


def summarize_phase(phase: str, clients: Sequence,
                    window: Window) -> PhaseReport:
    """Reduce every client's records for ``phase`` to the phase report.

    The queue figures are the sum over ``window``'s queues (the fields
    are plain counters, so addition is well-defined — ``max_depth``
    becomes the worst queue's high-water mark).
    """
    start, seconds = window.start, window.seconds
    summaries: List[ClientSummary] = []
    all_latencies: List[float] = []
    total_ops = 0
    for client in clients:
        summary = summarize_client(client, phase, start)
        summaries.append(summary)
        all_latencies.extend(client.latencies(phase))
        total_ops += summary.n_ops
    delta = QueueAccounting.total(window.queues)
    return PhaseReport(
        phase=phase,
        seconds=seconds,
        n_ops=total_ops,
        latency=summarize_latencies(all_latencies),
        per_client=summaries,
        mean_queue_depth=(delta.depth_area / seconds if seconds > 0 else 0.0),
        mean_queue_delay=delta.mean_queue_delay,
        fairness=jain_fairness([s.ops_per_second for s in summaries]),
        retried=delta.retried,
        failed=delta.failed,
    )


__all__ = [
    "ClientSummary",
    "PhaseReport",
    "Window",
    "replay_window",
    "summarize_client",
    "summarize_phase",
]
