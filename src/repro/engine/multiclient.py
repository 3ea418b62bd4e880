"""Multi-client experiments: throughput *and latency* under load.

The single-client experiments answer the paper's 1997 question — how
fast can one synchronous stream go.  This driver answers the scaling
question: N clients share one file system and one disk arm, their
requests contend in the host queue, and the interesting outputs are
aggregate files/s, per-client latency percentiles, queueing delay,
queue depth and fairness.

``run_multiclient`` runs one configuration; ``multiclient_scaling``
sweeps client count over two configurations (FFS-style baseline vs.
C-FFS) and renders the comparison.  ``ffs`` there names
``conventional`` — the C-FFS code with both techniques disabled,
exactly the paper's baseline (see :func:`~repro.workloads.configs.
config_for`).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro import obs
from repro.analysis.report import Table
from repro.cache.policy import MetadataPolicy
from repro.engine.client import ClientContext, Engine
from repro.engine.report import (
    ClientSummary,
    PhaseReport,
    replay_window,
    summarize_phase,
)
from repro.errors import InvalidArgument
from repro.faults.schedule import FaultSchedule
from repro.workloads.configs import build_filesystem
from repro.workloads.hypertext import Document, build_site, serve_ops
from repro.workloads.postmark import PostmarkConfig, postmark_script
from repro.workloads.smallfile import smallfile_ops, smallfile_paths

WORKLOADS = ("smallfile", "postmark", "hypertext")

#: Client counts the scaling sweep uses by default.
DEFAULT_CLIENT_COUNTS = (1, 2, 4, 8, 16, 32)

#: Seed of client 0's postmark and hypertext scripts; client ``c`` uses
#: ``SEED + c``.
SEED = 1997


@dataclass
class MultiClientResult:
    """One (file system, client count, scheduler) configuration."""

    label: str
    n_clients: int
    scheduler: str
    workload: str
    phases: Dict[str, PhaseReport] = field(default_factory=dict)

    @property
    def total_seconds(self) -> float:
        return sum(p.seconds for p in self.phases.values())

    def __getitem__(self, phase: str) -> PhaseReport:
        return self.phases[phase]


def run_multiclient(
    label: str = "cffs",
    n_clients: int = 8,
    files_per_client: int = 50,
    file_size: int = 1024,
    phases: Sequence[str] = ("create", "read"),
    scheduler: str = "clook",
    policy: MetadataPolicy = MetadataPolicy.SYNC_METADATA,
    workload: str = "smallfile",
    faults: Optional[FaultSchedule] = None,
    tracer: Optional[obs.Tracer] = None,
) -> MultiClientResult:
    """Run ``n_clients`` concurrent clients over one shared file system.

    Each client works in its own directory.  For ``smallfile``,
    ``phases`` selects which of the four classic phases run (a global
    sync ends each phase and caches are dropped between phases, so read
    phases run cold — the paper's measurement discipline, now under
    contention).  ``postmark`` runs one mixed-churn phase; ``hypertext``
    builds a per-client site during setup and serves it cold.
    """
    if workload not in WORKLOADS:
        raise InvalidArgument(
            "unknown workload %r; known: %s" % (workload, ", ".join(WORKLOADS)))
    if n_clients < 1:
        raise InvalidArgument("need at least one client, got %d" % n_clients)
    if files_per_client < 1:
        raise InvalidArgument(
            "need at least one file per client, got %d" % files_per_client)
    fs = build_filesystem(label, policy)
    if tracer is not None:
        # Trace the whole run: spans stamp from the device clock during
        # lock-step sections (capture rebinds to its scratch clock).
        tracer.clock = fs.cache.device.clock
        obs.install(tracer)
    try:
        engine = Engine(fs, scheduler=scheduler, faults=faults)
        clients = [engine.add_client() for _ in range(n_clients)]
        dirs = {client: "/mc/%s" % client.name for client in clients}

        documents: Dict[ClientContext, List[Document]] = {}

        def setup(f):
            f.mkdir("/mc")
            for d in dirs.values():
                f.mkdir(d)
            if workload == "hypertext":
                for client in clients:
                    documents[client] = build_site(
                        f, n_documents=files_per_client,
                        seed=SEED + client.cid, root=dirs[client])
            f.sync()
            f.drop_caches()

        engine.run_sync(setup)

        phase_list = {"smallfile": list(phases), "postmark": ["churn"],
                      "hypertext": ["serve"]}[workload]

        def ops_for(client, phase):
            if workload == "smallfile":
                return smallfile_ops(
                    smallfile_paths(dirs[client], files_per_client),
                    file_size, phase)
            if workload == "hypertext":
                return serve_ops(documents[client], SEED + client.cid)
            script = postmark_script(
                PostmarkConfig(n_files=files_per_client,
                               n_transactions=2 * files_per_client,
                               seed=SEED + client.cid, n_dirs=1),
                [dirs[client]])
            return script["create"] + script["transactions"]

        result = MultiClientResult(label=label, n_clients=n_clients,
                                   scheduler=scheduler, workload=workload)
        for index, phase in enumerate(phase_list):
            phase_ctx = (tracer.context(phase=phase) if tracer is not None
                         else contextlib.nullcontext())
            with replay_window(engine.loop.clock, [engine.queue]) as window:
                with phase_ctx:
                    engine.run_phase(
                        {client: ops_for(client, phase) for client in clients},
                        phase)
                engine.run_sync(lambda f: f.sync())
            result.phases[phase] = summarize_phase(phase, clients, window)
            if index + 1 < len(phase_list):
                engine.run_sync(lambda f: f.drop_caches())
        return result
    finally:
        if tracer is not None and obs.active() is tracer:
            obs.uninstall()


def render_multiclient(result: MultiClientResult) -> str:
    """The per-client latency table the CLI prints."""
    sections: List[str] = [
        "multi-client %s: %d clients, %s scheduler"
        % (result.workload, result.n_clients, result.scheduler),
        "file system: %s   total %.3f simulated seconds"
        % (result.label, result.total_seconds),
    ]
    for phase in result.phases.values():
        faulty = phase.retried > 0 or phase.failed > 0
        headers = ["client", "ops", "ops/s", "cpu ms", "qwait ms",
                   "p50 ms", "p95 ms", "p99 ms", "max ms"]
        if faulty:
            headers += ["retry", "err"]
        table = Table(
            "phase %-10s  %8.3f s  %7.1f ops/s  queue depth %.2f  fairness %.3f"
            % (phase.phase, phase.seconds, phase.ops_per_second,
               phase.mean_queue_depth, phase.fairness),
            headers,
        )
        for c in phase.per_client:
            row = [
                c.client, c.n_ops, "%.1f" % c.ops_per_second,
                "%.2f" % (c.cpu_seconds * 1e3),
                "%.2f" % (c.queue_delay * 1e3),
                "%.2f" % (c.latency.p50 * 1e3),
                "%.2f" % (c.latency.p95 * 1e3),
                "%.2f" % (c.latency.p99 * 1e3),
                "%.2f" % (c.latency.maximum * 1e3),
            ]
            if faulty:
                row += [c.retries, c.io_errors]
            table.add_row(*row)
        agg = phase.latency
        caption = ("aggregate: %s   mean queue delay %.2f ms"
                   % (agg.render(), phase.mean_queue_delay * 1e3))
        if faulty:
            caption += ("   faults: %d retried, %d failed"
                        % (phase.retried, phase.failed))
        table.caption = caption
        sections.append(table.render())
    return "\n\n".join(sections)


@dataclass
class ScalingPoint:
    """One (label, client count) cell of the scaling sweep."""

    label: str
    n_clients: int
    create_files_per_second: float
    read_files_per_second: float
    read_p99: float
    mean_queue_depth: float
    fairness: float
    result: MultiClientResult


def multiclient_scaling(
    client_counts: Sequence[int] = (1, 2, 4, 8),
    labels: Sequence[str] = ("ffs", "cffs"),
    files_per_client: int = 40,
) -> Dict[str, List[ScalingPoint]]:
    """Sweep client count for each label; returns points per label.

    Every cell is an independent run on a fresh disk: clients × files
    work grows with the client count, so throughput numbers are
    sustained rates, not fixed-work division.
    """
    points: Dict[str, List[ScalingPoint]] = {label: [] for label in labels}
    for label in labels:
        for n in client_counts:
            result = run_multiclient(
                label=label, n_clients=n, files_per_client=files_per_client,
                phases=("create", "read"))
            read = result["read"]
            points[label].append(ScalingPoint(
                label=label,
                n_clients=n,
                create_files_per_second=result["create"].ops_per_second,
                read_files_per_second=read.ops_per_second,
                read_p99=read.latency.p99,
                mean_queue_depth=read.mean_queue_depth,
                fairness=read.fairness,
                result=result,
            ))
    return points


def render_scaling(points: Dict[str, List[ScalingPoint]]) -> str:
    """The scaling comparison table (the benchmark artifact)."""
    table = Table(
        "Multi-client scaling: aggregate files/s and read p99 vs. client count",
        ["clients", "fs", "create files/s", "read files/s",
         "read p99 ms", "queue depth", "fairness"],
    )
    labels = list(points)
    counts = [p.n_clients for p in points[labels[0]]]
    for i, n in enumerate(counts):
        for label in labels:
            p = points[label][i]
            table.add_row(
                n, label,
                "%.1f" % p.create_files_per_second,
                "%.1f" % p.read_files_per_second,
                "%.2f" % (p.read_p99 * 1e3),
                "%.2f" % p.mean_queue_depth,
                "%.3f" % p.fairness,
            )
    table.caption = (
        "Each cell: files_per_client x clients on a fresh disk; phases end "
        "with a global sync and the read phase runs cold.")
    return table.render()
