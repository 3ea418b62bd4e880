"""The many-client traffic model: Zipfian load over a sharded cluster.

This is the "millions of users" story made measurable: thousands of
capture-replay clients, each issuing a few operations against top-level
directories whose popularity follows a Zipf distribution (a handful of
directories absorb most of the traffic — the shape real multi-tenant
namespaces have).  Directories are created *on demand at first touch*,
which is exactly the moment the router places them: under the
utilization-aware policy, placement therefore reacts to the hot
directories as they emerge, which is what keeps per-shard load flat
despite the skew.

The op mix is configurable: reads (a seed file of the directory),
writes (a client-private file, so concurrent clients never collide),
and a small fraction of renames that move one of the client's own
files into another sampled directory — frequently crossing shards,
which exercises the two-phase rename protocol under load and feeds the
cross-shard op counters.

Everything is seeded and replayed on the shared deterministic event
loop, so two identically-configured runs render byte-identical reports
and emit identical JSON summaries (the CI smoke diffs both).
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.report import Table
from repro.cache.policy import MetadataPolicy
from repro.cluster.core import Cluster, ClusterClient, ClusterOp
from repro.cluster.router import ROUTE_CPU_SECONDS
from repro.engine.report import PhaseReport, merge_queue_deltas, summarize_phase
from repro.errors import InvalidArgument
from repro.faults.schedule import FaultSchedule

#: JSON summary schema identifier (bump on incompatible change).
CLUSTER_SCHEMA = "repro-cluster/1"

#: Files the first toucher of a directory writes into it; reads pick one.
SEED_FILES = 2


@dataclass
class TrafficConfig:
    """One cluster traffic experiment (all fields seeded/deterministic)."""

    shards: int = 4
    clients: int = 1000
    ops_per_client: int = 3
    dirs: int = 96
    zipf_theta: float = 0.9
    read_fraction: float = 0.55
    rename_fraction: float = 0.02
    file_size: int = 16384
    label: str = "cffs"
    policy: MetadataPolicy = MetadataPolicy.SYNC_METADATA
    scheduler: str = "clook"
    router: str = "util"
    seed: int = 1997
    #: Optional per-shard fault schedules (shard id -> schedule); the
    #: named shards run behind the fault-injecting device proxy.
    faults: Optional[Dict[int, FaultSchedule]] = None

    def validate(self) -> None:
        if self.clients < 1:
            raise InvalidArgument("need at least one client")
        if self.ops_per_client < 1:
            raise InvalidArgument("need at least one op per client")
        if self.dirs < 1:
            raise InvalidArgument("need at least one directory")
        if self.zipf_theta < 0.0:
            raise InvalidArgument("zipf theta must be non-negative")
        if self.file_size < 1:
            raise InvalidArgument("file size must be positive")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise InvalidArgument("read fraction must be within [0, 1]")
        if not 0.0 <= self.rename_fraction <= 1.0:
            raise InvalidArgument("rename fraction must be within [0, 1]")
        if self.read_fraction + self.rename_fraction > 1.0:
            raise InvalidArgument("read + rename fractions exceed 1")
        if self.faults:
            for sid in self.faults:
                if not 0 <= sid < self.shards:
                    raise InvalidArgument(
                        "fault schedule names shard %d of %d"
                        % (sid, self.shards))


@dataclass
class ShardBalance:
    """One shard's share of the phase (ops, bytes, queue pressure)."""

    shard: str
    ops: int
    bytes_read: int
    bytes_written: int
    requests: int
    mean_queue_depth: float
    busy_seconds: float


@dataclass
class ClusterTrafficResult:
    """Everything the report and the JSON summary are built from."""

    config: TrafficConfig
    phase: PhaseReport
    per_shard: List[ShardBalance] = field(default_factory=list)
    routes: int = 0
    local_renames: int = 0
    cross_shard_renames: int = 0

    @property
    def seconds(self) -> float:
        return self.phase.seconds

    @property
    def ops_per_second(self) -> float:
        return self.phase.ops_per_second

    @property
    def imbalance(self) -> float:
        """(max - min) / mean of per-shard routed ops; 0 is perfect."""
        ops = [s.ops for s in self.per_shard]
        mean = sum(ops) / len(ops) if ops else 0.0
        return (max(ops) - min(ops)) / mean if mean > 0 else 0.0

    @property
    def route_cpu_seconds(self) -> float:
        return self.routes * ROUTE_CPU_SECONDS


# -- Zipf sampling --------------------------------------------------------------


class ZipfSampler:
    """Rank-frequency sampling: P(rank r) proportional to 1/(r+1)^theta."""

    def __init__(self, n: int, theta: float) -> None:
        weights = [1.0 / (rank + 1) ** theta for rank in range(n)]
        total = 0.0
        self._cdf: List[float] = []
        for w in weights:
            total += w
            self._cdf.append(total)
        self._total = total

    def sample(self, rng: random.Random) -> int:
        return bisect.bisect_left(self._cdf, rng.random() * self._total)


# -- script building -------------------------------------------------------------


def _payload(cid: int, k: int, size: int) -> bytes:
    stamp = b"c%d.%d|" % (cid, k)
    return (stamp * (size // len(stamp) + 1))[:size]


def _seed_payload(top: str, index: int, size: int) -> bytes:
    stamp = b"%s.f%d|" % (top.encode("ascii"), index)
    return (stamp * (size // len(stamp) + 1))[:size]


def _dir_name(rank: int) -> str:
    return "d%03d" % rank


def build_client_ops(cluster: Cluster, cfg: TrafficConfig, cid: int,
                     sampler: ZipfSampler, created: set,
                     written: List[str]) -> List[ClusterOp]:
    """One client's op list (lazy resolvers; see module docstring).

    Public so the chaos harness (:mod:`repro.cluster.chaos`) replays
    the *same* seeded traffic model around its fault storm.
    """
    rng = random.Random(cfg.seed * 1000003 + cid)
    ops: List[ClusterOp] = []

    def ensure_dir(fn_top: str, shard, f) -> None:
        # First toucher materializes the directory and its seed files
        # (resolution happens sequentially on the loop, so exactly one
        # client sees `first`); the cost lands inside that op, which is
        # honest — someone pays the cold mkdir.
        f.mkdir("/" + fn_top)
        seeded = 0
        for s in range(SEED_FILES):
            data = _seed_payload(fn_top, s, cfg.file_size)
            f.write_file("/%s/f%d" % (fn_top, s), data)
            seeded += len(data)
        cluster.account(shard, bytes_written=seeded)

    def write_resolver(top: str, path: str, payload: bytes):
        booked = False

        def resolve():
            nonlocal booked
            shard = cluster.route(top)
            first = top not in created
            if first:
                created.add(top)

            def fn(f):
                if first:
                    ensure_dir(top, shard, f)
                f.write_file(path, payload)

            if not booked:   # a retry re-resolves: book the write once
                booked = True
                cluster.account(shard, bytes_written=len(payload))
                written.append(path)
            return [(shard, fn)]
        return resolve

    def read_resolver(top: str, index: int):
        def resolve():
            shard = cluster.route(top)
            first = top not in created
            if first:
                created.add(top)
            path = "/%s/f%d" % (top, index % SEED_FILES)

            def fn(f):
                if first:
                    ensure_dir(top, shard, f)
                data = f.read_file(path)
                cluster.account(shard, bytes_read=len(data))

            return [(shard, fn)]
        return resolve

    def rename_resolver(dst_top: str, pick: float, fallback):
        def resolve():
            if not written:
                return fallback()
            old = written.pop(int(pick * len(written)) % len(written))
            old_top = old.split("/")[1]
            src_shard = cluster.route(old_top)
            dst_shard = cluster.route(dst_top)
            new = "/%s/%s" % (dst_top, old.rsplit("/", 1)[1])
            first = dst_top not in created
            if first:
                created.add(dst_top)
            setup: List = []
            if first:
                setup.append(
                    (dst_shard, lambda f: ensure_dir(dst_top, dst_shard, f)))
            written.append(new)
            return setup + cluster.rename_legs(src_shard, old, dst_shard, new)
        return resolve

    for k in range(cfg.ops_per_client):
        top = _dir_name(sampler.sample(rng))
        roll = rng.random()
        if roll < cfg.rename_fraction:
            other = _dir_name(sampler.sample(rng))
            pick = rng.random()
            path = "/%s/c%04d_%02d" % (top, cid, k)
            fallback = write_resolver(top, path, _payload(cid, k, cfg.file_size))
            ops.append(("rename", rename_resolver(other, pick, fallback)))
        elif roll < cfg.rename_fraction + cfg.read_fraction:
            ops.append(("read", read_resolver(top, rng.randrange(64))))
        else:
            path = "/%s/c%04d_%02d" % (top, cid, k)
            ops.append(
                ("write", write_resolver(top, path,
                                         _payload(cid, k, cfg.file_size))))
    return ops


# -- the experiment --------------------------------------------------------------


def run_cluster_traffic(cfg: TrafficConfig,
                        cluster: Optional[Cluster] = None
                        ) -> ClusterTrafficResult:
    """Replay the configured client population; returns the result."""
    cfg.validate()
    if cluster is None:
        cluster = Cluster(n_shards=cfg.shards, label=cfg.label,
                          policy=cfg.policy, scheduler=cfg.scheduler,
                          router=cfg.router, faults=cfg.faults)
    sampler = ZipfSampler(cfg.dirs, cfg.zipf_theta)
    created: set = set()
    assignments: Dict[ClusterClient, List[ClusterOp]] = {}
    for cid in range(cfg.clients):
        client = cluster.add_client()
        assignments[client] = build_client_ops(
            cluster, cfg, cid, sampler, created, written=[])

    queue_before = [shard.queue.stats.snapshot() for shard in cluster.shards]
    start = cluster.now
    cluster.run_phase(assignments, "traffic")
    cluster.sync_concurrent()
    seconds = cluster.now - start
    deltas = [shard.queue.stats.delta(before)
              for shard, before in zip(cluster.shards, queue_before)]

    phase = summarize_phase("traffic", start, seconds, cluster.clients,
                            merge_queue_deltas(deltas))
    counters = cluster.metrics
    per_shard = []
    for shard, delta in zip(cluster.shards, deltas):
        per_shard.append(ShardBalance(
            shard=shard.name,
            ops=int(shard.ops.value),
            bytes_read=int(shard.bytes_read.value),
            bytes_written=int(shard.bytes_written.value),
            requests=delta.completed,
            mean_queue_depth=(delta.depth_area / seconds
                              if seconds > 0 else 0.0),
            busy_seconds=delta.busy_time,
        ))
    return ClusterTrafficResult(
        config=cfg,
        phase=phase,
        per_shard=per_shard,
        routes=int(counters.counter("cluster.router.routes").value),
        local_renames=int(counters.counter("cluster.rename.local").value),
        cross_shard_renames=int(counters.counter(
            "cluster.rename.cross_shard").value),
    )


# -- rendering and the JSON summary ----------------------------------------------


def render_cluster(result: ClusterTrafficResult) -> str:
    """The deterministic text report the CLI prints."""
    cfg = result.config
    agg = result.phase.latency
    lines = [
        "cluster traffic: %d shards (%s, %s policy, %s router), "
        "%d clients x %d ops"
        % (cfg.shards, cfg.label, cfg.policy.name.lower(), cfg.router,
           cfg.clients, cfg.ops_per_client),
        "zipf(theta=%.2f) over %d directories, %d%% reads, %d%% renames"
        % (cfg.zipf_theta, cfg.dirs, round(cfg.read_fraction * 100),
           round(cfg.rename_fraction * 100)),
        "",
        "phase: %.3f simulated seconds, %d ops, %.1f ops/s aggregate"
        % (result.seconds, result.phase.n_ops, result.ops_per_second),
        "latency: %s" % agg.render(),
        "router: %d routes, %.2f us overhead/op, %d local renames, "
        "%d cross-shard"
        % (result.routes,
           (result.route_cpu_seconds / result.phase.n_ops * 1e6
            if result.phase.n_ops else 0.0),
           result.local_renames, result.cross_shard_renames),
    ]
    table = Table(
        "per-shard balance (imbalance %.1f%%, fairness %.3f)"
        % (result.imbalance * 100, result.phase.fairness),
        ["shard", "ops", "KB read", "KB written", "requests",
         "queue depth", "busy s"],
    )
    for row in result.per_shard:
        table.add_row(
            row.shard, row.ops,
            "%.1f" % (row.bytes_read / 1024.0),
            "%.1f" % (row.bytes_written / 1024.0),
            row.requests,
            "%.2f" % row.mean_queue_depth,
            "%.3f" % row.busy_seconds,
        )
    lines.append("")
    lines.append(table.render())
    return "\n".join(lines)


def cluster_summary(result: ClusterTrafficResult) -> dict:
    """The machine-readable summary (schema ``repro-cluster/1``)."""
    cfg = result.config
    agg = result.phase.latency
    return {
        "schema": CLUSTER_SCHEMA,
        "config": {
            "shards": cfg.shards,
            "clients": cfg.clients,
            "ops_per_client": cfg.ops_per_client,
            "dirs": cfg.dirs,
            "zipf_theta": cfg.zipf_theta,
            "read_fraction": cfg.read_fraction,
            "rename_fraction": cfg.rename_fraction,
            "file_size": cfg.file_size,
            "seed_files": SEED_FILES,
            "label": cfg.label,
            "policy": cfg.policy.name.lower(),
            "scheduler": cfg.scheduler,
            "router": cfg.router,
            "seed": cfg.seed,
        },
        "totals": {
            "ops": result.phase.n_ops,
            "seconds": round(result.seconds, 9),
            "ops_per_second": round(result.ops_per_second, 3),
            "p50_ms": round(agg.p50 * 1e3, 6),
            "p95_ms": round(agg.p95 * 1e3, 6),
            "p99_ms": round(agg.p99 * 1e3, 6),
            "max_ms": round(agg.maximum * 1e3, 6),
            "retried": result.phase.retried,
            "failed": result.phase.failed,
        },
        "balance": {
            "imbalance": round(result.imbalance, 6),
            "fairness": round(result.phase.fairness, 6),
        },
        "router": {
            "kind": cfg.router,
            "routes": result.routes,
            "overhead_cpu_seconds": round(result.route_cpu_seconds, 9),
            "overhead_us_per_op": round(
                result.route_cpu_seconds / result.phase.n_ops * 1e6
                if result.phase.n_ops else 0.0, 6),
        },
        "renames": {
            "local": result.local_renames,
            "cross_shard": result.cross_shard_renames,
        },
        "per_shard": [
            {
                "shard": row.shard,
                "ops": row.ops,
                "bytes_read": row.bytes_read,
                "bytes_written": row.bytes_written,
                "requests": row.requests,
                "mean_queue_depth": round(row.mean_queue_depth, 6),
                "busy_seconds": round(row.busy_seconds, 9),
            }
            for row in result.per_shard
        ],
    }


__all__ = [
    "CLUSTER_SCHEMA",
    "ClusterTrafficResult",
    "ShardBalance",
    "TrafficConfig",
    "ZipfSampler",
    "build_client_ops",
    "cluster_summary",
    "render_cluster",
    "run_cluster_traffic",
]
