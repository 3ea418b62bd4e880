"""Cluster-wide chaos: kill a shard mid-traffic, measure the blast radius.

The device-level chaos scenarios (:mod:`repro.faults.chaos`) answer
"does one stack survive its drive?".  This harness asks the cluster
question: when one shard of N dies *while thousands of Zipf-skewed
clients are running*, how much of the service do the survivors keep
delivering, and does every byte that lived on the victim come back?

One run is five deterministic phases on the shared event loop:

``warm``
    A seeded slice of the client population runs faultlessly — the
    namespace fills, the victim shard accumulates subtrees.
``storm``
    The victim's fault schedule is armed (``fail_writes_from(0)`` or
    ``fail_reads_from(0)``) and the rest of the population runs.
    Failed replays feed the per-shard health state, the router steers
    new placements away, clients burn their retry budgets.
``drain``
    The cluster-wide sync barrier: survivors flush clean; the victim's
    flushes fail without stalling the loop.
``evacuate``
    Every READ_ONLY shard is drained over the crash-safe evacuation
    protocol (:mod:`repro.cluster.evacuate`) and retired FAILED.
``verify``
    Every evacuated file is re-read *through the facade* (so routing
    must find the adopted copy) and CRC-compared against the content
    read during evacuation.

The report is byte-identical across identically-seeded runs: every
number is simulated time, a counter, or a CRC.  The verdict gates CI:
availability on the surviving shards must clear the configured floor,
no evacuated file may be lost or corrupt, and no subtree may remain
stranded on an unwritable shard.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.cluster.core import Cluster, ClusterClient, ClusterOp
from repro.cluster.evacuate import EvacuatedTop
from repro.cluster.traffic import (
    SUMMARY_PRECISION,
    TrafficConfig,
    ZipfSampler,
    build_client_ops,
    rounded,
)
from repro.errors import InvalidArgument
from repro.faults.schedule import FaultSchedule
from repro.resilience.checksums import crc32

#: JSON summary schema identifier (bump on incompatible change).
CHAOS_SCHEMA = "repro-cluster-chaos/1"

FAIL_OPS = ("write", "read")


def parse_fault_spec(spec: str, shards: int) -> Dict[int, FaultSchedule]:
    """Parse a ``--faults`` argument into per-shard schedules.

    Grammar: ``SID:key=value[,key=value...][;SID:...]`` — e.g.
    ``1:write_fail_from=0`` breaks shard 1's writes immediately, and
    ``0:transient_rate=0.05,seed=7;2:hard_rate=0.01`` gives shards 0
    and 2 independent seeded background fault rates.
    """
    out: Dict[int, FaultSchedule] = {}
    for part in filter(None, (p.strip() for p in spec.split(";"))):
        sid_text, _, body = part.partition(":")
        try:
            sid = int(sid_text)
        except ValueError:
            raise InvalidArgument(
                "bad fault spec %r: shard id %r is not an integer"
                % (part, sid_text))
        if not 0 <= sid < shards:
            raise InvalidArgument(
                "fault spec names shard %d of %d" % (sid, shards))
        if sid in out:
            raise InvalidArgument("fault spec repeats shard %d" % sid)
        kwargs: Dict[str, float] = {}
        marks: Dict[str, int] = {}
        for item in filter(None, (i.strip() for i in body.split(","))):
            key, eq, value = item.partition("=")
            if not eq:
                raise InvalidArgument(
                    "bad fault spec item %r (want key=value)" % item)
            try:
                if key in ("read_fail_from", "write_fail_from"):
                    marks[key] = int(value)
                elif key in ("seed", "max_transient_failures",
                             "power_cut_after_write"):
                    kwargs[key] = int(value)
                elif key in ("transient_rate", "hard_rate", "torn_rate"):
                    kwargs[key] = float(value)
                else:
                    raise InvalidArgument(
                        "unknown fault spec key %r" % key)
            except ValueError:
                raise InvalidArgument(
                    "bad fault spec value %r for %r" % (value, key))
        try:
            schedule = FaultSchedule(**kwargs)   # type: ignore[arg-type]
        except ValueError as exc:
            raise InvalidArgument("bad fault spec for shard %d: %s"
                                  % (sid, exc))
        if "read_fail_from" in marks:
            schedule.fail_reads_from(marks["read_fail_from"])
        if "write_fail_from" in marks:
            schedule.fail_writes_from(marks["write_fail_from"])
        out[sid] = schedule
    if not out:
        raise InvalidArgument("empty fault spec")
    return out


@dataclass
class ChaosConfig:
    """One cluster chaos experiment (seeded, deterministic)."""

    traffic: TrafficConfig = field(default_factory=TrafficConfig)
    #: The victim: its schedule is armed between warm and storm.
    fail_shard: int = 1
    #: Which path breaks — ``write`` demotes the victim READ_ONLY (and
    #: evacuation can still read it out); ``read`` kills it outright.
    fail_op: str = "write"
    #: Fraction of the client population that runs before the fault.
    warm_fraction: float = 0.4
    #: Minimum success fraction required of ops that touched only
    #: surviving shards.
    availability_floor: float = 0.95

    def validate(self) -> None:
        self.traffic.validate()
        if not 0 <= self.fail_shard < self.traffic.shards:
            raise InvalidArgument(
                "fail shard %d out of range for %d shards"
                % (self.fail_shard, self.traffic.shards))
        if self.traffic.shards < 2:
            raise InvalidArgument("chaos needs at least two shards")
        if self.fail_op not in FAIL_OPS:
            raise InvalidArgument(
                "fail op must be one of %s, got %r"
                % ("/".join(FAIL_OPS), self.fail_op))
        if not 0.0 < self.warm_fraction < 1.0:
            raise InvalidArgument("warm fraction must be within (0, 1)")
        if not 0.0 <= self.availability_floor <= 1.0:
            raise InvalidArgument("availability floor must be in [0, 1]")


@dataclass
class ChaosResult:
    """Everything the chaos report and JSON summary are built from."""

    config: ChaosConfig
    warm_clients: int
    storm_clients: int
    warm_seconds: float
    storm_seconds: float
    drain_seconds: float
    evacuate_seconds: float
    #: (time, shard, prev, state, reason) — the cluster health log.
    health_log: List[Tuple[float, int, str, str, str]]
    final_states: List[str]
    retry_attempts: int
    retry_absorbed: int
    retry_exhausted: int
    router_skips: int
    evacuated: List[EvacuatedTop]
    verified_files: int
    crc_mismatches: List[str]
    #: Tops still assigned to the victim after evacuation.
    stranded: int
    ops_total: int
    ops_failed: int
    surviving_ops: int
    surviving_failed: int

    @property
    def availability(self) -> float:
        if self.ops_total == 0:
            return 1.0
        return 1.0 - self.ops_failed / self.ops_total

    @property
    def surviving_availability(self) -> float:
        if self.surviving_ops == 0:
            return 1.0
        return 1.0 - self.surviving_failed / self.surviving_ops

    def verdict(self) -> str:
        ok = (self.surviving_availability
              >= self.config.availability_floor
              and not self.crc_mismatches
              and self.stranded == 0)
        return "PASS" if ok else "FAIL"


def run_cluster_chaos(cfg: ChaosConfig) -> ChaosResult:
    """Run the five phases; returns the result (see module docstring)."""
    cfg.validate()
    t = cfg.traffic
    storm_schedule = FaultSchedule(seed=t.seed * 31 + cfg.fail_shard)
    # The traffic's own schedules are active from the start; the
    # victim's storm schedule wins on overlap.
    faults = dict(t.faults or {})
    faults[cfg.fail_shard] = storm_schedule
    cluster = Cluster(n_shards=t.shards, label=t.label, policy=t.policy,
                      scheduler=t.scheduler, router=t.router, faults=faults)
    sampler = ZipfSampler(t.dirs, t.zipf_theta)
    created: set = set()
    n_warm = max(1, int(t.clients * cfg.warm_fraction))
    n_warm = min(n_warm, t.clients - 1)

    def run_slice(lo: int, hi: int, phase: str) -> float:
        assignments: Dict[ClusterClient, List[ClusterOp]] = {}
        for cid in range(lo, hi):
            client = cluster.add_client()
            assignments[client] = build_client_ops(
                cluster, t, cid, sampler, created, written=[])
        return cluster.run_phase(assignments, phase)

    warm_seconds = run_slice(0, n_warm, "warm")

    # Arm the storm: every future media request of the chosen kind on
    # the victim fails hard.  Requests already replayed consumed their
    # indices, so the warm phase stays untouched — this is the
    # "drive breaks at simulated time T" moment.
    if cfg.fail_op == "read":
        storm_schedule.fail_reads_from(0)
    else:
        storm_schedule.fail_writes_from(0)

    storm_seconds = run_slice(n_warm, t.clients, "storm")

    mark = cluster.now
    cluster.sync_concurrent()
    drain_seconds = cluster.now - mark

    mark = cluster.now
    evacuated = cluster.evacuate_unhealthy()
    evacuate_seconds = cluster.now - mark

    verified = 0
    mismatches: List[str] = []
    for row in evacuated:
        for path in sorted(row.crcs):
            data = cluster.fs.read_file(path)
            if crc32(data) == row.crcs[path]:
                verified += 1
            else:
                mismatches.append(path)
    stranded = 0
    if not cluster.health.writable(cfg.fail_shard):
        stranded = sum(1 for owner in cluster.router.assignments.values()
                       if owner == cfg.fail_shard)

    ops_total = ops_failed = surviving_ops = surviving_failed = 0
    for client in cluster.clients:
        for record, legs in zip(client.records, client.leg_shards):
            ops_total += 1
            bad = record.error is not None
            if bad:
                ops_failed += 1
            if cfg.fail_shard not in legs:
                surviving_ops += 1
                if bad:
                    surviving_failed += 1

    counters = cluster.metrics
    return ChaosResult(
        config=cfg,
        warm_clients=n_warm,
        storm_clients=t.clients - n_warm,
        warm_seconds=warm_seconds,
        storm_seconds=storm_seconds,
        drain_seconds=drain_seconds,
        evacuate_seconds=evacuate_seconds,
        health_log=cluster.health.log(),
        final_states=[cluster.health.state(s).name
                      for s in range(cluster.n_shards)],
        retry_attempts=int(counters.counter("cluster.retry.attempts").value),
        retry_absorbed=int(counters.counter("cluster.retry.absorbed").value),
        retry_exhausted=int(
            counters.counter("cluster.retry.exhausted").value),
        router_skips=cluster.router.skips,
        evacuated=evacuated,
        verified_files=verified,
        crc_mismatches=mismatches,
        stranded=stranded,
        ops_total=ops_total,
        ops_failed=ops_failed,
        surviving_ops=surviving_ops,
        surviving_failed=surviving_failed,
    )


# -- rendering and the JSON summary ----------------------------------------------


def render_chaos(result: ChaosResult) -> str:
    """The deterministic text report the CLI prints."""
    cfg = result.config
    t = cfg.traffic
    lines = [
        "cluster chaos: %d shards (%s, %s router), victim s%d "
        "(%s storm), %d clients"
        % (t.shards, t.label, t.router, cfg.fail_shard, cfg.fail_op,
           t.clients),
        "phases: warm %d clients / %.3fs, storm %d clients / %.3fs, "
        "drain %.3fs, evacuate %.3fs"
        % (result.warm_clients, result.warm_seconds,
           result.storm_clients, result.storm_seconds,
           result.drain_seconds, result.evacuate_seconds),
        "",
        "health transitions:",
    ]
    for when, sid, prev, state, reason in result.health_log:
        lines.append("  %10.6fs  s%d  %s -> %s  (%s)"
                     % (when, sid, prev, state, reason))
    if not result.health_log:
        lines.append("  (none)")
    lines.extend([
        "final states: %s"
        % ", ".join("s%d=%s" % (sid, name)
                    for sid, name in enumerate(result.final_states)),
        "",
        "retries: %d attempts, %d absorbed, %d exhausted; "
        "%d router skips"
        % (result.retry_attempts, result.retry_absorbed,
           result.retry_exhausted, result.router_skips),
        "evacuation: %d subtrees, %d files, %d bytes; "
        "%d verified, %d mismatched, %d stranded"
        % (len(result.evacuated),
           sum(r.files for r in result.evacuated),
           sum(r.bytes for r in result.evacuated),
           result.verified_files, len(result.crc_mismatches),
           result.stranded),
    ])
    for row in result.evacuated:
        lines.append("  /%s: s%d -> s%d (%d files, %d bytes)"
                     % (row.top, row.src, row.dst, row.files, row.bytes))
    lines.extend([
        "",
        "availability: %.4f overall (%d/%d ops), %.4f on survivors "
        "(%d/%d ops), floor %.2f"
        % (result.availability,
           result.ops_total - result.ops_failed, result.ops_total,
           result.surviving_availability,
           result.surviving_ops - result.surviving_failed,
           result.surviving_ops, cfg.availability_floor),
        "verdict: %s" % result.verdict(),
    ])
    return "\n".join(lines)


def chaos_summary(result: ChaosResult) -> dict:
    """The machine-readable summary (schema ``repro-cluster-chaos/1``)."""
    cfg = result.config
    t = cfg.traffic
    return {
        "schema": CHAOS_SCHEMA,
        "config": {
            "shards": t.shards,
            "clients": t.clients,
            "ops_per_client": t.ops_per_client,
            "dirs": t.dirs,
            "zipf_theta": t.zipf_theta,
            "label": t.label,
            "router": t.router,
            "seed": t.seed,
            "fail_shard": cfg.fail_shard,
            "fail_op": cfg.fail_op,
            "warm_fraction": cfg.warm_fraction,
            "availability_floor": cfg.availability_floor,
        },
        "phases": rounded({
            "warm_clients": result.warm_clients,
            "storm_clients": result.storm_clients,
            "warm_seconds": result.warm_seconds,
            "storm_seconds": result.storm_seconds,
            "drain_seconds": result.drain_seconds,
            "evacuate_seconds": result.evacuate_seconds,
        }),
        "health": {
            "final": list(result.final_states),
            "transitions": [
                [round(when, SUMMARY_PRECISION["when"]), sid, prev, state,
                 reason]
                for when, sid, prev, state, reason in result.health_log
            ],
        },
        "retries": {
            "attempts": result.retry_attempts,
            "absorbed": result.retry_absorbed,
            "exhausted": result.retry_exhausted,
            "router_skips": result.router_skips,
        },
        "evacuation": {
            "subtrees": [
                {"top": row.top, "src": row.src, "dst": row.dst,
                 "files": row.files, "bytes": row.bytes}
                for row in result.evacuated
            ],
            "files": sum(r.files for r in result.evacuated),
            "bytes": sum(r.bytes for r in result.evacuated),
            "verified": result.verified_files,
            "mismatches": list(result.crc_mismatches),
            "stranded": result.stranded,
        },
        "availability": rounded({
            "ops": result.ops_total,
            "failed": result.ops_failed,
            "overall": result.availability,
            "surviving_ops": result.surviving_ops,
            "surviving_failed": result.surviving_failed,
            "surviving": result.surviving_availability,
            "floor": cfg.availability_floor,
        }),
        "verdict": result.verdict(),
    }


__all__ = [
    "CHAOS_SCHEMA",
    "ChaosConfig",
    "ChaosResult",
    "chaos_summary",
    "parse_fault_spec",
    "render_chaos",
    "run_cluster_chaos",
]
