"""One benchmark run: one workload, one seed, measured in this process.

``--trace 0`` takes the end-to-end metrics with no tracing of any kind:
an untimed warm-up at 1/10 scale, then timed repeats on fresh stacks
until ``--seconds`` of CPU have been measured, and never fewer than
:data:`MIN_REPEATS`.  Simulated metrics must come out identical on
every repeat (they are a pure function of the seed); host metrics are
the median over the repeats.

Host times are CPU-seconds of this process (``time.process_time``, so a
descheduled process is not counted) *of a reference machine*.  The
boxes this runs on share their cores and change speed by up to 2x for
stretches of seconds to minutes, so every few hundredths of a second,
between two user operations, :class:`Reference` times a short slice of
a fixed loop of the benchmark's own; a repeat's CPU-seconds, less the
slices, are scaled by how fast that loop ran during the repeat against
:data:`REFERENCE_SPEED`.  Raw CPU-seconds and loop speeds are kept in
the run's detail file.

``--trace 1`` takes the per-layer metrics: one untraced repeat as the
base line, one with the wrappers of :mod:`benchmarks.perf.trace`
installed, and one with the program's own ``obs.Tracer`` installed.
None of the three is paced; their times are raw CPU-seconds.
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence

from repro import obs
from repro.cluster import ROUTE_CPU_SECONDS

from benchmarks.perf.trace import LAYERS, Tracer, tracing
from benchmarks.perf.workloads import READ, WORKLOADS, WRITE, Workload

#: The warm-up pass runs at this fraction of the workload's size.
WARMUP_SCALE = 10

#: A median needs at least this many timed repeats, whatever
#: ``--seconds`` says; a run never makes more than MAX_REPEATS.
MIN_REPEATS = 3
MAX_REPEATS = 25

#: Set-up takes milliseconds on most workloads, so once the timed
#: repeats are done it is sampled on its own until there are this many
#: samples or this many CPU-seconds have gone into it.
SETUP_SAMPLES = 15
SETUP_BUDGET_S = 1.0

#: One slice of the reference loop spins for SLICE_S CPU-seconds, and
#: the next is due GAP_S of wall time after it: a twentieth of a run.
SLICE_S = 0.002
GAP_S = 0.040

#: Rounds of the reference loop per CPU-second, taken in such slices,
#: on the machine whose CPU-seconds ``host_ops_per_s`` and ``setup_s``
#: are expressed in.  Part of their definition: changing it, the loop
#: or the slice length rescales both on every workload.  (A round
#: number near what this box reads in a quiet minute.)
REFERENCE_SPEED = 9000.0

_REFERENCE_TABLE = [(i * 2654435761) & 0xFFFFFFFF for i in range(1 << 16)]
_REFERENCE_BUF = bytes((i * 7) & 255 for i in range(4096))
_REFERENCE_WORDS = memoryview(_REFERENCE_BUF).cast("H")[:512]


class Reference:
    """How fast this machine runs a fixed loop while a repeat runs.

    The loop calls nothing in the program, so no change to the program
    can move it, and mixes what the program's hot paths are made of: a
    table-driven checksum over a block, dict and list traffic, small
    byte slices.  :meth:`pace` is what a paced workload calls between
    user operations.
    """

    def __init__(self) -> None:
        self.rounds = 0
        self.cpu_s = 0.0
        self._due = 0.0     # on time.perf_counter
        self._seen: Dict[int, int] = {}

    def pace(self) -> None:
        if time.perf_counter() >= self._due:
            self.slice()

    def slice(self) -> None:
        table, buf, words = _REFERENCE_TABLE, _REFERENCE_BUF, _REFERENCE_WORDS
        seen = self._seen
        pieces: List[bytes] = []
        rounds = 0
        began = time.process_time()
        while True:
            crc = 0
            for word in words:
                crc = table[(crc ^ word) & 0xFFFF] ^ (crc >> 16)
            for i in range(300):
                seen[i & 63] = crc + i
                pieces.append(buf[i:i + 64])
            del pieces[:]
            rounds += 1
            spent = time.process_time() - began
            if spent >= SLICE_S:
                break
        self.rounds += rounds
        self.cpu_s += spent
        self._due = time.perf_counter() + GAP_S

    @property
    def speed(self) -> float:
        return self.rounds / self.cpu_s

    def seconds(self, cpu_s: float) -> float:
        """``cpu_s`` of this process, all of this reference's slices
        among them, as the reference machine's CPU-seconds without."""
        return (cpu_s - self.cpu_s) * self.speed / REFERENCE_SPEED


def percentile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sample."""
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def quartiles(values: Sequence[float]) -> List[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def simulated_metrics(w: Workload) -> Dict[str, float]:
    """The metrics that are a pure function of the seed."""
    ops = len(w.latencies)
    reads = sorted(lat for lat, kind in zip(w.latencies, w.kinds)
                   if kind == READ)
    data = sorted(lat for lat, kind in zip(w.latencies, w.kinds)
                  if kind in (READ, WRITE))
    writes, sectors_written, user_bytes = w.write_sample()
    requests = w.delta["disk.reads"] + w.delta["disk.writes"]
    return {
        "sim_ops_per_s": ops / w.sim_seconds,
        "sim_p50_ms": percentile(data, 0.50) * 1e3,
        "sim_p99_ms": percentile(sorted(w.latencies), 0.99) * 1e3,
        "sim_read_p50_ms": percentile(reads, 0.50) * 1e3,
        "sim_write_p50_ms": percentile(sorted(writes), 0.50) * 1e3,
        "disk_reqs_per_op": requests / ops,
        "write_amp": sectors_written * 512 / user_bytes,
    }


class Bench:
    """One workload's inputs, warmed up; fresh repeats over them."""

    def __init__(self, name: str, seed: int, scale: int,
                 paced: bool) -> None:
        self.cls = WORKLOADS[name]
        self.inputs = self.cls.generate(seed, scale)
        self.paced = paced
        #: Per set-up made, in order: reference-machine and raw CPU-s.
        self.setup_s: List[float] = []
        self.setup_cpu_s: List[float] = []
        #: CPU-seconds gone into set-ups and timed sections, slices
        #: of the reference loop included.
        self.spent_s = 0.0
        # One untimed pass at reduced size, so the interpreter has
        # specialised the program's code before anything is timed.
        warm = self.cls(self.cls.generate(seed, scale * WARMUP_SCALE))
        warm.setup()
        warm.run()

    def _reference(self, w: Workload) -> Reference:
        reference = Reference()
        if self.paced:
            w.pace = reference.pace
        return reference

    def repeat(self, run: Optional[Callable[[Workload], None]]
               = Workload.run) -> Workload:
        """Set up a fresh stack and ``run`` its timed section (``None``
        samples the set-up alone).  On a paced bench, sets ``host_s``
        and ``speed`` and takes the slices out of ``cpu_s``.

        The caller must have dropped the previous workload, so that
        freeing its stack is not charged to this set-up.
        """
        gc.collect()
        w = self.cls(self.inputs)
        # Most set-ups are shorter than the gap between two slices (and
        # only the site build goes through Workload.op), so one slice
        # is taken on either side.
        reference = self._reference(w)
        began = time.process_time()
        reference.slice()
        w.setup()
        reference.slice()
        took = time.process_time() - began
        self.setup_s.append(reference.seconds(took))
        self.setup_cpu_s.append(took - reference.cpu_s)
        self.spent_s += took
        gc.collect()
        if run is not None:
            reference = self._reference(w)
            run(w)
            w.finish()
            self.spent_s += w.cpu_s
            if self.paced:
                w.host_s = reference.seconds(w.cpu_s)
                w.speed = reference.speed
                w.slices_s = reference.cpu_s
                w.cpu_s -= reference.cpu_s
        return w


def _write_json(out_dir: str, filename: str, doc: dict) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, filename), "w", encoding="utf-8") as out:
        json.dump(doc, out, indent=1, sort_keys=True)
        out.write("\n")


def run_end_to_end(name: str, seed: int, seconds: float,
                   repeats: Optional[int], scale: int, out_dir: str) -> dict:
    """The untraced run: every end-to-end metric of one workload."""
    bench = Bench(name, seed, scale, paced=True)
    problems: List[str] = []
    host_s: List[float] = []
    cpu_s: List[float] = []
    speeds: List[float] = []
    wall_over_cpu: List[float] = []
    first: Dict[str, float] = {}
    first_digest = ""
    recover = None
    attempted = failed = 0
    w = None
    while len(cpu_s) < (repeats or MAX_REPEATS):
        w = None        # free the last stack before the next set-up
        w = bench.repeat()
        host_s.append(w.host_s)
        cpu_s.append(w.cpu_s)
        speeds.append(w.speed)
        wall_over_cpu.append(w.wall_s / (w.cpu_s + w.slices_s))
        attempted += len(w.latencies)
        failed += len(w.failures)
        sim = simulated_metrics(w)
        digest = w.digest()
        if not first:
            first, first_digest = sim, digest
            problems += w.check()
            recover = w.recover()
            if recover is not None:
                problems += recover["problems"]
        else:
            problems += w.failures[:5]
            problems += [
                "repeat %d: %s is %r, repeat 1 had %r"
                % (len(cpu_s), key, sim[key], first[key])
                for key in first if sim[key] != first[key]]
            if digest != first_digest:
                problems.append("repeat %d: final image differs from "
                                "repeat 1" % len(cpu_s))
        if (repeats is None and len(cpu_s) >= MIN_REPEATS
                and bench.spent_s >= seconds):
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    samples = {"ops": len(w.latencies), "reads": w.kinds.count(READ),
               "writes": len(w.write_sample()[0])}
    sizes, sim_seconds, phases = w.sizes(), w.sim_seconds, w.phases

    timed_s = bench.spent_s
    while (repeats is None and len(bench.setup_s) < SETUP_SAMPLES
           and bench.spent_s - timed_s < SETUP_BUDGET_S):
        w = None
        w = bench.repeat(run=None)

    metrics = dict(first)
    metrics["host_ops_per_s"] = samples["ops"] / statistics.median(host_s)
    metrics["host_peak_rss_mb"] = rss_mb
    metrics["setup_s"] = statistics.median(bench.setup_s)
    detail = {
        "workload": name, "seed": seed, "scale": scale,
        "seconds": seconds, "repeats": len(cpu_s), "sizes": sizes,
        "samples": samples, "sim_seconds": sim_seconds, "phases": phases,
        "host": {"host_s": host_s,
                 "host_s_quartiles": quartiles(host_s),
                 "cpu_s": cpu_s,
                 "reference_speeds": speeds,
                 "reference_speed": REFERENCE_SPEED,
                 "wall_over_cpu": statistics.median(wall_over_cpu),
                 "setup_s": bench.setup_s,
                 "setup_s_quartiles": quartiles(bench.setup_s),
                 "setup_cpu_s": bench.setup_cpu_s},
        "digest": first_digest,
        "recover": recover,
        "problems": problems,
    }
    _write_json(out_dir, "run-%s.json" % name, detail)
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "detail": detail}


def layer_metrics(tracer: Tracer, delta: Dict[str, float],
                  sim_seconds: float, n_volumes: int,
                  recover: Dict[str, object]) -> Dict[str, float]:
    """Every per-layer metric but the obs.* and trace.* ratios, from
    the traced repeat's spans, its boundary counts, the deltas of the
    layers' public counters, and the recover stage."""
    self_s = tracer.layer_seconds()
    total_self = sum(self_s.values())
    count, entries = tracer.counts, tracer.entries

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    m: Dict[str, float] = {}
    for layer in LAYERS:
        m[layer + ".host_share"] = ratio(self_s[layer], total_self)
    for layer in ("vfs", "core", "ffs"):
        m[layer + ".calls"] = entries[layer]
    gets = tracer.spans[("cache", "get")]
    m["core.cache_gets_per_call"] = ratio(gets, entries["core"])
    m["ffs.cache_gets_per_call"] = ratio(gets, entries["ffs"])
    m["cache.gets"] = gets
    m["cache.hit_ratio"] = ratio(
        delta["cache.hits"], delta["cache.hits"] + delta["cache.misses"])
    m["cache.evictions"] = delta["cache.evictions"]
    m["cache.flushes"] = count["cache.flushes"]
    m["cache.blocks_per_flush"] = ratio(
        count["cache.flush_blocks"], count["cache.flushes"])

    m["journal.commits"] = count["journal.commits"]
    m["journal.blocks_per_commit"] = ratio(
        count["journal.commit_blocks"], count["journal.commits"])
    m["journal.checkpoints"] = delta.get("journal.header_writes", 0)
    m["journal.log_write_share"] = ratio(
        delta.get("journal.log_writes", 0),
        delta.get("journal.media_writes", 0))
    for key in ("replay_sim_s", "replay_host_s", "replay_txns"):
        m["journal." + key] = recover.get(key, 0)
    for key in ("walk_sim_s", "walk_host_s", "blocks_read"):
        m["fsck." + key] = recover.get(key, 0)

    for key in ("verified_reads", "sidecar_flushes", "checksum_failures"):
        m["resilience." + key] = delta.get("resilience." + key, 0)
    m["resilience.crc_mb"] = count["resilience.blocks"] * 4096 / 1e6

    m["blockdev.calls"] = count["blockdev.data_calls"]
    m["blockdev.blocks_per_call"] = ratio(
        count["blockdev.blocks"], count["blockdev.data_calls"])

    requests = delta["disk.reads"] + delta["disk.writes"]
    drive_seconds = sim_seconds * n_volumes
    m["disk.requests"] = requests
    m["disk.sectors_per_request"] = ratio(
        delta["disk.sectors_read"] + delta["disk.sectors_written"], requests)
    for part in ("seek", "rotation", "transfer", "overhead", "stall"):
        m["disk.%s_sim_share" % part] = ratio(
            delta["disk.%s_time" % part], drive_seconds)
    # The arm is busy while it seeks, waits for the sector and transfers;
    # command overhead and bus time overlap with write-behind drains.
    m["disk.busy_sim_share"] = ratio(
        sum(delta["disk.%s_time" % part] for part in
            ("seek", "rotation", "transfer")), drive_seconds)
    m["disk.cache_hit_ratio"] = ratio(
        delta["disk.cache_hits"], delta["disk.reads"])
    m["disk.write_absorbed_ratio"] = ratio(
        delta["disk.write_absorbed"], delta["disk.writes"])
    m["disk.host_us_per_request"] = ratio(self_s["disk"] * 1e6, requests)

    events = delta.get("engine.events", 0)
    m["engine.events"] = events
    m["engine.submits"] = delta.get("engine.submitted", 0)
    m["engine.mean_queue_depth"] = ratio(
        delta.get("engine.depth_area", 0), drive_seconds)
    m["engine.mean_queue_delay_sim_ms"] = ratio(
        delta.get("engine.total_queue_delay", 0) * 1e3,
        delta.get("engine.completed", 0))
    m["engine.retried"] = delta.get("engine.retried", 0)
    m["engine.host_us_per_event"] = ratio(self_s["engine"] * 1e6, events)

    routes = delta.get("cluster.routes", 0)
    shard_ops = [v for k, v in delta.items() if k.startswith("cluster.ops.")]
    m["cluster.routes"] = routes
    m["cluster.imbalance"] = ratio(
        max(shard_ops, default=0) - min(shard_ops, default=0),
        sum(shard_ops) / len(shard_ops) if shard_ops else 0)
    m["cluster.cross_shard_renames"] = delta.get(
        "cluster.cross_shard_renames", 0)
    m["cluster.route_cpu_sim_share"] = ratio(
        routes * ROUTE_CPU_SECONDS, sim_seconds)
    m["cluster.retry_attempts"] = delta.get("cluster.retry_attempts", 0)

    return m


def run_per_layer(name: str, seed: int, scale: int, out_dir: str) -> dict:
    """The traced run: every per-layer metric of one workload."""
    bench = Bench(name, seed, scale, paced=False)
    w = bench.repeat()
    base_s = w.cpu_s
    problems = list(w.failures[:5])

    tracer = Tracer()

    def traced(w: Workload) -> None:
        tracer.on = True
        try:
            w.run()
        finally:
            tracer.on = False

    with tracing(tracer):
        w = None
        w = bench.repeat(traced)
    traced_s, traced_wall = w.cpu_s, w.wall_s
    problems += w.failures[:5]
    delta, sim_seconds, ops = dict(w.delta), w.sim_seconds, len(w.latencies)
    failed = len(w.failures)
    n_volumes = len(w.file_systems())
    recover = w.recover() or {}
    problems += recover.get("problems", [])

    # The program's own observability, switched on: what does it cost?
    spans: List[int] = []

    def observed(w: Workload) -> None:
        own = obs.Tracer(clock=(
            w.cluster.loop.clock if hasattr(w, "cluster")
            else w.file_systems()[0].cache.device.clock))
        obs.install(own)
        try:
            w.run()
        finally:
            obs.uninstall()
        spans.append(len(own.spans))

    w = None
    w = bench.repeat(observed)
    obs_s = w.cpu_s

    self_s = tracer.layer_seconds()
    m = layer_metrics(tracer, delta, sim_seconds, n_volumes, recover)
    m["obs.spans"] = spans[0]
    m["obs.enabled_overhead_ratio"] = obs_s / base_s
    m["trace.overhead_ratio"] = traced_s / base_s
    m["trace.coverage_ratio"] = sum(self_s.values()) / traced_wall

    _write_json(out_dir, "trace-%s.json" % name, {
        "workload": name, "seed": seed, "scale": scale,
        "host": {"untraced_s": base_s, "traced_s": traced_s,
                 "traced_wall_s": traced_wall, "obs_s": obs_s},
        "layers": {layer: {
            "self_s": self_s[layer],
            "host_share": m[layer + ".host_share"],
            "calls": tracer.entries[layer],
            "spans": {n: c for (l, n), c in sorted(tracer.spans.items())
                      if l == layer},
        } for layer in LAYERS},
        "boundary_counts": dict(sorted(tracer.counts.items())),
        "counters": dict(sorted(delta.items())),
        "recover": recover,
        "span_fields": ["id", "layer", "name", "start_ns", "end_ns",
                        "parent_id"],
        "ops": tracer.trees(),
    })
    return {"metrics": m, "attempted": ops, "failed": failed,
            "problems": problems, "detail": None}
