"""The cluster: N independent engines behind one namespace router.

Scale *out*, not just up: each :class:`Shard` is a complete vertical
stack — its own simulated drive, block device, buffer cache, file
system (any metadata policy) and engine — and the :class:`Cluster`
couples them under **one** shared event loop and **one** metrics
registry, fronted by the namespace router
(:mod:`repro.cluster.router`) and the VFS-like facade
(:mod:`repro.cluster.facade`).

Execution styles mirror the single-engine harness:

- **lock-step** — facade calls (:meth:`Cluster.call`) run each leg
  synchronously on its shard's engine (``Engine.run_sync``).
- **concurrent** — :meth:`Cluster.run_phase` replays
  :class:`ClusterClient` op scripts through the capture-replay
  machinery.  A cluster op resolves (lazily, at op start) to one or
  more *legs*, each ``(shard, callable)``: single-shard ops have one
  leg, a cross-shard rename has four (read source, intent+copy on the
  destination, unlink source, clear intent).  Each leg is captured on
  its shard's engine and its requests replay into that shard's disk
  queue, so N shards genuinely run N arms in parallel while every
  client still executes its own ops in order.

Both styles run an op through one loop, :meth:`Cluster.run_op`; only
how a leg executes differs.

Determinism is inherited wholesale: one event loop, FIFO tie-breaks,
seeded scripts, no wall clock — two identically-seeded cluster runs
render byte-identical reports.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.cache.policy import MetadataPolicy
from repro.cluster.evacuate import (
    EvacuatedTop,
    adopted_tops,
    evacuate_shard,
    recover_shard_evacs,
)
from repro.cluster.health import ClusterHealth, HealthState, settle
from repro.cluster.intent import (
    CLUSTER_DIR,
    INTENT,
    durable_unlink,
    durable_write,
    encode_record,
    recover_shard_intents,
)
from repro.cluster.router import ROUTE_CPU_SECONDS, Router, make_router
from repro.engine.client import Engine, OpRecord, Replayer, replay
from repro.engine.eventloop import EventLoop
from repro.errors import (
    InvalidArgument,
    MediaReadError,
    MediaWriteError,
    ReproError,
)
from repro.faults.proxy import FaultyBlockDevice
from repro.faults.schedule import FaultSchedule
from repro.obs.metrics import MetricsRegistry
from repro.workloads.configs import build_filesystem

#: One leg of a cluster operation: run ``fn`` against this shard's fs.
Leg = Tuple["Shard", Callable[[object], object]]

#: One scripted cluster operation: a label plus either the legs or a
#: zero-argument resolver returning them (resolved at op start, so
#: routing sees the namespace as it exists *then*).
ClusterOp = Tuple[str, object]


class Shard:
    """One vertical stack: device + cache + file system + engine."""

    def __init__(self, sid: int, fs, engine: Engine,
                 metrics: MetricsRegistry) -> None:
        self.sid = sid
        self.name = "s%d" % sid
        self.fs = fs
        self.engine = engine
        # The per-shard balance counters, bound once on the cluster's
        # registry (the shard's own layers count into its drive's).
        counter = metrics.counter
        self.ops = counter("cluster.%s.ops" % self.name)
        self.bytes_read = counter("cluster.%s.bytes_read" % self.name)
        self.bytes_written = counter("cluster.%s.bytes_written" % self.name)

    @property
    def device(self):
        return self.fs.cache.device

    @property
    def queue(self):
        return self.engine.queue


class ClusterClient:
    """One simulated client of the cluster (capture-replay, multi-shard).

    Satisfies the report-module client shape (``name``, ``records``,
    ``latencies``); unlike the single-engine :class:`ClientContext` it
    keeps its accounting in plain attributes — a cluster replays
    thousands of clients, and per-client registry metrics at that scale
    would swamp the registry snapshot.
    """

    __slots__ = ("cluster", "cid", "name", "records", "leg_shards",
                 "finished_at", "resume")

    #: Op labels whose resolvers are safe to re-run after a failed
    #: replay: reads are pure, and writes re-issue the same payload to
    #: the same path (data effects landed at capture, so a re-capture
    #: is idempotent).  Renames are multi-leg state machines with their
    #: own crash-safety protocol and are never retried here.
    RETRYABLE_LABELS = frozenset({"read", "write"})

    def __init__(self, cluster: "Cluster", cid: int, name: str) -> None:
        self.cluster = cluster
        self.cid = cid
        self.name = name
        self.records: List[OpRecord] = []
        #: Per completed op (parallel to ``records``): the shard ids
        #: its legs touched — the chaos report's availability split.
        self.leg_shards: List[Tuple[int, ...]] = []
        self.finished_at: Optional[float] = None

    def latencies(self, phase: Optional[str] = None) -> List[float]:
        return [r.latency for r in self.records
                if phase is None or r.phase == phase]

    def _run_ops(self, ops: Sequence[ClusterOp], phase: str):
        """Generator of :func:`~repro.engine.client.replay` events: each
        op runs through :meth:`Cluster.run_op`, its legs replayed."""
        clock = self.cluster.loop.clock
        run_op = self.cluster.run_op
        for label, spec in ops:
            # Every leg and every attempt adds into the one record.
            record = OpRecord(phase, label, self.cid, clock.now)
            touched: List[int] = []
            yield from run_op(label, spec, record, touched, replay,
                              callable(spec) and label in self.RETRYABLE_LABELS)
            record.end = clock.now
            self.records.append(record)
            self.leg_shards.append(tuple(touched))


class Cluster(Replayer):
    """N shards, one loop, one router, one registry."""

    def __init__(
        self,
        n_shards: int = 4,
        label: str = "cffs",
        policy: MetadataPolicy = MetadataPolicy.SYNC_METADATA,
        scheduler: str = "clook",
        router: str = "util",
        filesystems: Optional[Sequence] = None,
        faults: Optional[Dict[int, FaultSchedule]] = None,
    ) -> None:
        self.loop = EventLoop()
        self.metrics = MetricsRegistry()
        self.router: Router = make_router(
            router, len(filesystems) if filesystems is not None else n_shards)
        self.scheduler = scheduler
        self.label = label
        self.policy = policy
        self.shards: List[Shard] = []
        self.clients: List[ClusterClient] = []
        self._intent_seq = 0
        self._pending_route_cpu = 0.0
        self._routes = self.metrics.counter("cluster.router.routes")
        if filesystems is None:
            if n_shards < 1:
                raise InvalidArgument(
                    "need at least one shard, got %d" % n_shards)
            filesystems = []
            for sid in range(n_shards):
                fs = build_filesystem(label, policy)
                if faults and sid in faults:
                    # Wrap the shard's device in the fault-injecting
                    # proxy; lock-step faults fire in the proxy, replay
                    # faults in the shard's disk queue (same schedule).
                    fs.cache.device = FaultyBlockDevice(
                        fs.cache.device, faults[sid])
                filesystems.append(fs)
        for sid, fs in enumerate(filesystems):
            # Engine picks the fault schedule off a FaultyBlockDevice
            # itself, so replayed requests consult the same schedule the
            # lock-step path does.
            self.shards.append(Shard(sid, fs, Engine(
                fs, scheduler=scheduler, loop=self.loop), self.metrics))
        self.health = ClusterHealth(len(self.shards), self.metrics,
                                    lambda: self.loop.now)
        self.router.set_health(self.health.ordinal)
        for shard in self.shards:
            if not shard.fs.exists(CLUSTER_DIR):
                shard.fs.mkdir(CLUSTER_DIR)
                shard.fs.sync()
        # Facade import is deferred: facade.py imports this module.
        from repro.cluster.facade import ClusterFS
        self.fs = ClusterFS(self)
        for shard in self.shards:
            self.loop.clock.advance_to(shard.device.clock.now)

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def now(self) -> float:
        return self.loop.now

    # -- routing ---------------------------------------------------------------

    def route(self, top: str) -> Shard:
        """The shard owning top-level name ``top`` (placing new names).

        Counts the route and charges the router's CPU cost to whichever
        execution style picks it up next (lock-step facade call or the
        client generator's next cpu event).
        """
        sid = self.router.place(top)
        self.router.charge(sid)
        self._routes.inc()
        shard = self.shards[sid]
        shard.ops.inc()
        self._pending_route_cpu += ROUTE_CPU_SECONDS
        return shard

    def account(self, shard: Shard, bytes_read: int = 0,
                bytes_written: int = 0) -> None:
        """Attribute data volume to a shard (per-shard balance report)."""
        if bytes_read:
            shard.bytes_read.inc(bytes_read)
        if bytes_written:
            shard.bytes_written.inc(bytes_written)

    def rebuild_assignments(self) -> Dict[str, int]:
        """Re-derive the router table from the shards' root namespaces.

        The namespace itself is the durable record of placement: every
        top-level directory lives on exactly one shard, so scanning the
        roots after a restart reproduces the assignment exactly (the
        placement-determinism tests pin this).

        Evacuation complicates this: a READ_ONLY source could never
        unlink its copy of a moved subtree, so after a restart *two*
        shards may list the same top.  The destination's durable adopt
        record breaks the tie — the adopter wins, the stale source
        listing is skipped (and cleared later by recovery once the
        source accepts writes again).
        """
        adopters: Dict[str, int] = {}
        for shard in self.shards:
            for top in adopted_tops(shard.fs):
                adopters[top] = shard.sid
        for shard in self.shards:
            for name in sorted(shard.fs.readdir("/")):
                if name == CLUSTER_DIR.strip("/"):
                    continue
                if name in adopters and adopters[name] != shard.sid:
                    continue   # stale source copy; the adopter owns it
                self.router.adopt(name, shard.sid)
        for top, sid in sorted(adopters.items()):
            self.router.adopt(top, sid)
        return dict(self.router.assignments)

    def recover(self) -> List[Tuple[int, str]]:
        """Restart: apply intent recovery (renames, then evacuations)
        per shard, then re-derive the router table from what recovery
        left in the shard roots."""
        filesystems = {shard.sid: shard.fs for shard in self.shards}
        outcomes: List[Tuple[int, str]] = []
        for shard in self.shards:
            outcomes.extend(recover_shard_intents(shard.sid, filesystems))
        for shard in self.shards:
            outcomes.extend(recover_shard_evacs(shard.sid, filesystems))
        self.rebuild_assignments()
        return outcomes

    # -- health and evacuation -------------------------------------------------

    def backoff(self, seconds: float) -> None:
        """Advance cluster time by a lock-step retry backoff delay."""
        if self.loop.pending:
            raise InvalidArgument(
                "cannot back off with events pending")
        self.loop.clock.advance(seconds)

    def evacuate_unhealthy(self) -> List[EvacuatedTop]:
        """Evacuate every READ_ONLY shard (FAILED ones cannot be read)."""
        reports: List[EvacuatedTop] = []
        for shard in self.shards:
            if self.health.state(shard.sid) is HealthState.READ_ONLY:
                reports.extend(evacuate_shard(self, shard.sid))
        return reports

    # -- the per-operation loop ------------------------------------------------

    def run_op(self, label: str, spec, record: OpRecord,
               touched: List[int], run_leg: Callable, retryable: bool):
        """One cluster op: the loop both execution styles share (generator).

        Resolves ``spec`` (legs, or a resolver returning them), charges
        the route CPU and runs the legs in order through
        ``run_leg(engine, fn, record)``, a generator returning the
        request that failed or ``None`` (:func:`replay` is one), listing
        each leg's shard in ``touched``.  A ``write`` leg whose shard is
        not writable is refused.  Every failure goes to
        :meth:`~repro.cluster.health.ClusterHealth.after_failure` once;
        CPU (route cost, retry backoff) is yielded as ``("cpu", s)``.
        Sets ``record.error``; returns the surfaced error or ``None``.
        """
        clock = self.loop.clock
        health = self.health
        start = clock.now
        attempts = 0
        while True:
            failure: Optional[ReproError] = None
            error: Optional[str] = None
            try:
                legs = spec() if callable(spec) else spec
            except ReproError as exc:
                # Routing refused (e.g. no shard can accept a new
                # placement): the op fails without issuing a leg, and
                # retrying cannot help — health only worsens within a
                # phase.
                legs = ()
                failure = exc
                error = "route: %s: %s" % (type(exc).__name__, exc)
            route_cpu = self._pending_route_cpu
            self._pending_route_cpu = 0.0
            record.cpu_seconds += route_cpu
            if route_cpu > 0:
                yield ("cpu", route_cpu)
            for shard, fn in legs:
                touched.append(shard.sid)
                if label == "write" and not health.writable(shard.sid):
                    # Refused below, before the leg runs: a demoted shard
                    # must not take writes into a cache (or, by capture,
                    # an image) that can never flush.
                    break
                try:
                    failed = yield from run_leg(shard.engine, fn, record)
                except ReproError as exc:
                    # Raised while capturing, as a lock-step call
                    # raises it.
                    failure = exc
                    error = "%s: %s: %s" % (
                        shard.name, type(exc).__name__, exc)
                    break
                if failed is not None:
                    # The request the synchronous stack would have
                    # raised at, as the media error it stands for.
                    kind = (MediaWriteError if failed.op == "write"
                            else MediaReadError)
                    failure = kind(failed.error)
                    error = "%s: %s" % (shard.name, failed.error)
                    break
            else:
                if failure is None:
                    settle(attempts, self.metrics)
                break
            if failure is not None:
                attempts += 1
                delay = health.after_failure(shard.sid, failure, label,
                                             attempts, clock.now - start,
                                             retryable)
                if delay is None:
                    break
                if label != "write" or health.writable(shard.sid):
                    yield ("cpu", delay)
                    continue
            # A write to a shard that is not writable — also when this
            # op's own fault demoted it, where the sticky route would
            # send the retry straight back — is refused, never moved.
            failure = health.refusal(shard.sid)
            error = "%s: %s" % (shard.name, failure)
            break
        record.error = error
        return failure

    def call(self, label: str, legs: Sequence[Leg]) -> object:
        """Run ``legs`` lock-step through :meth:`run_op`, each cpu event
        a :meth:`backoff`.  Returns the last leg's result, or raises the
        op's error with its shard's context (``shard``, ``s<k>:``)."""
        results: List[object] = []

        def run_leg(engine, fn, record):
            results.append(engine.run_sync(fn))
            return None
            yield   # a generator, as run_op delegates to it

        touched: List[int] = []
        op = self.run_op(label, legs, OpRecord(label, label, -1, self.now),
                         touched, run_leg, True)
        try:
            while True:
                self.backoff(next(op)[1])
        except StopIteration as stop:
            failure = stop.value
        if failure is None:
            return results[-1]
        if getattr(failure, "shard", None) is None:
            shard = self.shards[touched[-1]]
            failure.shard = shard.sid
            failure.args = ("%s: %s" % (shard.name, failure),)
        raise failure

    # -- lock-step sections ----------------------------------------------------

    def lockstep(self, shard: Shard, fn: Callable) -> object:
        """Run ``fn(shard.fs)`` synchronously on cluster time."""
        return shard.engine.run_sync(fn)

    def sync_all(self) -> int:
        """Sync every shard (the cluster-wide barrier); returns requests."""
        return sum(self.lockstep(shard, lambda f: f.sync())
                   for shard in self.shards)

    def sync_concurrent(self) -> float:
        """The cluster-wide sync barrier with the N arms overlapped.

        :meth:`sync_all` drains the shards one after another on the
        shared clock — correct, but it charges the sum of N flushes to
        simulated time.  N volumes behind N independent arms drain in
        parallel, so this replays each shard's sync through its engine
        instead (one throwaway client per shard, invisible to reports)
        and costs the *slowest* shard's flush.  Returns elapsed time.
        """
        assignments: Dict[ClusterClient, List[ClusterOp]] = {}
        for shard in self.shards:
            client = ClusterClient(self, -(shard.sid + 1),
                                   "sync-%s" % shard.name)
            assignments[client] = [("sync", [(shard, lambda f: f.sync())])]
        return self.run_phase(assignments, "sync")

    def drop_caches_all(self) -> None:
        for shard in self.shards:
            self.lockstep(shard, lambda f: f.drop_caches())

    # -- concurrent sections ---------------------------------------------------

    def add_client(self, name: Optional[str] = None) -> ClusterClient:
        cid = len(self.clients)
        client = ClusterClient(
            self, cid, name if name is not None else "c%04d" % cid)
        self.clients.append(client)
        return client

    def _devices(self):
        return [shard.device for shard in self.shards]

    # -- cross-shard rename ----------------------------------------------------

    def next_intent_seq(self) -> int:
        self._intent_seq += 1
        return self._intent_seq

    def rename_legs(self, src_shard: Shard, old: str,
                    dst_shard: Shard, new: str) -> List[Leg]:
        """The legs of a rename, counted by kind.

        One shard: the single local rename leg.  Across shards: the
        four legs of a crash-safe file rename — see
        :mod:`repro.cluster.intent` for the protocol and recovery
        argument.  The legs run in order (lock-step, or sequentially
        within one client's replayed op) and each ends with *targeted*
        durability — intent and copy fsynced, source unlink forced per
        policy — so every later leg starts from durable state on the
        earlier legs' shards without dragging unrelated dirty data
        into the rename's critical path.
        """
        if src_shard is dst_shard:
            self.metrics.counter("cluster.rename.local").inc()
            return [(src_shard, lambda f: f.rename(old, new))]
        ipath = INTENT.path(self.next_intent_seq())
        payload = encode_record(INTENT, src_shard.sid, old, new)
        cell: Dict[str, bytes] = {}
        cluster = self

        def read_src(f):
            cell["data"] = f.read_file(old)
            cluster.account(src_shard, bytes_read=len(cell["data"]))

        def copy_dst(f):
            durable_write(f, ipath, payload)
            durable_write(f, new, cell["data"])
            cluster.account(dst_shard, bytes_written=len(cell["data"]))

        def unlink_src(f):
            durable_unlink(f, old)

        def clear_dst(f):
            # Durability deliberately not forced: a stale intent whose
            # source is gone recovers by (idempotent) roll-forward.
            f.unlink(ipath)

        self.metrics.counter("cluster.rename.cross_shard").inc()
        return [(src_shard, read_src), (dst_shard, copy_dst),
                (src_shard, unlink_src), (dst_shard, clear_dst)]


__all__ = [
    "Cluster",
    "ClusterClient",
    "ClusterOp",
    "Leg",
    "Shard",
]
