"""Cluster fault tolerance: health, routing, retry, evacuation, chaos.

Five claims are pinned here:

- **Health classification** — taxonomy exceptions drive the per-shard
  monotonic state machine exactly as the budgets say, and every
  transition is mirrored into the cluster metrics registry (and never
  into the resilient device's metrics).
- **Health-aware routing** — both routers keep new placements off
  READ_ONLY/FAILED shards, prefer HEALTHY over DEGRADED, and are
  byte-identical to the pre-health behavior when no hook is attached.
- **Retry and refusal** — the facade and the replay clients absorb
  transient shard faults within the retry budget, annotate surfaced
  errors with their shard, and refuse a write to a shard that is not
  writable (also when the write's own fault demoted it); only
  evacuation moves a subtree.
- **Evacuation crash safety** — the copy-then-adopt protocol, killed
  at every landed media write, always recovers to exactly one intact
  copy of every file, with the adopt record as the commit point.
- **Chaos acceptance** — one shard of four killed mid-Zipf-storm:
  the survivors clear the availability floor, every evacuated byte
  CRC-verifies through the facade, nothing is stranded, and the whole
  report is byte-identical across identically-seeded runs.
"""

import json

import pytest

from repro.cluster import (
    ChaosConfig,
    Cluster,
    ClusterHealth,
    DEGRADED_PRESSURE,
    ROUTE_CPU_SECONDS,
    HashRouter,
    HealthState,
    TrafficConfig,
    UtilizationRouter,
    ZipfSampler,
    adopted_tops,
    chaos_summary,
    evacuate_shard,
    parse_fault_spec,
    render_chaos,
    run_cluster_chaos,
)
from repro.cluster.health import (
    MAX_READ_FAULTS,
    MAX_WRITE_FAULTS,
    OP_ATTEMPTS,
    OP_BACKOFF,
)
from repro.cluster.traffic import build_client_ops
from repro.errors import (
    DeviceDegraded,
    FileNotFound,
    InvalidArgument,
    MediaReadError,
    MediaWriteError,
    PowerLoss,
    ReadOnlyFileSystem,
    TransientDiskError,
)
from repro.obs.metrics import MetricsRegistry
from tests.conftest import PinnedFaults, crash_sweep, sharded_pair

CHAOS_SMALL = dict(clients=80, ops_per_client=3, dirs=24, file_size=8192)


def make_health(n_shards=2):
    metrics = MetricsRegistry()
    return ClusterHealth(n_shards, metrics, lambda: 0.0), metrics


# -- health classification -------------------------------------------------------


class TestShardHealth:
    def test_device_gone_exceptions_fail_the_shard(self):
        for exc in (DeviceDegraded("dead"), PowerLoss("cut")):
            health, _ = make_health()
            assert not health.classify(0, exc, "read")
            assert health.state(0) is HealthState.FAILED
            assert not health.readable(0)
            assert health.state(1) is HealthState.HEALTHY

    def test_read_only_exception_mirrors_the_shard_demotion(self):
        health, _ = make_health()
        assert not health.classify(0, ReadOnlyFileSystem("fs refused"),
                                   "write")
        assert health.state(0) is HealthState.READ_ONLY
        assert health.readable(0) and not health.writable(0)

    def test_write_fault_budget_degrades_then_demotes_read_only(self):
        health, _ = make_health()
        for _ in range(MAX_WRITE_FAULTS - 1):
            assert health.classify(0, MediaWriteError("hard"), "read")
            assert health.state(0) is HealthState.DEGRADED
        health.classify(0, MediaWriteError("hard"), "read")
        assert health.state(0) is HealthState.READ_ONLY
        assert health.readable(0)   # evacuation stays possible

    def test_read_fault_budget_fails_the_shard(self):
        health, _ = make_health()
        for lba in range(MAX_READ_FAULTS - 1):
            assert health.classify(
                0, MediaReadError("hard read fault at lba %d" % lba), "write")
            assert health.state(0) is HealthState.DEGRADED
        health.classify(
            0, MediaReadError("read at lba 99 failed after 4 attempts"),
            "write")
        assert health.state(0) is HealthState.FAILED

    def test_transient_faults_charge_the_surfacing_path(self):
        health, _ = make_health()
        for _ in range(MAX_WRITE_FAULTS):
            assert health.classify(0, TransientDiskError("blip"), "write")
        assert health.state(0) is HealthState.READ_ONLY

    def test_shard_transitions_export_no_device_health_metrics(self):
        # One monitor per shard: a shard's demotion is the cluster's
        # gauge, never the resilient device's ``resilience.health``.
        cluster = Cluster(n_shards=2)
        cluster.health.mark(0, HealthState.DEGRADED, "wobbly")
        registries = [cluster.metrics] + [shard.device.disk.registry
                                          for shard in cluster.shards]
        assert not [name for registry in registries
                    for name in registry.names()
                    if name.startswith("resilience.")]
        assert cluster.metrics.gauge("cluster.health.s0").value == \
            HealthState.DEGRADED.value

    def test_states_are_monotonic(self):
        health, _ = make_health()
        assert health.mark(0, HealthState.FAILED, "dead")
        assert not health.mark(0, HealthState.DEGRADED, "trying to heal")
        assert health.state(0) is HealthState.FAILED

    def test_transitions_mirror_into_gauges_and_counter(self):
        health, metrics = make_health()
        assert metrics.gauge("cluster.health.s0").value == 0
        health.mark(0, HealthState.READ_ONLY, "demoted")
        health.mark(1, HealthState.DEGRADED, "wobbly")
        assert metrics.gauge("cluster.health.s0").value == \
            HealthState.READ_ONLY.value
        assert metrics.gauge("cluster.health.s1").value == \
            HealthState.DEGRADED.value
        assert metrics.counter("cluster.health.transitions").value == 2

    def test_log_merges_shards_in_time_order(self):
        metrics = MetricsRegistry()
        clock = [0.0]
        health = ClusterHealth(2, metrics, lambda: clock[0])
        clock[0] = 1.0
        health.mark(1, HealthState.DEGRADED, "first")
        clock[0] = 2.0
        health.mark(0, HealthState.FAILED, "second")
        log = health.log()
        assert [(t, sid) for t, sid, *_ in log] == [(1.0, 1), (2.0, 0)]
        assert log[1][2:] == ("HEALTHY", "FAILED", "second")


# -- health-aware routing --------------------------------------------------------


class TestHealthAwareRouting:
    def test_no_hook_is_byte_identical_to_healthy_hook(self):
        names = ["d%03d" % i for i in range(100)]
        for kind in (HashRouter, UtilizationRouter):
            blind, hooked = kind(4), kind(4)
            hooked.set_health(lambda sid: 0)
            assert [blind.place(n) for n in names] == \
                [hooked.place(n) for n in names]
            assert hooked.skips == 0

    def test_hash_ring_walks_past_sick_canonical_owners(self):
        router = HashRouter(4)
        victim = router.probe("newdir")   # canonical ring owner
        states = {victim: HealthState.READ_ONLY.value}
        router.set_health(lambda sid: states.get(sid, 0))
        owner = router.place("newdir")
        assert owner != victim
        assert router.skips == 1
        # sticky: healing the victim does not move the assignment
        states.clear()
        assert router.place("newdir") == owner

    def test_hash_falls_back_to_degraded_when_nothing_healthy(self):
        router = HashRouter(2)
        victim = router.probe("x")
        other = 1 - victim
        states = {victim: 1, other: 3}   # DEGRADED vs FAILED
        router.set_health(lambda sid: states[sid])
        assert router.place("x") == victim

    def test_routers_raise_when_no_shard_accepts(self):
        for kind in (HashRouter, UtilizationRouter):
            router = kind(2)
            router.set_health(lambda sid: 3)
            with pytest.raises(DeviceDegraded):
                router.place("doomed")

    def test_util_router_excludes_read_only_shards(self):
        router = UtilizationRouter(2)
        states = {0: HealthState.READ_ONLY.value, 1: 0}
        router.set_health(lambda sid: states[sid])
        assert all(router.place("d%d" % i) == 1 for i in range(4))
        assert router.skips > 0

    def test_util_router_spills_to_degraded_only_under_pressure(self):
        router = UtilizationRouter(2)
        states = {0: 0, 1: 1}   # shard 1 is DEGRADED
        router.set_health(lambda sid: states[sid])
        assert router.place("a") == 0   # idle cluster: healthy wins
        while router.load[0] < DEGRADED_PRESSURE * (router.load[1] + 1):
            router.charge(0)
        assert router.place("b") == 0   # at the threshold: healthy wins
        assert router.place("c") == 1   # past it: spill to the degraded one

    def test_pick_spare_respects_exclusion_and_health(self):
        router = UtilizationRouter(3)
        states = {0: 0, 1: 0, 2: HealthState.FAILED.value}
        router.set_health(lambda sid: states[sid])
        assert router.pick_spare("top", exclude=(0,)) == 1
        with pytest.raises(DeviceDegraded):
            router.pick_spare("top", exclude=(0, 1))

    def test_reassign_moves_an_assignment_and_counts_load(self):
        router = UtilizationRouter(2)
        assert router.place("a") == 0
        router.reassign("a", 1)
        assert router.assignments["a"] == 1
        assert router.load[1] >= 1
        with pytest.raises(InvalidArgument):
            router.reassign("a", 9)


# -- facade retry and refusal ----------------------------------------------------


def faulty_cluster():
    schedule = PinnedFaults()
    cluster = Cluster(n_shards=2, faults={0: schedule})
    fs = cluster.fs
    fs.mkdir("/a")                       # util router: lands on shard 0
    fs.write_file("/a/f", b"x" * 8192)
    fs.sync()
    assert cluster.router.assignments["a"] == 0
    return cluster, schedule


def one_write_fault_from_read_only():
    """A faulty pair whose shard 0 has one write fault of its budget
    left, an open descriptor on ``/a/f``, and the list that receives the
    shard device's write count at the moment it demotes READ_ONLY."""
    cluster, schedule = faulty_cluster()
    fd = cluster.fs.open("/a/f")
    schedule.fail_writes_from(0)
    for i in range(MAX_WRITE_FAULTS - 1):   # each absorbs one fault
        cluster.fs.write_file("/a/g%d" % i, b"y" * 4096)
    assert cluster.health.state(0) is HealthState.DEGRADED
    device = cluster.shards[0].fs.cache.device
    at_demotion = []
    mirror = cluster.health.monitors[0].on_transition

    def watch(change):
        mirror(change)
        if change.state is HealthState.READ_ONLY:
            at_demotion.append(device.stats.writes)

    cluster.health.monitors[0].on_transition = watch
    return cluster, fd, device, at_demotion


class TestFacadeRetryAndRedirect:
    def test_retry_absorbs_a_hard_fault_within_budget(self):
        cluster, schedule = faulty_cluster()
        schedule.fail_writes_from(0)
        cluster.fs.write_file("/a/g", b"y" * 4096)   # no exception
        snap = cluster.metrics.snapshot()
        assert snap["cluster.retry.attempts"] >= 1
        assert snap["cluster.retry.absorbed"] >= 1
        assert snap.get("cluster.retry.exhausted", 0) == 0
        assert cluster.health.state(0) is HealthState.DEGRADED
        assert cluster.fs.read_file("/a/g") == b"y" * 4096

    def test_backoff_spends_simulated_time(self):
        cluster, schedule = faulty_cluster()
        schedule.fail_writes_from(0)
        before = cluster.now
        cluster.fs.write_file("/a/g", b"y" * 4096)
        assert cluster.now - before >= OP_BACKOFF

    def test_exhaustion_against_a_demoted_shard_surfaces_its_fault(self):
        # A link faults on every attempt (a failed one leaves nothing
        # behind, where a failed create leaves its name), so the hard
        # faults that exhaust the retry budget also demote the shard
        # READ_ONLY: the last fault reaches the caller, annotated, and
        # the subtree stays where it is.
        assert MAX_WRITE_FAULTS <= OP_ATTEMPTS
        cluster, schedule = faulty_cluster()
        schedule.fail_writes_from(0)
        with pytest.raises(MediaWriteError) as info:
            cluster.fs.link("/a/f", "/a/g")
        assert info.value.shard == 0
        assert str(info.value).startswith("s0: ")
        assert cluster.health.state(0) is HealthState.READ_ONLY
        assert cluster.router.assignments["a"] == 0
        snap = cluster.metrics.snapshot()
        assert snap["cluster.retry.exhausted"] == 1
        assert cluster.fs.read_file("/a/f") == b"x" * 8192
        assert not cluster.fs.exists("/a/g")

    def test_a_write_whose_fault_demotes_its_shard_is_refused(self):
        # The fault that spends the last of the budget demotes shard 0
        # with retries still left: the write is refused, not retried
        # into the demoted shard's cache, and the subtree stays put
        # until evacuation moves it.
        cluster, _fd, device, at_demotion = one_write_fault_from_read_only()
        with pytest.raises(ReadOnlyFileSystem) as info:
            cluster.fs.write_file("/a/g", b"moved" * 100)
        assert str(info.value) == "s0: shard refuses writes (health READ_ONLY)"
        assert info.value.shard == 0
        assert cluster.health.state(0) is HealthState.READ_ONLY
        assert device.stats.writes == at_demotion[0]
        assert cluster.router.assignments["a"] == 0
        snap = cluster.metrics.snapshot()
        assert snap["cluster.retry.absorbed"] == MAX_WRITE_FAULTS - 1
        assert [r.top for r in cluster.evacuate_unhealthy()] == ["a"]
        assert cluster.router.assignments["a"] == 1
        assert cluster.fs.read_file("/a/f") == b"x" * 8192

    def test_a_pinned_write_whose_fault_demotes_its_shard_surfaces_it(self):
        cluster, fd, device, at_demotion = one_write_fault_from_read_only()
        cluster.fs.pwrite(fd, 0, b"z" * 4096)   # cached, no device write
        with pytest.raises(ReadOnlyFileSystem) as info:
            cluster.fs.fsync(fd)
        assert cluster.health.state(0) is HealthState.READ_ONLY
        assert device.stats.writes == at_demotion[0]
        assert info.value.shard == 0
        assert str(info.value).startswith("s0: ")

    def test_path_writes_against_a_read_only_shard_are_refused(self):
        cluster, _ = faulty_cluster()
        cluster.health.mark(0, HealthState.READ_ONLY, "operator demotion")
        for write in (lambda fs: fs.write_file("/a/g", b"moved" * 100),
                      lambda fs: fs.open("/a/g", create=True),
                      lambda fs: fs.rename("/a/f", "/a/h"),
                      lambda fs: fs.link("/a/f", "/a/h")):
            with pytest.raises(ReadOnlyFileSystem) as info:
                write(cluster.fs)
            assert str(info.value) == \
                "s0: shard refuses writes (health READ_ONLY)"
        assert cluster.router.assignments["a"] == 0
        assert cluster.fs.read_file("/a/f") == b"x" * 8192
        assert not cluster.fs.exists("/a/g")

    def test_new_top_on_a_read_only_shard_routes_elsewhere(self):
        cluster, _ = faulty_cluster()
        cluster.health.mark(0, HealthState.READ_ONLY, "demoted")
        cluster.fs.mkdir("/b")
        assert cluster.router.assignments["b"] == 1

    def test_descriptor_writes_surface_the_demotion_with_context(self):
        cluster, _ = faulty_cluster()
        fd = cluster.fs.open("/a/f")
        cluster.health.mark(0, HealthState.READ_ONLY, "demoted")
        with pytest.raises(ReadOnlyFileSystem) as info:
            cluster.fs.write(fd, b"z")
        assert info.value.shard == 0
        assert str(info.value).startswith("s0: ")

    def test_errors_carry_their_shard_context(self):
        cluster, _ = faulty_cluster()
        with pytest.raises(FileNotFound) as info:
            cluster.fs.read_file("/a/ghost")
        assert info.value.shard == 0
        assert str(info.value).startswith("s0: ")

    def test_root_listing_hides_failed_shards(self):
        cluster, _ = faulty_cluster()
        cluster.fs.mkdir("/b")   # lands on shard 1
        cluster.health.mark(0, HealthState.FAILED, "gone")
        assert cluster.fs.readdir("/") == ["b"]

    def test_backoff_refuses_while_events_are_pending(self):
        cluster, _ = faulty_cluster()
        cluster.loop.call_later(1.0, lambda: None)
        with pytest.raises(InvalidArgument):
            cluster.backoff(0.5)


class TestReplayClassifiesLikeTheFacade:
    def test_a_missing_file_is_a_plain_failure_not_a_health_signal(self):
        cluster, _ = faulty_cluster()
        client = cluster.add_client()

        def resolve():
            return [(cluster.route("a"), lambda f: f.read_file("/a/ghost"))]

        cluster.run_phase({client: [("read", resolve)]}, "probe")
        (record,) = client.records
        assert "FileNotFound" in record.error
        assert record.latency < OP_BACKOFF   # no backoff in it
        assert cluster.health.state(0) is HealthState.HEALTHY
        snap = cluster.metrics.snapshot()
        for name in ("attempts", "absorbed", "exhausted"):
            assert snap.get("cluster.retry." + name, 0) == 0
        # ... so the next facade write into that top still lands there.
        cluster.fs.write_file("/a/g", b"y" * 4096)
        assert cluster.fs.read_file("/a/g") == b"y" * 4096

    def test_a_retried_op_is_recorded_over_all_its_attempts(self):
        cluster, schedule = faulty_cluster()
        schedule.fail_write(0)               # the first replayed write
        client = cluster.add_client()
        shard = cluster.shards[0]

        def resolve():
            return [(cluster.route("a"),
                     lambda f: f.write_file("/a/g", b"y" * 4096))]

        before = shard.queue.stats.snapshot()
        cluster.run_phase({client: [("write", resolve)]}, "probe")
        delta = shard.queue.stats.delta(before)
        (record,) = client.records
        assert record.error is None
        assert cluster.metrics.snapshot()["cluster.retry.attempts"] == 1
        assert delta.failed == 1
        assert record.n_requests == delta.completed >= 1
        assert record.queue_delay == pytest.approx(delta.total_queue_delay)
        assert record.retries == delta.retried
        assert client.leg_shards == [(0, 0)]
        # two routes and two captures, not just the last of each
        assert record.cpu_seconds > 2 * ROUTE_CPU_SECONDS

    def test_a_retried_traffic_write_is_booked_once(self):
        # Every retry re-runs the op's resolver; the path it wrote and
        # the bytes it charges its shard must still count once.
        schedule = PinnedFaults()
        cluster = Cluster(n_shards=1, faults={0: schedule})
        cluster.fs.mkdir("/d000")
        cluster.fs.sync()
        schedule.fail_write(0)               # the first replayed write
        cfg = TrafficConfig(shards=1, clients=1, ops_per_client=1, dirs=1,
                            read_fraction=0.0, rename_fraction=0.0,
                            file_size=4096)
        client = cluster.add_client()
        written = []
        ops = build_client_ops(cluster, cfg, client.cid, ZipfSampler(1, 0.9),
                               {"d000"}, written)
        booked = cluster.metrics.counter("cluster.s0.bytes_written")
        before = booked.value
        cluster.run_phase({client: ops}, "probe")
        (record,) = client.records
        assert record.error is None
        assert cluster.metrics.snapshot()["cluster.retry.attempts"] == 1
        assert written == ["/d000/c0000_00"]
        assert booked.value - before == 4096

    def test_a_write_that_demotes_its_shard_is_not_retried_there(self):
        # The facade's rule on the replay path: once the fault it just
        # took has demoted the shard, a write is refused, not retried
        # into a cache that can no longer flush.
        cluster, schedule = faulty_cluster()
        for lba in range(MAX_WRITE_FAULTS - 1):
            cluster.health.classify(
                0, MediaWriteError("hard write fault at lba %d" % lba),
                "write")
        assert cluster.health.state(0) is HealthState.DEGRADED
        schedule.fail_write(0)               # the first replayed write
        client = cluster.add_client()

        def resolve():
            return [(cluster.route("a"),
                     lambda f: f.write_file("/a/g", b"y" * 4096))]

        cluster.run_phase({client: [("write", resolve)]}, "probe")
        (record,) = client.records
        assert cluster.health.state(0) is HealthState.READ_ONLY
        assert record.error == "s0: shard refuses writes (health READ_ONLY)"
        assert client.leg_shards == [(0,)]   # no second attempt on s0
        # The budget granted the attempt the refusal then withheld.
        assert cluster.metrics.snapshot()["cluster.retry.attempts"] == 1


# -- evacuation ------------------------------------------------------------------


def populated_pair():
    cluster = Cluster(n_shards=2)
    fs = cluster.fs
    fs.mkdir("/a")
    fs.mkdir("/a/deep")
    fs.write_file("/a/one", b"alpha" * 400)
    fs.write_file("/a/deep/two", b"beta" * 900)
    fs.sync()
    assert cluster.router.assignments["a"] == 0
    return cluster


class TestEvacuation:
    def test_evacuate_moves_every_byte_and_retires_the_shard(self):
        cluster = populated_pair()
        cluster.health.mark(0, HealthState.READ_ONLY, "demoted")
        reports = evacuate_shard(cluster, 0)
        assert [(r.top, r.src, r.dst) for r in reports] == [("a", 0, 1)]
        assert reports[0].files == 2
        assert cluster.router.assignments["a"] == 1
        assert cluster.health.state(0) is HealthState.FAILED
        dst = cluster.shards[1].fs
        assert dst.read_file("/a/one") == b"alpha" * 400
        assert dst.read_file("/a/deep/two") == b"beta" * 900
        assert adopted_tops(dst) == {"a": 0}
        snap = cluster.metrics.snapshot()
        assert snap["cluster.evac.subtrees"] == 1
        assert snap["cluster.evac.files"] == 2
        assert snap["cluster.evac.bytes"] == 400 * 5 + 900 * 4

    def test_facade_reads_find_the_adopted_copy(self):
        cluster = populated_pair()
        cluster.health.mark(0, HealthState.READ_ONLY, "demoted")
        evacuate_shard(cluster, 0)
        assert cluster.fs.read_file("/a/deep/two") == b"beta" * 900
        assert cluster.fs.readdir("/a") == ["deep", "one"]

    def test_recovery_clears_the_stale_source_copy(self):
        cluster = populated_pair()
        cluster.health.mark(0, HealthState.READ_ONLY, "demoted")
        evacuate_shard(cluster, 0)
        src = cluster.shards[0].fs
        assert src.exists("/a/one")   # read-only source kept its copy
        outcomes = cluster.recover()
        assert (0, "evac_source_cleared") in outcomes
        assert not src.exists("/a")
        assert adopted_tops(cluster.shards[1].fs) == {}
        assert cluster.recover() == []   # idempotent

    def test_rebuild_prefers_the_adopt_record_over_the_stale_source(self):
        cluster = populated_pair()
        cluster.health.mark(0, HealthState.READ_ONLY, "demoted")
        evacuate_shard(cluster, 0)
        # Before recovery both shards list /a; the adopt record on the
        # destination must break the tie toward the adopter.
        reborn = Cluster(
            filesystems=[shard.fs for shard in cluster.shards],
            router="util")
        assert reborn.rebuild_assignments()["a"] == 1

    def test_evacuate_unhealthy_drains_only_read_only_shards(self):
        cluster = populated_pair()
        assert cluster.evacuate_unhealthy() == []   # everything healthy
        cluster.health.mark(0, HealthState.READ_ONLY, "demoted")
        reports = cluster.evacuate_unhealthy()
        assert [r.top for r in reports] == ["a"]
        assert cluster.health.state(0) is HealthState.FAILED


# -- evacuation crash-point sweep ------------------------------------------------


class TestEvacuationCrashSweep:
    def test_every_media_write_boundary_keeps_exactly_one_copy(self):
        cluster, devices = sharded_pair()
        fs = cluster.fs
        payloads = {"/a/one": b"survivor" * 600, "/a/two": b"also" * 250}
        fs.mkdir("/a")
        for path, data in sorted(payloads.items()):
            fs.write_file(path, data)
        fs.sync()
        assert cluster.router.assignments["a"] == 0

        def evacuate():
            cluster.health.mark(0, HealthState.READ_ONLY, "demoted")
            evacuate_shard(cluster, 0)
            fs.sync()

        order, points = crash_sweep(devices, evacuate)
        # Every copy and record lands on the destination; the source
        # sees at most metadata touches from its read path.
        assert 1 in set(order)

        outcomes = set()
        for k, mounted in points:
            recovered = Cluster(filesystems=mounted, router="util")
            for _, action in recovered.recover():
                outcomes.add(action)
            src_has = mounted[0].exists("/a")
            dst_has = mounted[1].exists("/a")
            assert src_has != dst_has, (
                "crash point %d/%d: subtree on %s"
                % (k, len(order),
                   "both shards" if src_has else "neither shard"))
            survivor = mounted[0] if src_has else mounted[1]
            for path, data in sorted(payloads.items()):
                assert survivor.read_file(path) == data, (
                    "crash point %d: %s corrupt on the surviving shard"
                    % (k, path))
            # Recovery re-derived placement from the recovered roots.
            assert recovered.router.assignments["a"] == (0 if src_has else 1)
            # Recovery converged: a second run is a no-op.
            assert recovered.recover() == []
        # The sweep crossed the adopt commit point: both directions.
        assert "evac_rolled_back" in outcomes
        assert "evac_rolled_forward" in outcomes
        assert "evac_source_cleared" in outcomes


# -- the chaos harness -----------------------------------------------------------


def chaos_config(**overrides):
    traffic = TrafficConfig(shards=4, seed=2026, **CHAOS_SMALL)
    kwargs = dict(traffic=traffic, fail_shard=1)
    kwargs.update(overrides)
    return ChaosConfig(**kwargs)


class TestChaosHarness:
    def test_write_storm_acceptance(self):
        result = run_cluster_chaos(chaos_config())
        assert result.verdict() == "PASS"
        assert result.final_states[1] == "FAILED"
        assert result.surviving_availability >= 0.95
        assert result.evacuated, "the victim never owned a subtree"
        assert result.verified_files == sum(r.files for r in result.evacuated)
        assert result.crc_mismatches == []
        assert result.stranded == 0
        # the victim demoted mid-run, not at the end
        assert any(sid == 1 and state == "READ_ONLY"
                   for _, sid, _, state, _ in result.health_log)

    def test_reports_are_byte_identical_across_runs(self):
        a = run_cluster_chaos(chaos_config())
        b = run_cluster_chaos(chaos_config())
        assert render_chaos(a) == render_chaos(b)
        assert (json.dumps(chaos_summary(a), sort_keys=True)
                == json.dumps(chaos_summary(b), sort_keys=True))

    def test_read_storm_is_absorbed_by_the_cache(self):
        # Warm data is cache-resident, so a read-storm at this scale
        # never surfaces a device read — the shard survives untouched.
        result = run_cluster_chaos(chaos_config(fail_op="read"))
        assert result.verdict() == "PASS"
        assert result.stranded == 0

    def test_invalid_configs_are_rejected(self):
        with pytest.raises(InvalidArgument):
            run_cluster_chaos(chaos_config(fail_shard=7))
        with pytest.raises(InvalidArgument):
            run_cluster_chaos(chaos_config(fail_op="meteor"))
        with pytest.raises(InvalidArgument):
            run_cluster_chaos(chaos_config(warm_fraction=1.0))
        with pytest.raises(InvalidArgument):
            run_cluster_chaos(chaos_config(availability_floor=1.5))
        with pytest.raises(InvalidArgument):
            run_cluster_chaos(ChaosConfig(
                traffic=TrafficConfig(shards=1, **CHAOS_SMALL),
                fail_shard=0))


# -- fault spec parsing ----------------------------------------------------------


class TestParseFaultSpec:
    def test_parses_marks_rates_and_multiple_shards(self):
        out = parse_fault_spec(
            "1:write_fail_from=0;0:transient_rate=0.05,seed=7;"
            "2:read_fail_from=3", shards=4)
        assert sorted(out) == [0, 1, 2]
        assert out[1].write_fail_from == 0
        assert out[2].read_fail_from == 3
        assert out[0].write_fail_from is None

    def test_rejected_specs(self):
        for spec in [
            "",                          # empty
            "x:seed=1",                  # non-integer shard id
            "9:seed=1",                  # shard out of range
            "0:seed=1;0:seed=2",         # repeated shard
            "0:seed",                    # missing =
            "0:flux_capacitor=1",        # unknown key
            "0:transient_rate=lots",     # bad value
            "0:transient_rate=7.0",      # FaultSchedule rejects rate > 1
        ]:
            with pytest.raises(InvalidArgument):
                parse_fault_spec(spec, shards=2)
