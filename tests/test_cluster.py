"""The sharded cluster: router, facade, traffic model, crash safety.

Four claims are pinned here:

- **Placement determinism** — same seed and namespace tree give the
  same assignment across runs, and a shard-count-preserving restart
  rebuilds the identical table from the mounted roots.
- **Facade fidelity** — the FileSystem surface behaves over N shards
  as it does over one, with volume-boundary semantics (EXDEV-style
  link refusal, file-only cross-shard rename) where it cannot.
- **Traffic-model determinism and balance** — byte-identical reports
  for identical seeds; the utilization-aware placer keeps per-shard
  ops imbalance within bounds under Zipfian skew, and four shards
  beat one by the margin the scale-out story promises.
- **Crash safety** — the cross-shard rename protocol, killed at every
  landed media write across *both* shards' interleaved streams,
  always recovers to exactly one intact copy of the file.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ADOPT,
    EVAC,
    INTENT,
    Cluster,
    HashRouter,
    TrafficConfig,
    UtilizationRouter,
    cluster_summary,
    encode_record,
    make_router,
    parse_record,
    render_cluster,
    run_cluster_traffic,
    split_top,
)
from repro.errors import InvalidArgument
from tests.conftest import crash_sweep, sharded_pair

SMALL = dict(clients=48, ops_per_client=3, dirs=16, file_size=4096)


def small_cluster(n_shards=2, **kwargs):
    return Cluster(n_shards=n_shards, **kwargs)


# -- router placement ------------------------------------------------------------


class TestRouterPlacement:
    def test_hash_router_is_a_pure_function_of_the_name(self):
        names = ["d%03d" % i for i in range(200)]
        a = HashRouter(4)
        b = HashRouter(4)
        assert [a.place(n) for n in names] == [b.place(n) for n in names]
        # probe agrees with place even for names never placed
        c = HashRouter(4)
        assert [c.probe(n) for n in names] == [a.place(n) for n in names]

    def test_hash_router_uses_every_shard(self):
        router = HashRouter(4)
        owners = {router.place("d%03d" % i) for i in range(200)}
        assert owners == {0, 1, 2, 3}

    def test_util_router_spreads_new_names_evenly_without_load(self):
        router = UtilizationRouter(4)
        owners = [router.place("d%d" % i) for i in range(8)]
        assert sorted(owners) == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_util_router_steers_away_from_loaded_shards(self):
        router = UtilizationRouter(2)
        router.place("hot")           # -> shard 0
        for _ in range(100):          # hot directory hammers shard 0
            router.charge(0)
        assert router.place("cold") == 1

    def test_place_is_first_touch_sticky(self):
        router = UtilizationRouter(2)
        sid = router.place("a")
        for _ in range(50):
            router.charge(sid)
        assert router.place("a") == sid   # load never moves an assignment

    def test_adopt_rejects_out_of_range_shard(self):
        router = make_router("hash", 2)
        with pytest.raises(InvalidArgument):
            router.adopt("x", 5)

    def test_same_seed_same_tree_identical_assignment_across_runs(self):
        # Satellite: placement determinism. Two full runs from the same
        # seed must produce the same router table, for both policies.
        for kind in ("hash", "util"):
            a = run_cluster_traffic(TrafficConfig(
                shards=4, router=kind, seed=7, **SMALL),
                cluster=(c1 := small_cluster(4, router=kind)))
            b = run_cluster_traffic(TrafficConfig(
                shards=4, router=kind, seed=7, **SMALL),
                cluster=(c2 := small_cluster(4, router=kind)))
            assert c1.router.assignments == c2.router.assignments
            assert render_cluster(a) == render_cluster(b)

    def test_restart_rebuilds_identical_assignment_from_the_roots(self):
        # Satellite: a shard-count-preserving restart re-derives the
        # exact table by scanning the mounted shards' root directories.
        for kind in ("hash", "util"):
            cluster = small_cluster(4, router=kind)
            run_cluster_traffic(TrafficConfig(
                shards=4, router=kind, seed=7, **SMALL), cluster=cluster)
            reborn = Cluster(
                filesystems=[shard.fs for shard in cluster.shards],
                router=kind)
            rebuilt = reborn.rebuild_assignments()
            assert rebuilt == cluster.router.assignments


# -- intent codec ----------------------------------------------------------------


class TestIntentCodec:
    def test_roundtrip(self):
        data = encode_record(INTENT, 3, "/a/x", "/b/y")
        assert parse_record(INTENT, data) == (3, "/a/x", "/b/y")

    def test_torn_and_garbled_intents_parse_to_none(self):
        data = encode_record(INTENT, 0, "/a/x", "/b/y")
        for cut in range(len(data)):
            assert parse_record(INTENT, data[:cut]) is None
        flipped = bytearray(data)
        flipped[5] ^= 0xFF
        assert parse_record(INTENT, bytes(flipped)) is None
        assert parse_record(INTENT, b"") is None
        assert parse_record(INTENT, b"\xff\xfe not utf8 \x80") is None

    def test_ordinary_names_keep_the_wire_format(self):
        assert encode_record(INTENT, 3, "/a/x", "/b/y") == (
            b"repro-cluster-intent/1\nsrc_shard=3\nsrc=/a/x\ndst=/b/y\n"
            b"crc=0eff8a27\n")

    @settings(max_examples=200, deadline=None)
    @given(st.text(), st.text(), st.integers(0, 1 << 40))
    def test_every_kind_round_trips_any_name(self, one, other, number):
        for kind, values in ((INTENT, (number, one, other)),
                             (EVAC, (number, one, number, number)),
                             (ADOPT, (one, number))):
            assert parse_record(kind, encode_record(kind, *values)) == values

    def test_a_record_of_another_kind_does_not_parse(self):
        assert parse_record(EVAC, encode_record(ADOPT, "t", 0)) is None
        assert parse_record(ADOPT, encode_record(INTENT, 0, "a", "b")) is None


# -- the facade ------------------------------------------------------------------


class TestClusterFacade:
    def test_basic_namespace_and_data_ops(self):
        fs = small_cluster().fs
        fs.mkdir("/a")
        fs.mkdir("/b")
        fs.write_file("/a/x", b"alpha" * 100)
        fs.write_file("/b/y", b"beta")
        assert fs.readdir("/") == ["a", "b"]
        assert fs.read_file("/a/x") == b"alpha" * 100
        assert fs.stat("/a/x").size == 500
        assert fs.stat("/").is_dir
        fs.unlink("/b/y")
        assert not fs.exists("/b/y")
        fs.rmdir("/b")
        assert fs.readdir("/") == ["a"]

    def test_shards_genuinely_partition_the_namespace(self):
        cluster = small_cluster()
        fs = cluster.fs
        fs.mkdir("/a")
        fs.mkdir("/b")   # util router: second dir lands on the other shard
        fs.write_file("/a/x", b"data")
        sid_a = cluster.router.assignments["a"]
        sid_b = cluster.router.assignments["b"]
        assert sid_a != sid_b
        assert cluster.shards[sid_a].fs.exists("/a/x")
        assert not cluster.shards[sid_b].fs.exists("/a/x")

    def test_reserved_cluster_directory_is_unaddressable_and_hidden(self):
        fs = small_cluster().fs
        with pytest.raises(InvalidArgument):
            fs.readdir("/.cluster")
        with pytest.raises(InvalidArgument):
            fs.write_file("/.cluster/evil", b"x")
        with pytest.raises(InvalidArgument):
            split_top("/.cluster/intent-000001")
        assert fs.readdir("/") == []   # per-shard /.cluster never leaks

    def test_relative_paths_and_root_targets_rejected(self):
        with pytest.raises(InvalidArgument):
            split_top("a/b")
        with pytest.raises(InvalidArgument):
            split_top("/")

    def test_exists_probe_never_places_a_name(self):
        cluster = small_cluster()
        assert not cluster.fs.exists("/ghost/file")
        assert "ghost" not in cluster.router.assignments

    def test_fd_operations_route_to_the_owner(self):
        fs = small_cluster().fs
        fs.mkdir("/a")
        fd = fs.open("/a/f", create=True)
        assert fs.write(fd, b"hello world") == 11
        assert fs.pread(fd, 6, 5) == b"world"
        fs.fsync(fd)
        fs.close(fd)
        with pytest.raises(InvalidArgument):
            fs.read(fd, 1)   # closed facade fd is dead

    def test_link_within_a_shard_works_across_shards_raises(self):
        cluster = small_cluster()
        fs = cluster.fs
        fs.mkdir("/a")
        fs.mkdir("/b")
        fs.write_file("/a/x", b"x")
        fs.link("/a/x", "/a/x2")
        assert fs.stat("/a/x").nlink == 2
        with pytest.raises(InvalidArgument):
            fs.link("/a/x", "/b/x")   # EXDEV: links cannot span volumes


class TestClusterRename:
    def test_local_rename_stays_on_shard(self):
        cluster = small_cluster()
        fs = cluster.fs
        fs.mkdir("/a")
        fs.write_file("/a/x", b"payload")
        fs.rename("/a/x", "/a/y")
        assert fs.read_file("/a/y") == b"payload"
        snap = cluster.metrics.snapshot()
        assert snap["cluster.rename.local"] == 1
        assert snap.get("cluster.rename.cross_shard", 0) == 0
        # One shard, one leg, counted where the legs are made.
        shard = cluster.shards[cluster.router.assignments["a"]]
        (leg,) = cluster.rename_legs(shard, "/a/y", shard, "/a/z")
        assert leg[0] is shard
        assert cluster.metrics.snapshot()["cluster.rename.local"] == 2

    def test_cross_shard_rename_moves_the_file_and_leaves_no_intent(self):
        cluster = small_cluster()
        fs = cluster.fs
        fs.mkdir("/a")
        fs.mkdir("/b")
        payload = b"travelling" * 321
        fs.write_file("/a/x", payload)
        fs.rename("/a/x", "/b/x")
        assert not fs.exists("/a/x")
        assert fs.read_file("/b/x") == payload
        assert cluster.metrics.snapshot()["cluster.rename.cross_shard"] == 1
        assert cluster.recover() == []   # protocol completed: no intents

    def test_cross_shard_rename_refuses_directories_and_busy_targets(self):
        cluster = small_cluster()
        fs = cluster.fs
        fs.mkdir("/a")
        fs.mkdir("/b")
        with pytest.raises(InvalidArgument):
            fs.rename("/a", "/b/a")   # whole-subtree moves don't cross volumes
        fs.write_file("/a/x", b"x")
        fs.write_file("/b/x", b"occupied")
        with pytest.raises(InvalidArgument):
            fs.rename("/a/x", "/b/x")


# -- the traffic model -----------------------------------------------------------


class TestClusterTraffic:
    def test_reports_are_byte_identical_across_runs(self):
        cfg = TrafficConfig(shards=4, seed=11, rename_fraction=0.1, **SMALL)
        a = run_cluster_traffic(cfg)
        b = run_cluster_traffic(cfg)
        assert render_cluster(a) == render_cluster(b)
        assert (json.dumps(cluster_summary(a), sort_keys=True)
                == json.dumps(cluster_summary(b), sort_keys=True))

    def test_concurrent_replay_exercises_cross_shard_renames(self):
        result = run_cluster_traffic(TrafficConfig(
            shards=4, seed=11, rename_fraction=0.2, **SMALL))
        assert result.cross_shard_renames > 0
        assert result.phase.n_ops == 48 * 3
        assert result.phase.failed == 0

    def test_per_shard_ops_sum_to_routed_ops(self):
        result = run_cluster_traffic(TrafficConfig(shards=4, seed=3, **SMALL))
        assert sum(s.ops for s in result.per_shard) == result.routes

    def test_a_probe_on_the_class_sees_every_event_of_a_phase(
            self, monkeypatch):
        # benchmarks/perf/trace.py charges client generators to the
        # cluster layer by replacing Cluster._step on the class, after
        # the cluster exists: no fault here, so every loop event is one.
        cluster = small_cluster()
        steps = []
        real_step = Cluster._step

        def step(*args):
            steps.append(args)
            return real_step(*args)

        monkeypatch.setattr(Cluster, "_step", step)
        run_cluster_traffic(TrafficConfig(shards=2, seed=5, **SMALL), cluster)
        assert len(steps) == cluster.loop.events_run > 0

    def test_invalid_configs_are_rejected(self):
        with pytest.raises(InvalidArgument):
            run_cluster_traffic(TrafficConfig(clients=0))
        with pytest.raises(InvalidArgument):
            run_cluster_traffic(TrafficConfig(read_fraction=0.9,
                                              rename_fraction=0.2))
        with pytest.raises(InvalidArgument):
            run_cluster_traffic(TrafficConfig(zipf_theta=-0.1))
        with pytest.raises(InvalidArgument):
            run_cluster_traffic(TrafficConfig(file_size=0))


class TestClusterAcceptance:
    """The issue's headline numbers, at the issue's scale (1000 clients)."""

    def test_four_shards_beat_one_and_the_placer_balances(self):
        multi = run_cluster_traffic(TrafficConfig())
        single = run_cluster_traffic(TrafficConfig(shards=1))
        speedup = multi.ops_per_second / single.ops_per_second
        assert multi.phase.n_ops == 3000
        assert speedup >= 2.5, "4-shard speedup %.2fx < 2.5x" % speedup
        assert multi.imbalance <= 0.25, (
            "per-shard ops imbalance %.1f%% > 25%%" % (multi.imbalance * 100))

    def test_util_placer_beats_hash_under_zipf(self):
        util = run_cluster_traffic(TrafficConfig())
        hashed = run_cluster_traffic(TrafficConfig(router="hash"))
        assert util.imbalance < hashed.imbalance


# -- crash-point sweep over the cross-shard rename -------------------------------


class TestCrossShardRenameCrashSweep:
    def test_every_media_write_boundary_recovers_to_exactly_one_copy(self):
        cluster, devices = sharded_pair()
        fs = cluster.fs
        payload = b"exactly-once" * 700   # spans multiple blocks
        fs.mkdir("/src")
        fs.write_file("/src/f", payload)
        fs.mkdir("/dst")
        fs.sync()
        assert cluster.router.assignments["src"] != \
            cluster.router.assignments["dst"]

        def rename():
            fs.rename("/src/f", "/dst/f")
            fs.sync()

        order, points = crash_sweep(devices, rename)
        outcomes = set()
        for k, mounted in points:
            recovered = Cluster(filesystems=mounted, router="util")
            for _, action in recovered.recover():
                outcomes.add(action)
            src_has = mounted[0].exists("/src/f")
            dst_has = mounted[1].exists("/dst/f")
            assert src_has != dst_has, (
                "crash point %d/%d: file on %s"
                % (k, len(order),
                   "both shards" if src_has else "neither shard"))
            survivor = mounted[0] if src_has else mounted[1]
            path = "/src/f" if src_has else "/dst/f"
            assert survivor.read_file(path) == payload, (
                "crash point %d: surviving copy corrupt" % k)
            # Recovery leaves no intent behind on either shard.
            assert recovered.recover() == []
        # The sweep crossed the commit point: both directions happened.
        assert "rolled_back" in outcomes
        assert "rolled_forward" in outcomes

    def test_recovery_discards_garbled_intents_without_touching_files(self):
        cluster, _ = sharded_pair()
        fs = cluster.fs
        fs.mkdir("/src")
        fs.write_file("/src/f", b"safe")
        shard = cluster.shards[cluster.router.assignments["src"]]
        shard.fs.write_file("/.cluster/intent-000042", b"not an intent")
        outcomes = cluster.recover()
        assert outcomes == [(-1, "discarded")]
        assert fs.read_file("/src/f") == b"safe"


class TestNamesWithNewlinesRecover:
    """A durable record whose names contain the frame's own delimiter
    is still a record: the cut protocol rolls back to one copy."""

    def test_cut_rename_of_a_newline_name_rolls_back(self):
        cluster = Cluster(n_shards=2)
        fs = cluster.fs
        fs.mkdir("/a")
        fs.mkdir("/b")
        old, new = "/a/x\ny", "/b/x\ny"
        fs.write_file(old, b"the only copy")
        src = cluster.shards[cluster.router.assignments["a"]]
        dst = cluster.shards[cluster.router.assignments["b"]]
        assert src is not dst
        for shard, leg in cluster.rename_legs(src, old, dst, new)[:2]:
            cluster.lockstep(shard, leg)     # read source, intent + copy
        assert dst.fs.exists(new)
        assert cluster.recover() == [(src.sid, "rolled_back")]
        assert fs.read_file(old) == b"the only copy"
        assert not dst.fs.exists(new)
        assert cluster.recover() == []

    def test_cut_evacuation_of_a_newline_top_rolls_back(self):
        cluster = Cluster(n_shards=2)
        fs = cluster.fs
        top = "t\nop"
        fs.mkdir("/" + top)
        fs.write_file("/%s/f" % top, b"source copy")
        src = cluster.shards[cluster.router.assignments[top]]
        dst = cluster.shards[1 - src.sid]
        # Everything the evacuator writes before the adopt record.
        dst.fs.write_file(EVAC.path(1), encode_record(EVAC, src.sid, top, 1, 11))
        dst.fs.mkdir("/" + top)
        dst.fs.write_file("/%s/f" % top, b"source copy")
        assert cluster.recover() == [(src.sid, "evac_rolled_back")]
        assert not dst.fs.exists("/" + top)
        assert fs.read_file("/%s/f" % top) == b"source copy"
        assert cluster.recover() == []


class TestIntentRecoveryIdempotence:
    def _two_tops(self):
        cluster = Cluster(n_shards=2)
        fs = cluster.fs
        fs.mkdir("/a")
        fs.mkdir("/b")
        sid_a = cluster.router.assignments["a"]
        sid_b = cluster.router.assignments["b"]
        assert sid_a != sid_b
        return cluster, sid_a, sid_b

    def test_recovery_twice_is_a_no_op(self):
        # A crash between the durable copy and the source unlink leaves
        # a stale intent; the first recovery rolls it back, the second
        # must find a converged cluster and do nothing.
        cluster, sid_a, sid_b = self._two_tops()
        cluster.fs.write_file("/a/x", b"authoritative")
        dst = cluster.shards[sid_b].fs
        dst.write_file("/b/x", b"partial copy")
        dst.write_file("/.cluster/intent-000001",
                       encode_record(INTENT, sid_a, "/a/x", "/b/x"))
        assert cluster.recover() == [(sid_a, "rolled_back")]
        assert not dst.exists("/b/x")
        assert cluster.fs.read_file("/a/x") == b"authoritative"
        assert cluster.recover() == []

    def test_competing_stale_intents_keep_exactly_one_intact_copy(self):
        # Two stale intents name the same destination path: an old one
        # whose source still exists (wants roll-back) and a committed
        # one whose source is gone (wants roll-forward).  The committed
        # rename's claim on the destination must win — deleting the
        # copy would lose the only remaining replica of its file.
        cluster, sid_a, sid_b = self._two_tops()
        cluster.fs.write_file("/a/x", b"old source")
        dst = cluster.shards[sid_b].fs
        dst.write_file("/b/x", b"committed copy")
        dst.write_file("/.cluster/intent-000001",
                       encode_record(INTENT, sid_a, "/a/x", "/b/x"))
        dst.write_file("/.cluster/intent-000002",
                       encode_record(INTENT, sid_a, "/a/gone", "/b/x"))
        outcomes = cluster.recover()
        assert sorted(outcomes) == [(sid_a, "rolled_back"),
                                    (sid_a, "rolled_forward")]
        assert dst.read_file("/b/x") == b"committed copy"
        assert cluster.fs.read_file("/a/x") == b"old source"
        assert cluster.recover() == []
