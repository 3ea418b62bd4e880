"""Tests for the multi-client concurrency engine.

Three properties are load-bearing:

1. **Determinism** — identical runs produce identical simulated
   timelines (op for op, float for float).
2. **Single-client equivalence** — one client through the engine costs
   the same simulated time as the classic synchronous driver: the
   engine is a strict generalization, not a different model.
3. **Scheduling matters** — on a contended queue, positional policies
   (SSTF, C-LOOK) spend no more seek time than FCFS.
"""

import pytest

from repro.blockdev.device import BlockDevice
from repro.engine import (
    DiskQueue,
    Engine,
    EventLoop,
    run_multiclient,
)
from repro.engine.multiclient import SEED
from repro.errors import InvalidArgument
from repro.workloads import run_smallfile, smallfile_ops, smallfile_paths
from repro.workloads.postmark import (
    PostmarkConfig,
    postmark_script,
    run_postmark,
)
from tests.conftest import TEST_PROFILE, PinnedFaults, make_cffs, queue_depth


class TestEventLoop:
    def test_runs_in_time_order(self):
        loop = EventLoop()
        seen = []
        loop.call_at(3.0, seen.append, "c")
        loop.call_at(1.0, seen.append, "a")
        loop.call_at(2.0, seen.append, "b")
        end = loop.run()
        assert seen == ["a", "b", "c"]
        assert end == 3.0
        assert loop.now == 3.0

    def test_ties_run_in_scheduling_order(self):
        loop = EventLoop()
        seen = []
        for tag in ("first", "second", "third"):
            loop.call_at(1.0, seen.append, tag)
        loop.run()
        assert seen == ["first", "second", "third"]

    def test_callbacks_may_schedule_more_events(self):
        loop = EventLoop()
        seen = []

        def tick(n):
            seen.append(n)
            if n < 3:
                loop.call_later(1.0, tick, n + 1)

        loop.call_at(0.5, tick, 0)
        assert loop.run() == pytest.approx(3.5)
        assert seen == [0, 1, 2, 3]

    def test_past_events_clamp_to_now(self):
        loop = EventLoop()
        loop.clock.advance(10.0)
        seen = []
        loop.call_at(5.0, lambda: seen.append(loop.now))
        loop.run()
        assert seen == [10.0]

    def test_negative_delay_rejected(self):
        with pytest.raises(InvalidArgument):
            EventLoop().call_later(-1.0, lambda: None)


def _scattered_read_burst(policy: str, lbas):
    """Submit a burst of far-apart reads at t=0; return (disk, done)."""
    device = BlockDevice(TEST_PROFILE)
    loop = EventLoop()
    queue = DiskQueue(loop, device.disk, policy)
    done = []
    for lba in lbas:
        queue.submit("read", lba, 8, client=0, on_complete=done.append)
    loop.run()
    return device.disk, done


class TestDiskQueue:
    LBAS = [20000, 400, 12000, 25000, 3000, 18000, 800, 9000, 22000, 5000]

    def test_unknown_policy_rejected(self):
        device = BlockDevice(TEST_PROFILE)
        with pytest.raises(InvalidArgument):
            DiskQueue(EventLoop(), device.disk, "elevator")

    def test_all_requests_complete_with_delays(self):
        disk, done = _scattered_read_burst("fcfs", self.LBAS)
        assert len(done) == len(self.LBAS)
        # First request never waits; later ones queue behind it.
        delays = sorted(r.queue_delay for r in done)
        assert delays[0] == 0.0
        assert delays[-1] > 0.0
        for r in done:
            assert r.complete_time >= r.dispatch_time >= r.submit_time

    def test_fcfs_preserves_submission_order(self):
        _disk, done = _scattered_read_burst("fcfs", self.LBAS)
        assert [r.lba for r in done] == self.LBAS

    def test_positional_policies_do_not_seek_more_than_fcfs(self):
        seek = {}
        for policy in ("fcfs", "sstf", "clook"):
            disk, _ = _scattered_read_burst(policy, self.LBAS)
            seek[policy] = disk.stats.seek_time
        assert seek["sstf"] <= seek["fcfs"]
        assert seek["clook"] <= seek["fcfs"]
        # On this trace the improvement is real, not a tie.
        assert seek["sstf"] < 0.9 * seek["fcfs"]

    def test_queue_depth_accounting(self):
        disk, _ = _scattered_read_burst("fcfs", self.LBAS)
        device = BlockDevice(TEST_PROFILE)
        loop = EventLoop()
        queue = DiskQueue(loop, device.disk, "fcfs")
        for lba in self.LBAS:
            queue.submit("read", lba, 8)
        assert queue_depth(queue) == len(self.LBAS) - 1  # one already in service
        loop.run()
        assert queue_depth(queue) == 0
        assert queue.stats.max_depth == len(self.LBAS) - 1
        assert queue.stats.mean_queue_depth > 0.0
        assert queue.stats.completed == len(self.LBAS)

    def test_flush_barrier_jumps_positional_queue(self):
        device = BlockDevice(TEST_PROFILE)
        loop = EventLoop()
        queue = DiskQueue(loop, device.disk, "sstf")
        order = []
        queue.submit("read", 20000, 8,
                     on_complete=lambda r: order.append("far"))
        queue.submit("read", 100, 8,
                     on_complete=lambda r: order.append("near"))
        queue.submit("flush", 0, 0,
                     on_complete=lambda r: order.append("flush"))
        loop.run()
        # The barrier dispatches ahead of the queued positional choice.
        assert order == ["far", "flush", "near"]

    #: policy -> (depth_area, total_queue_delay, service order) of the
    #: LBAS burst, measured at the arrival-ordered list queue of PR 16.
    PINNED = {
        "fcfs": (0.9592592592592593, 0.9592592592592594, LBAS),
        "sstf": (0.7592592592592593, 0.7592592592592592,
                 [20000, 18000, 22000, 25000, 12000, 9000, 5000, 3000,
                  800, 400]),
        "clook": (0.6874074074074075, 0.6874074074074074,
                  [20000, 22000, 25000, 400, 800, 3000, 5000, 9000, 12000,
                   18000]),
    }

    @pytest.mark.parametrize("policy", ["fcfs", "sstf", "clook"])
    def test_burst_accounting_is_pinned_float_for_float(self, policy):
        depth_area, queue_delay, order = self.PINNED[policy]
        device = BlockDevice(TEST_PROFILE)
        loop = EventLoop()
        queue = DiskQueue(loop, device.disk, policy)
        done = []
        for lba in self.LBAS:
            queue.submit("read", lba, 8, on_complete=done.append)
        assert queue_depth(queue) == 9
        loop.run()
        assert [r.lba for r in done] == order
        assert queue_depth(queue) == 0
        assert queue.stats.max_depth == 9
        assert queue.stats.depth_area == depth_area
        assert queue.stats.total_queue_delay == queue_delay

    @pytest.mark.parametrize("policy", ["fcfs", "sstf", "clook"])
    def test_field_equal_requests_are_distinct_requests(self, policy):
        # A request is its identity: two submissions equal in every
        # field at the same instant are two requests, each dispatched
        # and completed once, the earlier arrival first.
        device = BlockDevice(TEST_PROFILE)
        loop = EventLoop()
        queue = DiskQueue(loop, device.disk, policy)
        first = queue.submit("read", 12000, 8)    # occupies the drive
        twins = [queue.submit("read", 4000, 8, client=3) for _ in range(2)]
        assert twins[0] is not twins[1] and twins[0] != twins[1]
        assert queue_depth(queue) == 2
        loop.run()
        assert queue.stats.submitted == queue.stats.completed == 3
        assert (first.complete_time == twins[0].dispatch_time
                < twins[0].complete_time == twins[1].dispatch_time
                < twins[1].complete_time == loop.now)


def _engine_phase_times(fs, setup, scripts, cold):
    """Replay ``{phase: ops}`` through a 1-client engine with the
    synchronous drivers' measurement discipline: a sync ends each phase,
    and ``cold`` drops caches between phases (run_smallfile does,
    run_postmark does not)."""
    engine = Engine(fs)
    client = engine.add_client()
    engine.run_sync(setup)
    times = {}
    for phase, ops in scripts.items():
        start = engine.now
        engine.run_phase({client: ops}, phase)
        engine.run_sync(lambda f: f.sync())
        times[phase] = engine.now - start
        if cold:
            engine.run_sync(lambda f: f.drop_caches())
    return times, engine


def _lone_queue_delay(engine):
    (client,) = engine.clients
    assert client.records, "the client replayed nothing"
    return engine.metrics.counter(
        "engine.%s.queue_delay" % client.name).value


class TestEngineEquivalence:
    PHASES = ("create", "read", "overwrite", "delete")

    def test_single_client_matches_synchronous_driver(self):
        n_files, file_size = 60, 1024
        paths = smallfile_paths("/bench", n_files)

        sync_fs = make_cffs()
        sync_result = run_smallfile(
            sync_fs, n_files=n_files, file_size=file_size, phases=self.PHASES)

        def setup(f):
            f.mkdir("/bench")
            f.sync()
            f.drop_caches()

        engine_times, engine = _engine_phase_times(
            make_cffs(), setup,
            {phase: smallfile_ops(paths, file_size, phase)
             for phase in self.PHASES}, cold=True)

        for phase in self.PHASES:
            reference = sync_result[phase].seconds
            assert engine_times[phase] == pytest.approx(reference, rel=1e-3), phase
        # A lone client never waits in the host queue.
        assert _lone_queue_delay(engine) == 0.0

    def test_single_client_postmark_matches_run_postmark(self):
        # One PostMark: the script run_postmark times is the script the
        # engine replays, so a lone client reproduces its three phases.
        cfg = PostmarkConfig(n_files=40, n_transactions=90, n_dirs=3, seed=11)
        reference = run_postmark(make_cffs(), cfg)
        dirs = ["/postmark/d%03d" % d for d in range(cfg.n_dirs)]

        def setup(f):
            f.mkdir("/postmark")
            for d in dirs:
                f.mkdir(d)

        times, engine = _engine_phase_times(
            make_cffs(), setup, postmark_script(cfg, dirs), cold=False)
        assert times == pytest.approx({
            phase: reference.phases[phase].seconds
            for phase in ("create", "transactions", "delete")}, rel=1e-3)
        assert _lone_queue_delay(engine) == 0.0

    def test_single_client_no_queueing_in_multiclient_driver(self):
        result = run_multiclient(label="cffs", n_clients=1,
                                 files_per_client=30)
        for phase in result.phases.values():
            assert phase.mean_queue_depth == 0.0
            assert phase.fairness == 1.0


class TestEngineDeterminism:
    def _run(self):
        return run_multiclient(
            label="cffs", n_clients=4, files_per_client=12, file_size=1024)

    def test_identical_runs_produce_identical_timelines(self):
        a = self._run()
        b = self._run()
        assert a.total_seconds == b.total_seconds
        for phase in a.phases:
            pa, pb = a[phase], b[phase]
            assert pa.seconds == pb.seconds
            assert pa.latency == pb.latency
            assert pa.mean_queue_depth == pb.mean_queue_depth
            for ca, cb in zip(pa.per_client, pb.per_client):
                assert ca == cb

    def test_concurrency_actually_overlaps(self):
        result = self._run()
        # With four clients on one arm, requests must have queued.
        assert result["create"].mean_queue_depth > 0.0
        assert any(c.queue_delay > 0.0
                   for c in result["create"].per_client)


class TestEngineApi:
    def test_run_sync_refuses_pending_events(self):
        fs = make_cffs()
        engine = Engine(fs)
        engine.loop.call_later(1.0, lambda: None)
        with pytest.raises(InvalidArgument):
            engine.run_sync(lambda f: None)

    def test_per_client_accounting(self):
        fs = make_cffs()
        engine = Engine(fs)
        client = engine.add_client("solo")
        engine.run_sync(lambda f: f.mkdir("/d"))
        ops = smallfile_ops(["/d/f%d" % i for i in range(5)], 2048, "create")
        engine.run_phase({client: ops}, "create")
        assert len(client.records) == 5
        assert all(r.phase == "create" for r in client.records)
        assert client.latencies("create") == [r.latency for r in client.records]
        # The accounting is the registry's ``engine.<name>.<field>``
        # counters, summed from the records; only the client's own
        # replay moves them.

        def counted(field):
            return engine.metrics.counter("engine.solo." + field).value

        assert counted("writes") > 0
        assert counted("cpu_seconds") == sum(
            r.cpu_seconds for r in client.records) > 0.0
        assert counted("queue_delay") == sum(
            r.queue_delay for r in client.records)
        assert counted("io_errors") == counted("retries") == 0

    def test_probes_on_class_attributes_see_every_step_and_submit(
            self, monkeypatch):
        # benchmarks/perf/trace.py measures the engine from outside by
        # replacing Engine/Cluster._step and DiskQueue.submit *on the
        # class* and reading the client id as positional argument 4.  A
        # bound method cached at construction would slip past it and
        # zero a layer's host share without failing anything.
        engine = Engine(make_cffs())
        clients = [engine.add_client(), engine.add_client()]
        engine.run_sync(lambda f: f.mkdir("/d"))
        steps, submit_clients = [], []
        real_step, real_submit = Engine._step, DiskQueue.submit

        def step(*args):
            steps.append(args)
            return real_step(*args)

        def submit(*args, **kwargs):
            submit_clients.append(
                args[4] if len(args) > 4 else kwargs.get("client", 0))
            return real_submit(*args, **kwargs)

        monkeypatch.setattr(Engine, "_step", step)
        monkeypatch.setattr(DiskQueue, "submit", submit)
        before = engine.loop.events_run
        engine.run_phase({
            c: smallfile_ops(["/d/%s-%d" % (c.name, i) for i in range(6)],
                             2048, "create") + [("sync", lambda f: f.sync())]
            for c in clients}, "create")
        assert len(steps) == engine.loop.events_run - before > 0
        assert len(submit_clients) == engine.queue.stats.submitted > 0
        assert set(submit_clients) == {0, 1}

    def test_postmark_and_hypertext_workloads_run(self, monkeypatch):
        # The driver returns summaries only; keep its engines to look at
        # the per-operation records and the volume behind them.
        engines = []

        class KeptEngine(Engine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                engines.append(self)

        monkeypatch.setattr("repro.engine.multiclient.Engine", KeptEngine)
        for workload in ("postmark", "hypertext"):
            result = run_multiclient(
                label="cffs", n_clients=2, files_per_client=6,
                workload=workload)
            (phase,) = result.phases.values()
            assert phase.n_ops > 0
            assert phase.seconds > 0.0
        postmark, hypertext = engines

        # Client 0 ran PostMark's own create + transactions, label for label.
        script = postmark_script(
            PostmarkConfig(n_files=6, n_transactions=12, seed=SEED, n_dirs=1),
            ["/mc/c00"])
        assert [r.label for r in postmark.clients[0].records] == [
            label for label, _ in script["create"] + script["transactions"]]

        # Each client's site is the type-scattered one of paper section 6.
        fs = hypertext.fs
        for client in hypertext.clients:
            root = "/mc/%s" % client.name
            assert sorted(fs.readdir(root)) == ["images", "pages", "styles"]
            assert len(fs.readdir(root + "/pages")) == 6
            assert fs.readdir(root + "/images") and fs.readdir(root + "/styles")
            assert len(client.records) == 6


def _faulty_burst(policy, lbas, schedule):
    device = BlockDevice(TEST_PROFILE)
    loop = EventLoop()
    queue = DiskQueue(loop, device.disk, policy, faults=schedule)
    done = []
    for lba in lbas:
        queue.submit("read", lba, 8, client=lba % 3, on_complete=done.append)
    loop.run()
    return queue, done


class TestDiskQueueFaults:
    """The queue under failing requests: balanced accounting, bounded
    retries, no starvation under positional policies."""

    LBAS = [20000, 400, 12000, 25000, 3000, 18000, 800, 9000, 22000, 5000]

    def test_transient_fault_retried_and_completed(self):
        schedule = PinnedFaults().fail_read(0, transient=True)
        for policy in ("fcfs", "sstf", "clook"):
            queue, done = _faulty_burst(policy, self.LBAS, schedule)
            assert len(done) == len(self.LBAS)
            assert all(r.error is None for r in done)
            assert queue.stats.retried == 1
            assert queue.stats.failed == 0
            assert sum(r.retries for r in done) == 1
            # submitted == completed even with the requeue in between.
            assert queue.stats.submitted == queue.stats.completed == len(self.LBAS)

    def test_hard_fault_completes_with_error(self):
        schedule = PinnedFaults().fail_read(2)
        queue, done = _faulty_burst("fcfs", self.LBAS, schedule)
        assert len(done) == len(self.LBAS)
        failed = [r for r in done if r.error is not None]
        assert len(failed) == 1
        assert failed[0].lba == self.LBAS[2]
        assert "hard" in failed[0].error
        assert queue.stats.failed == 1
        assert queue.stats.completed == len(self.LBAS)

    def test_exhausted_retries_surface_as_error(self):
        from repro.faults import FaultSchedule
        from repro.faults.schedule import RETRY_ATTEMPTS

        # Every dispatch of every read fails transiently: the retry
        # budget caps the attempts and the request fails for good —
        # no starvation, no infinite loop.
        schedule = FaultSchedule(transient_rate=1.0)
        queue, done = _faulty_burst("sstf", self.LBAS, schedule)
        assert len(done) == len(self.LBAS)
        assert all(r.error is not None for r in done)
        assert all(r.retries == RETRY_ATTEMPTS - 1 for r in done)
        assert queue.stats.failed == len(self.LBAS)
        assert queue.stats.retried == (RETRY_ATTEMPTS - 1) * len(self.LBAS)

    def test_faulty_runs_are_deterministic(self):
        from repro.faults import FaultSchedule

        def run():
            schedule = FaultSchedule(seed=11, transient_rate=0.3)
            queue, done = _faulty_burst("clook", self.LBAS, schedule)
            return [(r.lba, r.retries, r.error, r.complete_time) for r in done]

        assert run() == run()

    def test_requeued_request_not_starved_under_sstf(self):
        # The far request fails once; SSTF would always prefer the
        # near cluster, but the retried request must still complete.
        schedule = PinnedFaults().fail_read(0, transient=True)
        lbas = [25000] + [100 + 8 * i for i in range(12)]
        device = BlockDevice(TEST_PROFILE)
        loop = EventLoop()
        queue = DiskQueue(loop, device.disk, "sstf", faults=schedule)
        done = []
        for lba in lbas:
            queue.submit("read", lba, 8, on_complete=done.append)
        loop.run()
        assert len(done) == len(lbas)
        assert all(r.error is None for r in done)
        assert queue_depth(queue) == 0


class TestEngineFaults:
    def test_multiclient_rides_out_transient_faults(self):
        from repro.faults import FaultSchedule

        clean = run_multiclient(label="cffs", n_clients=3,
                                files_per_client=6, phases=("create",))
        faulty = run_multiclient(label="cffs", n_clients=3,
                                 files_per_client=6, phases=("create",),
                                 faults=FaultSchedule(seed=5,
                                                      transient_rate=0.25))
        phase = faulty["create"]
        assert phase.n_ops == clean["create"].n_ops  # no op lost
        assert phase.retried > 0
        assert phase.failed == 0
        assert sum(c.retries for c in phase.per_client) > 0
        assert all(c.io_errors == 0 for c in phase.per_client)
        # Retry latency is real, but an errored dispatch does not move
        # the arm, so total time may go either way; what must hold is
        # that the clean run saw no fault traffic at all.
        assert clean["create"].retried == 0 and clean["create"].failed == 0

    def test_multiclient_hard_faults_abort_ops_not_the_run(self):
        schedule = PinnedFaults().fail_write(4).fail_write(9)
        result = run_multiclient(label="ffs", n_clients=2,
                                 files_per_client=8, phases=("create",),
                                 faults=schedule)
        phase = result["create"]
        assert phase.failed == 2
        assert sum(c.io_errors for c in phase.per_client) >= 1
        # Every client still finished its script.
        assert phase.n_ops == 2 * 8

    def test_render_shows_fault_columns_when_faulty(self):
        from repro.engine import render_multiclient
        from repro.faults import FaultSchedule

        result = run_multiclient(label="cffs", n_clients=2,
                                 files_per_client=5, phases=("create",),
                                 faults=FaultSchedule(seed=2,
                                                      transient_rate=0.3))
        text = render_multiclient(result)
        assert "retry" in text and "err" in text
        assert "retried" in text


class TestDiskQueueRetryMetrics:
    """Retry traffic must surface in the obs registry: a counter per
    requeue and a latency histogram for requests that needed retries."""

    LBAS = [20000, 400, 12000, 25000, 3000]

    def test_retries_counted_and_latency_observed(self):
        from repro import obs

        tracer = obs.install(obs.Tracer())
        try:
            # Dispatches 0 and 1 hit transients (each dispatch consumes
            # one schedule index), so retry traffic definitely flows.
            schedule = (PinnedFaults().fail_read(0, transient=True)
                        .fail_read(1, transient=True))
            queue, done = _faulty_burst("fcfs", self.LBAS, schedule)
        finally:
            obs.uninstall()
        assert queue.stats.retried == 2
        registry = tracer.registry
        assert registry.counter("queue.retried").value == 2
        assert registry.counter("queue.retried.read").value == 2
        retried = [r for r in done if r.retries > 0]
        assert retried and sum(r.retries for r in retried) == 2
        hist = registry.histogram("queue.retry_latency")
        # One observation per request that survived retries, measuring
        # the client-visible latency: original submit (not the requeue's
        # reset submit mark) to final completion.
        assert hist.total == len(retried)
        assert hist.sum == pytest.approx(sum(
            r.complete_time - r.first_submit_time for r in retried))
        assert hist.sum >= len(retried) * 0.002   # backoff sleeps included

    def test_untraced_runs_cost_nothing_and_keep_stats(self):
        schedule = PinnedFaults().fail_read(0, transient=True)
        queue, done = _faulty_burst("fcfs", self.LBAS, schedule)
        assert queue.stats.retried == 1  # queue accounting works untraced
        assert all(r.error is None for r in done)
