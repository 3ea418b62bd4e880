"""Differential oracle for the engine's capture / replay path.

How an operation is captured and replayed — which objects carry its
timeline, where its CPU and queueing are summed — is free to change;
what the replay *produces* is not.  So the path is pinned against a
reference kept here verbatim from the code before capture and replay
were made allocation-free: ``replay``, ``Replayer._step`` /
``run_phase``, ``Engine.capture`` with ``_CaptureDevice._record`` /
``finish``, ``OpTally`` and ``ClientContext._run_ops``.

Seeded multi-client scripts (create / read / overwrite / delete and
``sync``, over a cache small enough that reads reach the drive) run
through the reference and through the real engine on two fresh
stacks, under every queue policy, with and without pinned transient
and hard faults.  Every ``OpRecord`` field (floats compared with
``==``), the queue's counters, the loop's event count, the drive's
registry snapshot and the device image must agree.
"""

from __future__ import annotations

import random
from dataclasses import astuple, dataclass, field
from typing import Callable, List, Optional, Sequence

import pytest

from repro import obs
from repro.blockdev.device import SECTORS_PER_BLOCK, BatchedIO
from repro.clock import SimClock
from repro.engine import Engine
from repro.engine.client import LATENCY_BUCKETS_MS, OpRecord
from repro.engine.diskqueue import SCHEDULERS
from repro.errors import InvalidArgument
from repro.obs.metrics import Histogram
from tests.conftest import PinnedFaults, make_cffs

SEEDS = (3, 1997)
FAULTS = ("none", "transient", "hard")


# -- the reference: verbatim from engine/client.py before the change -------------


@dataclass(slots=True)
class CapturedRequest:
    """One disk request recorded during capture."""

    op: str            # "read" | "write" | "flush"
    lba: int
    nsectors: int
    cpu_before: float  # CPU seconds since the previous request


@dataclass
class CapturedOp:
    """The timed skeleton of one file-system operation."""

    requests: List[CapturedRequest] = field(default_factory=list)
    trailing_cpu: float = 0.0

    @property
    def cpu_total(self) -> float:
        return sum(r.cpu_before for r in self.requests) + self.trailing_cpu


class _CaptureDevice(BatchedIO):
    def __init__(self, real, scratch_clock: SimClock) -> None:
        self._real = real
        self.disk = real.disk      # read by BatchedIO for the arm position
        self.clock = scratch_clock
        self.total_blocks = real.total_blocks
        self.captured = CapturedOp()
        self._mark = scratch_clock.now

    def _record(self, op: str, lba: int, nsectors: int) -> None:
        gap = self.clock.now - self._mark
        self._mark = self.clock.now
        self.captured.requests.append(CapturedRequest(op, lba, nsectors, gap))

    def finish(self) -> CapturedOp:
        self.captured.trailing_cpu = self.clock.now - self._mark
        return self.captured

    def read_block(self, bno: int) -> bytes:
        data = self._real.peek_block(bno)
        self._record("read", bno * SECTORS_PER_BLOCK, SECTORS_PER_BLOCK)
        return data

    def write_block(self, bno: int, data: bytes) -> None:
        self._real.poke_block(bno, data)
        self._record("write", bno * SECTORS_PER_BLOCK, SECTORS_PER_BLOCK)

    def read_extent(self, start: int, count: int) -> List[bytes]:
        out = [self._real.peek_block(b) for b in range(start, start + count)]
        self._record("read", start * SECTORS_PER_BLOCK, count * SECTORS_PER_BLOCK)
        return out

    def write_extent(self, start: int, blocks: Sequence[bytes]) -> None:
        for i, data in enumerate(blocks):
            self._real.poke_block(start + i, data)
        self._record("write", start * SECTORS_PER_BLOCK,
                     len(blocks) * SECTORS_PER_BLOCK)

    def flush(self) -> None:
        self._record("flush", 0, 0)

    def peek_block(self, bno: int) -> bytes:
        return self._real.peek_block(bno)

    def poke_block(self, bno: int, data: bytes) -> None:
        self._real.poke_block(bno, data)


class OpTally:
    __slots__ = ("n_requests", "reads", "writes", "queue_delay", "retries",
                 "cpu_seconds")

    def __init__(self) -> None:
        self.n_requests = self.reads = self.writes = self.retries = 0
        self.queue_delay = self.cpu_seconds = 0.0

    def record(self, phase: str, label: str, client: int, start: float,
               end: float, error: Optional[str]) -> OpRecord:
        return OpRecord(
            phase=phase, label=label, client=client, start=start, end=end,
            n_requests=self.n_requests, queue_delay=self.queue_delay,
            cpu_seconds=self.cpu_seconds, retries=self.retries, error=error)


def ref_capture(self, fn: Callable) -> CapturedOp:
    """``Engine.capture``."""
    scratch = SimClock(self.loop.now)
    proxy = _CaptureDevice(self.device, scratch)
    fs = self.fs
    saved_cpu_clock = fs.cpu.clock
    fs.cache.device = proxy  # type: ignore[assignment]
    fs.cpu.clock = scratch
    tracer = obs.active()
    saved_tracer_clock = tracer.clock if tracer is not None else None
    if tracer is not None:
        tracer.clock = scratch
    try:
        fn(fs)
    finally:
        fs.cache.device = self.device
        fs.cpu.clock = saved_cpu_clock
        if tracer is not None:
            tracer.clock = saved_tracer_clock
    return proxy.finish()


def ref_replay(engine, fn: Callable, tally: OpTally):
    cap = ref_capture(engine, fn)
    tally.cpu_seconds += cap.cpu_total
    queue = engine.queue
    for step in cap.requests:
        if step.cpu_before > 0:
            yield ("cpu", step.cpu_before)
        done = yield ("io", (queue, step))
        tally.n_requests += 1
        tally.queue_delay += done.queue_delay
        tally.retries += done.retries
        if step.op == "read":
            tally.reads += 1
        elif step.op == "write":
            tally.writes += 1
        if done.error is not None:
            return done
    if cap.trailing_cpu > 0:
        yield ("cpu", cap.trailing_cpu)
    return None


def ref_run_ops(self, ops, phase: str):
    """``ClientContext._run_ops``."""
    clock = self.engine.loop.clock
    for label, fn in ops:
        start = clock.now
        tally = OpTally()
        failed = yield from ref_replay(self.engine, fn, tally)
        error = failed.error if failed is not None else None
        end = clock.now
        self.cpu_seconds += tally.cpu_seconds
        self.queue_delay += tally.queue_delay
        self.reads += tally.reads
        self.writes += tally.writes
        self.retries += tally.retries
        if error is not None:
            self.io_errors += 1
        self._latency_ms.observe((end - start) * 1e3)
        self.records.append(
            tally.record(phase, label, self.cid, start, end, error))


def ref_run_phase(self, assignments, phase: str = "phase") -> float:
    """``Replayer.run_phase`` (over ``ref_run_ops`` and ``ref_step``)."""
    if self.loop.pending:
        raise InvalidArgument("phase already running")
    start = self.loop.now
    for client, ops in assignments.items():
        gen = ref_run_ops(client, list(ops), phase)
        client.resume = (lambda req, client=client, gen=gen:
                         ref_step(self, client, gen, req))
        self.loop.call_at(start, ref_step, self, client, gen, None)
    self.loop.run()
    for device in (self.device,):
        device.clock.advance_to(self.loop.now)
    return self.loop.now - start


def ref_step(self, client, gen, payload) -> None:
    """``Replayer._step``."""
    try:
        kind, arg = gen.send(payload)
    except StopIteration:
        client.finished_at = self.loop.now
        client.resume = None
        return
    if kind == "cpu":
        self.loop.call_later(arg, ref_step, self, client, gen, None)
        return
    queue, step = arg
    queue.submit(step.op, step.lba, step.nsectors, client.cid,
                 client.resume)


# -- the scripts --------------------------------------------------------------------


def _scripts(seed: int, n_clients: int, n_ops: int):
    """Per client, a setup file list and two phases of mixed operations.

    Each client works in its own directory, so one client's model of
    which of its files exist is exact whatever the interleaving.
    """
    rng = random.Random(seed)
    setup, phases = [], [[], []]
    for cid in range(n_clients):
        d = "/c%d" % cid
        live = ["%s/s%d" % (d, i) for i in range(4)]
        setup.append((d, [(p, rng.randrange(1, 3 * 4096)) for p in live]))
        serial = 0
        for ops in phases:
            script = []
            for _ in range(n_ops):
                roll = rng.random()
                if roll < 0.1:
                    script.append(("sync", lambda f: f.sync()))
                elif roll < 0.35 or not live:
                    path = "%s/n%d" % (d, serial)
                    serial += 1
                    live.append(path)
                    size = rng.randrange(1, 3 * 4096)
                    script.append(("create", lambda f, p=path, n=size:
                                   f.write_file(p, bytes([n % 251]) * n)))
                elif roll < 0.6:
                    path = rng.choice(live)
                    script.append(("read", lambda f, p=path: f.read_file(p)))
                elif roll < 0.8:
                    path = rng.choice(live)
                    size = rng.randrange(1, 3 * 4096)
                    script.append(("overwrite", lambda f, p=path, n=size:
                                   f.write_file(p, bytes([n % 241]) * n)))
                else:
                    path = live.pop(rng.randrange(len(live)))
                    script.append(("delete", lambda f, p=path: f.unlink(p)))
            ops.append(script)
    return setup, phases


def _faults(kind: str, seed: int) -> Optional[PinnedFaults]:
    if kind == "none":
        return None
    faults = PinnedFaults(seed=seed, transient_rate=0.04)
    for index in (2, 9, 30):
        faults.fail_write(index, transient=True)
        faults.fail_read(index + 1, transient=True)
    if kind == "hard":
        for index in (5, 17, 44):
            faults.fail_write(index)
            faults.fail_read(index)
    return faults


def _run(scheduler: str, fault_kind: str, seed: int, reference: bool):
    setup, phases = _scripts(seed, n_clients=4, n_ops=24)
    engine = Engine(make_cffs(cache_blocks=48), scheduler=scheduler,
                    faults=_faults(fault_kind, seed))
    clients = [engine.add_client() for _ in setup]
    if reference:
        # The verbatim _run_ops observes every operation into a histogram
        # of its own; the registry counts its own from the records.
        for client in clients:
            client._latency_ms = Histogram(
                "engine.%s.latency_ms" % client.name, LATENCY_BUCKETS_MS)

    def prepare(f):
        for d, files in setup:
            f.mkdir(d)
            for path, size in files:
                f.write_file(path, bytes([size % 239]) * size)
        f.sync()
        f.drop_caches()

    engine.run_sync(prepare)
    for number, scripts in enumerate(phases):
        assignments = {client: scripts[client.cid] for client in clients}
        if reference:
            ref_run_phase(engine, assignments, "p%d" % number)
        else:
            engine.run_phase(assignments, "p%d" % number)
        engine.run_sync(lambda f: f.sync())
    records = [[astuple_record(r) for r in client.records]
               for client in clients]
    return {
        "records": records,
        "finished": [client.finished_at for client in clients],
        "stats": astuple(engine.queue.stats),
        "retried_ops": dict(engine.queue.retried_ops),
        "events": engine.loop.events_run,
        "now": engine.loop.now,
        "registry": engine.device.disk.registry.snapshot(),
        "image": engine.device.content_digest(),
        "observed": {"engine.%s.latency_ms" % client.name:
                     client._latency_ms.value for client in clients
                     if reference},
    }


def astuple_record(r: OpRecord) -> tuple:
    return (r.phase, r.label, r.client, r.start, r.end, r.n_requests,
            r.queue_delay, r.cpu_seconds, r.retries, r.error)


@pytest.mark.parametrize("fault_kind", FAULTS)
@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("seed", SEEDS)
def test_replay_matches_reference(seed, scheduler, fault_kind):
    want = _run(scheduler, fault_kind, seed, reference=True)
    got = _run(scheduler, fault_kind, seed, reference=False)
    assert sum(len(r) for r in got["records"]) == 4 * 24 * 2
    assert got["stats"][0] > 0
    # Each client's latency histogram, counted from its records when the
    # snapshot asks, equals one fed by a per-operation observe.
    observed = want.pop("observed")
    assert len(observed) == 4 and not got.pop("observed")
    for name, value in observed.items():
        assert got["registry"][name] == value, name
    for key in want:
        assert got[key] == want[key], key


def test_scripts_reach_faults_and_the_drive():
    """The corners the oracle exists for are really exercised: reads
    that miss the cache, requests retried, operations failed hard."""
    run = _run("sstf", "hard", SEEDS[0], reference=False)
    ops = [r for client in run["records"] for r in client]
    assert any(r[1] == "read" and r[5] > 0 for r in ops)
    assert any(r[8] > 0 for r in ops)
    assert any(r[9] is not None for r in ops)
    assert run["retried_ops"]["read"] > 0 and run["retried_ops"]["write"] > 0
