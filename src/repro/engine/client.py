"""Client contexts: simulated processes interleaved at I/O granularity.

The file systems in this repository are synchronous Python code — an
operation like ``write_file`` charges CPU and issues disk requests deep
inside its call stack, against the shared clock.  To interleave many
clients without rewriting that stack as coroutines, the engine runs
each client operation in two steps:

1. **Capture** — the operation executes immediately (its data effects
   apply atomically at operation start) against a recording block
   device: every disk request is logged together with the simulated CPU
   time accumulated since the previous one, and nothing touches the
   real drive.  Data reads and writes go straight to the block device's
   backing store, untimed, so results are exact.

2. **Replay** — the client's generator yields the captured timeline one
   step at a time: a CPU burst becomes a timer event, a disk request is
   submitted to the shared :class:`~repro.engine.diskqueue.DiskQueue`
   and the client sleeps until its completion event.  Request *i+1* is
   only submitted once request *i* completes (the synchronous stack
   would have blocked exactly there), so clients interleave at request
   granularity and contend for the one arm like real processes.

With a single client the replayed timeline is identical to the
synchronous execution — the engine is a strict generalization of the
lock-step path (``tests/test_engine.py`` pins this).

Nothing in this path is built per operation that outlives it except
the operation's :class:`OpRecord`.  Each :class:`Engine` owns one
capture device and one scratch clock for its whole life; a capture
re-arms them (a fresh request list, the clock set back to loop time)
and the device sums the operation's CPU as it records.  The record is
made when the operation starts and is the accumulator :func:`replay`
adds into — requests, queueing, retries, CPU — over every leg and
every retry of a cluster operation; the client appends it when the
operation ends.  ``tests/test_engine_replay_oracle.py`` holds this
path to the per-operation objects it replaced, field for field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import obs
from repro.blockdev.device import BLOCK_SIZE, SECTORS_PER_BLOCK, BatchedIO, BlockDevice
from repro.clock import SimClock
from repro.engine.diskqueue import DiskQueue, QueuedRequest
from repro.engine.eventloop import EventLoop
from repro.errors import InvalidArgument
from repro.faults.proxy import FaultyBlockDevice
from repro.faults.schedule import FaultSchedule
from repro.obs.metrics import Histogram
from repro.vfs.interface import FileSystem

#: One scripted client operation: a display label plus a callable that
#: receives the shared file system.
Op = Tuple[str, Callable[[FileSystem], object]]


@dataclass(slots=True)
class CapturedRequest:
    """One disk request recorded during capture."""

    op: str            # "read" | "write" | "flush"
    lba: int
    nsectors: int
    cpu_before: float  # CPU seconds since the previous request


class _CaptureDevice(BatchedIO):
    """Block-device stand-in that records requests instead of timing them.

    Data flows to and from the real device's backing store via the
    untimed ``peek``/``poke`` paths, so every byte is exact; only the
    *when* is deferred to replay.  Batched operations are planned by
    the same :class:`BatchedIO` around the real arm's position, so the
    captured request stream is the one the synchronous path would issue.

    One per engine, re-armed by :meth:`arm` for each capture; after
    :meth:`finish` its ``requests``, ``trailing_cpu`` and ``cpu_total``
    describe the operation just captured until the next :meth:`arm`.
    """

    def __init__(self, real: BlockDevice, now: float) -> None:
        self._real = real
        self.disk = real.disk      # read by BatchedIO for the arm position
        self.clock = SimClock(now)
        self.total_blocks = real.total_blocks
        self.requests: List[CapturedRequest] = []
        self.trailing_cpu = self.cpu_total = 0.0
        self._mark = now

    # -- recording ----------------------------------------------------------

    def arm(self, now: float) -> None:
        """Start a capture at loop time ``now``."""
        # The scratch clock goes *back* to the loop's time (the last
        # capture ran it ahead); SimClock's one field is set directly.
        self.clock._now = self._mark = now
        self.requests = []
        self.cpu_total = 0.0

    def _record(self, op: str, lba: int, nsectors: int) -> None:
        now = self.clock.now
        gap = now - self._mark
        self._mark = now
        # In request order: the total must round as a sum over the gaps.
        self.cpu_total += gap
        self.requests.append(CapturedRequest(op, lba, nsectors, gap))

    def finish(self) -> "_CaptureDevice":
        self.trailing_cpu = trailing = self.clock.now - self._mark
        self.cpu_total += trailing
        return self

    # -- BlockDevice surface -------------------------------------------------

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


@dataclass(slots=True)
class OpRecord:
    """One client operation, as replayed under load.

    Made when the operation starts; :func:`replay` adds each leg's
    requests, queueing, retries and CPU into it, and the client sets
    ``end`` (and ``error``) when the operation completes.
    """

    phase: str
    label: str
    client: int
    start: float
    end: float = 0.0
    n_requests: int = 0
    queue_delay: float = 0.0
    cpu_seconds: float = 0.0
    retries: int = 0             # transient disk faults absorbed
    error: Optional[str] = None  # first hard fault that aborted the op
    reads: int = 0               # of n_requests, the reads and the writes
    writes: int = 0

    @property
    def latency(self) -> float:
        return self.end - self.start


def replay(engine: "Engine", fn: Callable[[FileSystem], object],
           record: OpRecord):
    """Capture ``fn`` on ``engine`` and yield its timeline, event by event.

    The one per-request replay loop: a client generator delegates to it
    (``yield from``) once per leg of an operation, adding into the
    operation's ``record``.  Events are ``("cpu", seconds)`` and
    ``("io", (queue, CapturedRequest))``; the driver
    (:meth:`Replayer._step`) answers an ``io`` event with the completed
    :class:`QueuedRequest`.  Returns that request when it failed — the
    synchronous stack would have raised there, so the rest of the
    captured requests never issue (data effects were applied at capture
    and are not unwound: this layer models timing and outcome) — and
    ``None`` when the whole timeline replayed.  A capture-time
    exception propagates to the delegating generator.
    """
    cap = engine.capture(fn)
    # The capture device is re-armed by the next capture on this
    # engine, which may run while this timeline is still replaying.
    requests, trailing = cap.requests, cap.trailing_cpu
    record.cpu_seconds += cap.cpu_total
    queue = engine.queue
    for step in requests:
        if step.cpu_before > 0:
            yield ("cpu", step.cpu_before)
        done: QueuedRequest = yield ("io", (queue, step))
        record.n_requests += 1
        record.queue_delay += done.queue_delay
        record.retries += done.retries
        if step.op == "read":
            record.reads += 1
        elif step.op == "write":
            record.writes += 1
        if done.error is not None:
            return done
    if trailing > 0:
        yield ("cpu", trailing)
    return None


class Replayer:
    """Drives client generators over ``self.loop``: the phase starter and
    the generator driver :class:`Engine` and the cluster share.

    A client is anything with ``cid``, ``finished_at``, a ``resume``
    slot for this class to use and a ``_run_ops(ops, phase)`` generator
    built on :func:`replay`.
    """

    loop: EventLoop

    def _devices(self) -> Iterable[BlockDevice]:
        """Every block device whose clock follows the loop's."""
        raise NotImplementedError

    def run_phase(self, assignments: Dict[object, Sequence],
                  phase: str = "phase") -> float:
        """Run every client's op list concurrently; returns elapsed time.

        All clients start at the current time; the phase ends when the
        last operation (and its disk requests) completes.
        """
        if self.loop.pending:
            raise InvalidArgument("phase already running")
        start = self.loop.now
        for client, ops in assignments.items():
            gen = client._run_ops(list(ops), phase)
            # The completion callback of every request this client
            # replays in this phase: one closure, not one per request
            # (``_step`` is still looked up at each call).
            client.resume = (lambda req, client=client, gen=gen:
                             self._step(client, gen, req))
            self.loop.call_at(start, self._step, client, gen, None)
        self.loop.run()
        for device in self._devices():
            device.clock.advance_to(self.loop.now)
        return self.loop.now - start

    def _step(self, client, gen, payload) -> None:
        try:
            kind, arg = gen.send(payload)
        except StopIteration:
            client.finished_at = self.loop.now
            client.resume = None    # drops the finished generator
            return
        if kind == "cpu":
            self.loop.call_later(arg, self._step, client, gen, None)
            return
        queue, step = arg    # a captured flush is ("flush", 0, 0): a barrier
        queue.submit(step.op, step.lba, step.nsectors, client.cid,
                     client.resume)


#: Per-operation latency buckets (milliseconds) for each client's
#: registry histogram; spans the fully-cached to the heavily queued
#: regime.
LATENCY_BUCKETS_MS = (0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0)


class ClientContext:
    """One simulated process: a scripted stream of file operations.

    Its accounting fields are summed from its records by
    :meth:`_run_ops` alone; the drive's registry reads them as
    ``engine.<client>.<field>``, and counts the client's
    ``engine.<client>.latency_ms`` histogram from its records, in
    record order, when a snapshot asks.  Like every registered name, a
    client name registered again on the same drive reads the newer
    client.
    """

    def __init__(self, engine: "Engine", cid: int, name: str) -> None:
        self.engine = engine
        self.cid = cid
        self.name = name
        self.records: List[OpRecord] = []
        self.cpu_seconds = self.queue_delay = 0.0
        self.reads = self.writes = self.retries = self.io_errors = 0
        registry = engine.device.disk.registry
        registry.register("engine." + name, self, (
            "cpu_seconds", "queue_delay", "reads", "writes", "retries",
            "io_errors"))
        registry.read("engine.%s.latency_ms" % name, self._latency_ms)
        self.finished_at: Optional[float] = None
        self.resume: Optional[Callable[[QueuedRequest], None]] = None

    def _latency_ms(self) -> Dict[str, object]:
        hist = Histogram("engine.%s.latency_ms" % self.name, LATENCY_BUCKETS_MS)
        for record in self.records:
            hist.observe((record.end - record.start) * 1e3)
        return hist.value

    def latencies(self, phase: Optional[str] = None) -> List[float]:
        """Per-operation latencies, optionally restricted to one phase."""
        return [r.latency for r in self.records
                if phase is None or r.phase == phase]

    def _run_ops(self, ops: Sequence[Op], phase: str):
        """Generator of :func:`replay` events, one operation after another."""
        engine = self.engine
        clock = engine.loop.clock
        for label, fn in ops:
            record = OpRecord(phase, label, self.cid, clock.now)
            failed = yield from replay(engine, fn, record)
            record.end = clock.now
            self.cpu_seconds += record.cpu_seconds
            self.queue_delay += record.queue_delay
            self.reads += record.reads
            self.writes += record.writes
            self.retries += record.retries
            if failed is not None:
                record.error = failed.error
                self.io_errors += 1
            self.records.append(record)


class Engine(Replayer):
    """Couples one file system, one event loop and one disk queue.

    Usage::

        engine = Engine(fs, scheduler="clook")
        a = engine.add_client("alice")
        b = engine.add_client("bob")
        engine.run_sync(setup_fn)                       # lock-step section
        engine.run_phase({a: ops_a, b: ops_b}, "create")  # concurrent section
    """

    def __init__(self, fs: FileSystem, scheduler: str = "clook",
                 loop: Optional[EventLoop] = None,
                 faults: Optional["FaultSchedule"] = None) -> None:
        self.fs = fs
        self.device = fs.cache.device
        # A fault-injecting proxy exposes the full capture surface
        # (peek/poke, disk, clock); its faults fire at replay through
        # the disk queue's schedule, never during capture.
        if isinstance(self.device, FaultyBlockDevice):
            if faults is None:
                faults = self.device.schedule
        elif not isinstance(self.device, BlockDevice):
            raise InvalidArgument("engine needs a file system over a BlockDevice")
        self.loop = loop if loop is not None else EventLoop()
        # The device clock (mkfs may have advanced it) and the loop
        # clock meet at the later of the two.
        self.loop.clock.advance_to(self.device.clock.now)
        self.device.clock.advance_to(self.loop.now)
        self.queue = DiskQueue(self.loop, self.device.disk, scheduler,
                               faults=faults)
        self.device.disk.registry.read(
            "engine.events", lambda: self.loop.events_run)
        self.clients: List[ClientContext] = []
        self._capture = _CaptureDevice(self.device, self.loop.now)

    @property
    def now(self) -> float:
        return self.loop.now

    def add_client(self, name: Optional[str] = None) -> ClientContext:
        cid = len(self.clients)
        client = ClientContext(self, cid, name if name is not None else "c%02d" % cid)
        self.clients.append(client)
        return client

    # -- lock-step sections ---------------------------------------------------

    def run_sync(self, fn: Callable[[FileSystem], object]) -> object:
        """Run ``fn(fs)`` synchronously (no concurrency), on engine time.

        Used for setup and for global barriers between phases; with no
        clients active this is exactly the classic lock-step path.
        """
        if self.loop.pending:
            raise InvalidArgument("cannot run a sync section with events pending")
        self.device.clock.advance_to(self.loop.now)
        result = fn(self.fs)
        self.loop.clock.advance_to(self.device.clock.now)
        return result

    # -- concurrent sections -----------------------------------------------------

    def _devices(self) -> Iterable[BlockDevice]:
        return (self.device,)

    def capture(self, fn: Callable[[FileSystem], object]) -> _CaptureDevice:
        """Run ``fn(fs)`` against the recording device; returns it,
        holding the timeline until the next capture."""
        proxy = self._capture
        proxy.arm(self.loop.now)
        scratch = proxy.clock
        fs = self.fs
        saved_cpu_clock = fs.cpu.clock
        fs.cache.device = proxy  # type: ignore[assignment]
        fs.cpu.clock = scratch
        # Span timestamps must follow the clock the captured operation
        # actually charges, so vfs/fs/cache spans land at loop-anchored
        # times instead of freezing at the tracer's idea of "now".
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


# BLOCK_SIZE is re-exported for callers sizing per-client workloads.
__all__ = [
    "BLOCK_SIZE",
    "CapturedRequest",
    "ClientContext",
    "Engine",
    "Op",
    "OpRecord",
    "Replayer",
    "replay",
]
