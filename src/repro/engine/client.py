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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro import obs
from repro.blockdev.device import BLOCK_SIZE, SECTORS_PER_BLOCK, BatchedIO, BlockDevice
from repro.clock import SimClock
from repro.obs.metrics import MetricsRegistry
from repro.engine.diskqueue import DiskQueue, QueuedRequest
from repro.engine.eventloop import EventLoop
from repro.errors import InvalidArgument
from repro.faults.proxy import FaultyBlockDevice
from repro.faults.schedule import FaultSchedule
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


@dataclass
class CapturedOp:
    """The timed skeleton of one file-system operation."""

    requests: List[CapturedRequest] = field(default_factory=list)
    trailing_cpu: float = 0.0

    @property
    def cpu_total(self) -> float:
        return sum(r.cpu_before for r in self.requests) + self.trailing_cpu


class _CaptureDevice(BatchedIO):
    """Block-device stand-in that records requests instead of timing them.

    Data flows to and from the real device's backing store via the
    untimed ``peek``/``poke`` paths, so every byte is exact; only the
    *when* is deferred to replay.  Batched operations are planned by
    the same :class:`BatchedIO` around the real arm's position, so the
    captured request stream is the one the synchronous path would issue.
    """

    def __init__(self, real: BlockDevice, scratch_clock: SimClock) -> None:
        self._real = real
        self.disk = real.disk      # read by BatchedIO for the arm position
        self.clock = scratch_clock
        self.total_blocks = real.total_blocks
        self.captured = CapturedOp()
        self._mark = scratch_clock.now

    # -- recording ----------------------------------------------------------

    def _record(self, op: str, lba: int, nsectors: int) -> None:
        gap = self.clock.now - self._mark
        self._mark = self.clock.now
        self.captured.requests.append(CapturedRequest(op, lba, nsectors, gap))

    def finish(self) -> CapturedOp:
        self.captured.trailing_cpu = self.clock.now - self._mark
        return self.captured

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


@dataclass
class OpRecord:
    """One completed client operation, as replayed under load."""

    phase: str
    label: str
    client: int
    start: float
    end: float
    n_requests: int
    queue_delay: float
    cpu_seconds: float
    retries: int = 0             # transient disk faults absorbed
    error: Optional[str] = None  # first hard fault that aborted the op

    @property
    def latency(self) -> float:
        return self.end - self.start


class OpTally:
    """What one client operation has cost so far, summed over every leg
    and every attempt :func:`replay` ran for it."""

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


def replay(engine: "Engine", fn: Callable[[FileSystem], object],
           tally: OpTally):
    """Capture ``fn`` on ``engine`` and yield its timeline, event by event.

    The one per-request replay loop: a client generator delegates to it
    (``yield from``) once per leg of an operation.  Events are
    ``("cpu", seconds)`` and ``("io", (queue, CapturedRequest))``; the
    driver (:meth:`Replayer._step`) answers an ``io`` event with the
    completed :class:`QueuedRequest`.  Returns that request when it
    failed — the synchronous stack would have raised there, so the rest
    of the captured requests never issue (data effects were applied at
    capture and are not unwound: this layer models timing and outcome)
    — and ``None`` when the whole timeline replayed.  A capture-time
    exception propagates to the delegating generator.
    """
    cap = engine.capture(fn)
    tally.cpu_seconds += cap.cpu_total
    queue = engine.queue
    for step in cap.requests:
        if step.cpu_before > 0:
            yield ("cpu", step.cpu_before)
        done: QueuedRequest = yield ("io", (queue, step))
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


#: Per-operation latency buckets (milliseconds) for the registry
#: histogram each client feeds; spans the fully-cached to the heavily
#: queued regime.
LATENCY_BUCKETS_MS = (0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0)

#: ClientContext accounting fields backed by the engine's registry.
_CLIENT_FIELDS = ("cpu_seconds", "queue_delay", "reads", "writes",
                  "retries", "io_errors")


class ClientContext:
    """One simulated process: a scripted stream of file operations.

    Accounting lives in the engine's metrics registry under
    ``engine.<client>.<field>`` names (``_CLIENT_FIELDS``): the counters
    are bound once here and only :meth:`_run_ops` increments them, so
    ``repro multiclient --trace`` exports the same numbers the report
    tables print.
    """

    def __init__(self, engine: "Engine", cid: int, name: str) -> None:
        self.engine = engine
        self.cid = cid
        self.name = name
        self.records: List[OpRecord] = []
        prefix = "engine.%s." % name
        self._counters = {field_name: engine.metrics.counter(prefix + field_name)
                          for field_name in _CLIENT_FIELDS}
        self._latency_ms = engine.metrics.histogram(
            prefix + "latency_ms", LATENCY_BUCKETS_MS)
        self.finished_at: Optional[float] = None
        self.resume: Optional[Callable[[QueuedRequest], None]] = None

    def latencies(self, phase: Optional[str] = None) -> List[float]:
        """Per-operation latencies, optionally restricted to one phase."""
        return [r.latency for r in self.records
                if phase is None or r.phase == phase]

    def _run_ops(self, ops: Sequence[Op], phase: str):
        """Generator of :func:`replay` events, one operation after another."""
        clock = self.engine.loop.clock
        (cpu_seconds, queue_delay, reads, writes, retries,
         io_errors) = self._counters.values()     # in _CLIENT_FIELDS order
        for label, fn in ops:
            start = clock.now
            tally = OpTally()
            failed = yield from replay(self.engine, fn, tally)
            error = failed.error if failed is not None else None
            end = clock.now
            cpu_seconds.inc(tally.cpu_seconds)
            queue_delay.inc(tally.queue_delay)
            reads.inc(tally.reads)
            writes.inc(tally.writes)
            retries.inc(tally.retries)
            if error is not None:
                io_errors.inc()
            self._latency_ms.observe((end - start) * 1e3)
            self.records.append(
                tally.record(phase, label, self.cid, start, end, error))


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
                 faults: Optional["FaultSchedule"] = None,
                 metrics: Optional[MetricsRegistry] = None) -> None:
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
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # The device clock (mkfs may have advanced it) and the loop
        # clock meet at the later of the two.
        self.loop.clock.advance_to(self.device.clock.now)
        self.device.clock.advance_to(self.loop.now)
        self.queue = DiskQueue(self.loop, self.device.disk, scheduler,
                               faults=faults)
        self.clients: List[ClientContext] = []

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

    def capture(self, fn: Callable[[FileSystem], object]) -> CapturedOp:
        """Run ``fn(fs)`` against the recording device; returns its timeline."""
        scratch = SimClock(self.loop.now)
        proxy = _CaptureDevice(self.device, scratch)
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
    "CapturedOp",
    "CapturedRequest",
    "ClientContext",
    "Engine",
    "Op",
    "OpRecord",
    "OpTally",
    "Replayer",
    "replay",
]
