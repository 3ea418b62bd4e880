"""A queued front-end over :class:`~repro.disk.drive.SimulatedDisk`.

The drive itself services one host request at a time (as the paper's
synchronous driver did).  Under multi-client load many requests can be
outstanding at once, so this layer holds them in a host-side queue and
dispatches the next one each time the drive frees up, under a pluggable
discipline:

- ``fcfs``  — submission order;
- ``sstf``  — shortest seek first (closest LBA to the arm);
- ``clook`` — the C-LOOK sweep the paper's driver applied to batches,
  here applied to the live queue.

The queue is kept in service order the way a driver's disksort keeps
it: each arrival is inserted at its place by ``(address, arrival)``
(``fcfs`` keys on arrival alone), so a dispatch is a bisect at the
drive's head estimate and a ``pop`` — no scan of what is waiting.  The
tie rules are part of the simulated result and are exact: C-LOOK takes
the lowest address at or beyond the head, else the lowest overall;
SSTF compares the two neighbours of the head, equidistant candidates
going to the earlier arrival; duplicates of one address are served in
arrival order, a requeued request arriving anew at its resubmit
(``tests/test_diskqueue_order.py`` holds the order to an
arrival-ordered reference, request for request).

Every request records its queueing delay (submit → dispatch), and the
queue integrates depth over time so experiments can report mean queue
depth alongside latency percentiles.

Flush barriers (``op == "flush"``) drain the drive's write-behind
buffer; they sort ahead of every address, earliest first, so a client's
``sync`` cannot be starved by a stream of better-placed requests.

With a :class:`~repro.faults.schedule.FaultSchedule` attached, each
dispatch consults it: a transient fault occupies the drive for the
error-report latency, then the request re-enters the queue after an
exponential backoff (a fresh dispatch gets a fresh decision); a hard
fault — or an exhausted retry budget — completes the request with its
``error`` field set, so clients degrade gracefully instead of
crashing the loop.  Requeues do not recount as submissions, keeping
``submitted == completed`` balanced; ``retried``/``failed`` count the
fault traffic separately.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs
from repro.disk.drive import SimulatedDisk
from repro.engine.eventloop import EventLoop
from repro.errors import InvalidArgument
from repro.faults.schedule import (
    ERROR_LATENCY,
    HARD,
    OK,
    RETRY_ATTEMPTS,
    FaultSchedule,
    retry_delay,
)

SCHEDULERS = ("fcfs", "sstf", "clook")

#: Histogram buckets (seconds) for the retried-request latency metric.
#: Sized around the drive's retry rule: 2 ms backoff doubling per
#: retry, plus one drive service time (~10 ms) per extra attempt.
RETRY_LATENCY_BUCKETS = (0.002, 0.005, 0.010, 0.020, 0.050,
                         0.100, 0.250, 1.000)


@dataclass(slots=True, eq=False)
class QueuedRequest:
    """One host request travelling through the queue (compared by
    identity: two submissions equal in every field are two requests)."""

    op: str                    # "read" | "write" | "flush"
    lba: int
    nsectors: int
    client: int                # issuing client id (engine bookkeeping)
    on_complete: Optional[Callable[["QueuedRequest"], None]] = None
    submit_time: float = 0.0
    first_submit_time: float = 0.0  # original submit (requeues reset submit_time)
    dispatch_time: float = 0.0
    complete_time: float = 0.0
    retries: int = 0           # transient faults survived so far
    error: Optional[str] = None  # set when the request failed for good

    @property
    def queue_delay(self) -> float:
        """Time spent waiting in the host queue before the dispatch that
        finished it (requeued attempts reset the submit mark)."""
        return self.dispatch_time - self.submit_time

    @property
    def latency(self) -> float:
        """Submit-to-completion time as the issuing client saw it."""
        return self.complete_time - self.submit_time


@dataclass
class QueueAccounting:
    """Counters the queue accumulates (diffable, like DiskStats)."""

    submitted: int = 0
    completed: int = 0
    retried: int = 0              # transient faults that led to a requeue
    failed: int = 0               # requests completed with an error
    total_queue_delay: float = 0.0
    max_depth: int = 0
    depth_area: float = 0.0       # integral of queue depth over time
    busy_time: float = 0.0        # drive front-end occupied
    span: float = 0.0             # first submit -> last completion

    @property
    def mean_queue_depth(self) -> float:
        return self.depth_area / self.span if self.span > 0 else 0.0

    @property
    def mean_queue_delay(self) -> float:
        return self.total_queue_delay / self.completed if self.completed else 0.0

    def snapshot(self) -> "QueueAccounting":
        return QueueAccounting(**vars(self))

    def delta(self, earlier: "QueueAccounting") -> "QueueAccounting":
        out = QueueAccounting()
        for name in vars(out):
            setattr(out, name, getattr(self, name) - getattr(earlier, name))
        out.max_depth = self.max_depth  # high-water mark, not a counter
        return out


class DiskQueue:
    """Admits overlapping requests; feeds the drive one at a time."""

    def __init__(
        self,
        loop: EventLoop,
        disk: SimulatedDisk,
        policy: str = "clook",
        faults: Optional[FaultSchedule] = None,
    ) -> None:
        if policy not in SCHEDULERS:
            raise InvalidArgument(
                "unknown queue policy %r; known: %s" % (policy, ", ".join(SCHEDULERS))
            )
        self.loop = loop
        self.disk = disk
        self.policy = policy
        self.faults = faults
        self.stats = QueueAccounting()
        # Waiting requests in service order: (rank, arrival, request),
        # rank -1 for a barrier, the address for a positional policy.
        self._pending: List[Tuple[int, int, QueuedRequest]] = []
        self._arrivals = itertools.count()
        self._busy = False
        self._first_submit: Optional[float] = None
        self._last_depth_mark = 0.0
        self._attempts: Dict[str, int] = {"read": 0, "write": 0}

    # -- public -------------------------------------------------------------

    def submit(
        self,
        op: str,
        lba: int,
        nsectors: int,
        client: int = 0,
        on_complete: Optional[Callable[[QueuedRequest], None]] = None,
    ) -> QueuedRequest:
        """Queue a request at the current loop time; returns it.

        ``on_complete(request)`` fires (as a loop event) when the drive
        reports host completion.
        """
        req = QueuedRequest(op=op, lba=lba, nsectors=nsectors, client=client,
                            on_complete=on_complete)
        req.submit_time = req.first_submit_time = now = self.loop.now
        if self._first_submit is None:
            self._first_submit = self._last_depth_mark = now
        self.stats.submitted += 1
        self._enqueue(req, now)
        return req

    # -- internals ------------------------------------------------------------

    def _integrate_depth(self, now: float) -> None:
        self.stats.depth_area += len(self._pending) * (now - self._last_depth_mark)
        self._last_depth_mark = now

    def _enqueue(self, req: QueuedRequest, now: float) -> None:
        """Insert an arrival (or a requeue) at its place in service order."""
        self._integrate_depth(now)
        if req.op == "flush":
            rank = -1
        else:
            rank = 0 if self.policy == "fcfs" else req.lba
        insort(self._pending, (rank, next(self._arrivals), req))
        if len(self._pending) > self.stats.max_depth:
            self.stats.max_depth = len(self._pending)
        self._try_dispatch(now)

    def _select(self) -> int:
        """Index of the next request per policy (pending is non-empty)."""
        pending = self._pending
        if self.policy == "fcfs" or pending[0][0] < 0:
            return 0                        # arrival order; barriers first
        head = self.disk.current_lba_estimate()
        ahead = bisect_left(pending, (head,))   # lowest address >= head
        if self.policy == "clook" or ahead == 0:
            return ahead if ahead < len(pending) else 0
        # SSTF: the nearest address below the head (its earliest arrival)
        # against the nearest at or above it; equidistant, earlier arrival.
        below = bisect_left(pending, (pending[ahead - 1][0],))
        if ahead == len(pending):
            return below
        lo, hi = pending[below], pending[ahead]
        return below if (head - lo[0], lo[1]) < (hi[0] - head, hi[1]) else ahead

    def _try_dispatch(self, now: float) -> None:
        if self._busy or not self._pending:
            return
        self._integrate_depth(now)
        req = self._pending.pop(self._select())[2]
        req.dispatch_time = now
        self.stats.total_queue_delay += now - req.submit_time

        if self.faults is not None and req.op in ("read", "write"):
            index = self._attempts[req.op]
            self._attempts[req.op] = index + 1
            decision = self.faults.decide(req.op, index)
            if decision.kind != OK:
                # The drive is occupied for the time it takes to report
                # the error, but no media transfer happens.
                completion = req.dispatch_time + ERROR_LATENCY
                self._busy = True
                self.stats.busy_time += ERROR_LATENCY
                if decision.kind == HARD or req.retries + 1 >= RETRY_ATTEMPTS:
                    req.error = (
                        "hard %s fault at lba %d" % (req.op, req.lba)
                        if decision.kind == HARD
                        else "%s at lba %d failed after %d attempts"
                        % (req.op, req.lba, req.retries + 1)
                    )
                    self.stats.failed += 1
                    self.loop.call_at(completion, self._complete, req)
                else:
                    req.retries += 1
                    self.stats.retried += 1
                    obs.count("queue.retried")
                    obs.count("queue.retried.%s" % req.op)
                    self.loop.call_at(completion, self._release_and_requeue, req)
                return

        # Service against the drive's private clock.  Dispatch times are
        # non-decreasing (the loop processes events in time order), so
        # the drive clock moves monotonically.
        drive_clock = self.disk.clock
        drive_clock.advance_to(req.dispatch_time)
        if req.op == "read":
            self.disk.read(req.lba, req.nsectors)
        elif req.op == "write":
            self.disk.write(req.lba, req.nsectors)
        elif req.op == "flush":
            self.disk.flush_write_buffer()
        else:
            raise InvalidArgument("unknown request op %r" % req.op)
        completion = drive_clock.now

        self._busy = True
        self.stats.busy_time += completion - req.dispatch_time
        self.loop.call_at(completion, self._complete, req)

    def _release_and_requeue(self, req: QueuedRequest) -> None:
        """Free the drive after a transient fault; resubmit after backoff."""
        self._busy = False
        self.loop.call_later(retry_delay(req.retries - 1), self._resubmit, req)
        self._try_dispatch(self.loop.now)

    def _resubmit(self, req: QueuedRequest) -> None:
        # Not a new submission for accounting purposes, but the queue
        # delay of this attempt starts fresh and it arrives anew.
        req.submit_time = now = self.loop.now
        self._enqueue(req, now)

    def _complete(self, req: QueuedRequest) -> None:
        req.complete_time = now = self.loop.now
        self.stats.completed += 1
        if obs.enabled():
            # One queue-layer span per request, covering the client-visible
            # submit -> complete interval (service time + queueing delay).
            obs.record("queue", req.op, req.submit_time, now,
                       client=req.client, lba=req.lba, nsectors=req.nsectors,
                       queue_delay=req.queue_delay, retries=req.retries,
                       error=req.error)
            obs.count("queue.completed")
            if req.error is not None:
                obs.count("queue.failed")
            if req.retries > 0:
                # End-to-end latency of requests that survived at least one
                # transient fault: original submit -> final completion, so
                # backoff sleeps and every extra service attempt count.
                obs.observe("queue.retry_latency", now - req.first_submit_time,
                            buckets=RETRY_LATENCY_BUCKETS)
        self.stats.span = now - self._first_submit
        self._busy = False
        self._try_dispatch(now)
        if req.on_complete is not None:
            req.on_complete(req)
