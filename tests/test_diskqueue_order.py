"""Differential oracle for the disk queue's dispatch order.

The queue's container and selection are free to change; *which request
the drive sees next* is not — every simulated number downstream of the
engine hangs off that order.  So the order is pinned against a
reference written the slow, obvious way: an arrival-ordered list,
rescanned on every dispatch by the selection functions
``blockdev/scheduler`` used to export (``clook_next`` / ``sstf_next``,
kept here verbatim).  Seeded scripts drive a real :class:`DiskQueue`
and a :class:`ReferenceQueue` over two identical drives with the corners
that break a sorted container: duplicate addresses, requests exactly at
the head, bursts wholly below it (the wrap), interleaved flush
barriers, submissions made from inside ``on_complete``, and transient
and hard faults (a requeued request re-arrives at its resubmit).  The
two completion logs must agree float for float.
"""

import itertools
import random

import pytest

from repro.blockdev.device import BlockDevice
from repro.engine import DiskQueue, EventLoop
from repro.engine.diskqueue import SCHEDULERS, QueuedRequest
from repro.faults.schedule import (
    ERROR_LATENCY,
    HARD,
    OK,
    RETRY_ATTEMPTS,
    retry_delay,
)
from tests.conftest import TEST_PROFILE, PinnedFaults, queue_depth

SEEDS = range(12)


# -- the oracle: verbatim from blockdev/scheduler.py before PR 17 ------------------


def sstf_next(addresses, head_position):
    """Index of the Shortest-Seek-Time-First choice among ``addresses``.

    Picks the address closest to the head; ties (equidistant above and
    below, or duplicates) go to the earliest-submitted entry so queue
    behaviour stays deterministic.
    """
    if not addresses:
        raise ValueError("cannot select from an empty queue")
    best = 0
    best_dist = abs(addresses[0] - head_position)
    for i in range(1, len(addresses)):
        dist = abs(addresses[i] - head_position)
        if dist < best_dist:
            best, best_dist = i, dist
    return best


def clook_next(addresses, head_position):
    """Index of the C-LOOK choice among ``addresses``.

    The lowest address at or beyond the head is served next; when none
    remains ahead of the head, the sweep wraps to the lowest address
    overall.  Ties go to the earliest-submitted entry.
    """
    if not addresses:
        raise ValueError("cannot select from an empty queue")
    best = -1
    best_addr = None
    for i, addr in enumerate(addresses):
        if addr >= head_position and (best_addr is None or addr < best_addr):
            best, best_addr = i, addr
    if best >= 0:
        return best
    for i, addr in enumerate(addresses):
        if best_addr is None or addr < best_addr:
            best, best_addr = i, addr
    return best


class ReferenceQueue:
    """The queue reduced to what decides order and time.

    ``waiting`` is in arrival order (a requeue re-arrives at its
    resubmit) and every dispatch rescans it: first barrier, else the
    policy's pick at the drive's head estimate.
    """

    def __init__(self, loop, disk, policy, faults=None):
        self.loop, self.disk, self.policy = loop, disk, policy
        self.faults = faults
        self.waiting = []
        self.busy = False
        self.attempts = {"read": 0, "write": 0}
        self.max_depth = 0
        self.depth_area = 0.0
        self._mark = None

    def _integrate(self):
        now = self.loop.now
        if self._mark is not None:
            self.depth_area += len(self.waiting) * (now - self._mark)
        self._mark = now

    def submit(self, op, lba, nsectors, client=0, on_complete=None):
        req = QueuedRequest(op, lba, nsectors, client, on_complete)
        req.submit_time = req.first_submit_time = self.loop.now
        self._arrive(req)
        return req

    def _arrive(self, req):
        self._integrate()
        self.waiting.append(req)
        self.max_depth = max(self.max_depth, len(self.waiting))
        self._dispatch()

    def _pick(self):
        for i, req in enumerate(self.waiting):
            if req.op == "flush":
                return i
        if self.policy == "fcfs":
            return 0
        choose = sstf_next if self.policy == "sstf" else clook_next
        return choose([req.lba for req in self.waiting],
                      self.disk.current_lba_estimate())

    def _dispatch(self):
        if self.busy or not self.waiting:
            return
        i = self._pick()
        self._integrate()
        req = self.waiting.pop(i)
        now = req.dispatch_time = self.loop.now
        self.busy = True
        if self.faults is not None and req.op != "flush":
            index = self.attempts[req.op]
            self.attempts[req.op] = index + 1
            kind = self.faults.decide(req.op, index).kind
            if kind != OK:
                reported = now + ERROR_LATENCY
                if kind == HARD or req.retries + 1 >= RETRY_ATTEMPTS:
                    req.error = "failed"
                    self.loop.call_at(reported, self._complete, req)
                else:
                    req.retries += 1
                    self.loop.call_at(reported, self._requeue, req)
                return
        clock = self.disk.clock
        clock.advance_to(now)
        if req.op == "read":
            self.disk.read(req.lba, req.nsectors)
        elif req.op == "write":
            self.disk.write(req.lba, req.nsectors)
        else:
            self.disk.flush_write_buffer()
        self.loop.call_at(clock.now, self._complete, req)

    def _requeue(self, req):
        self.busy = False
        self.loop.call_later(retry_delay(req.retries - 1),
                             self._rearrive, req)
        self._dispatch()

    def _rearrive(self, req):
        req.submit_time = self.loop.now
        self._arrive(req)

    def _complete(self, req):
        req.complete_time = self.loop.now
        self.busy = False
        self._dispatch()
        if req.on_complete is not None:
            req.on_complete(req)


# -- the script ---------------------------------------------------------------------

#: A dense neighbourhood (duplicates, same-cylinder neighbours) plus
#: addresses spread over the whole 25 600-sector test drive.
_POOL = [8 * i for i in range(40)] + list(range(900, 25000, 1700))


#: Write attempts 8 .. 8 + 4 * RETRY_ATTEMPTS all fail transiently: a
#: write dispatched early in that run keeps failing until its retries
#: run out, a corner the seeded rate alone almost never reaches.
_EXHAUST_FROM, _EXHAUST_RUN = 8, 4 * RETRY_ATTEMPTS


def _faults(seed):
    """One hard and one pinned transient fault, plus a run of transient
    write faults, on top of a seeded rate; every third seed runs with no
    schedule attached at all."""
    if seed % 3 == 0:
        return None
    schedule = (PinnedFaults(seed=seed, transient_rate=0.12)
                .fail_read(3, transient=True).fail_write(5))
    for index in range(_EXHAUST_FROM, _EXHAUST_FROM + _EXHAUST_RUN):
        schedule.fail_write(index, transient=True)
    return schedule


def _run_script(make_queue, policy, seed):
    """Drive one queue with the script of ``seed``; returns (queue, log)."""
    disk = BlockDevice(TEST_PROFILE).disk
    loop = EventLoop()
    queue = make_queue(loop, disk, policy, faults=_faults(seed))
    rng = random.Random(seed)
    tags = itertools.count()
    log = []

    def submit(generation):
        tag = next(tags)

        def done(req):
            log.append((tag, req.op, req.lba, req.submit_time,
                        req.dispatch_time, req.complete_time, req.retries,
                        req.error is not None))
            # Follow-ups land while the next dispatch is already chosen.
            if generation < 2 and rng.random() < 0.35:
                for _ in range(rng.randint(1, 3)):
                    submit(generation + 1)

        roll = rng.random()
        if roll < 0.07:
            queue.submit("flush", 0, 0, tag % 5, done)   # a sync barrier
            return
        head = disk.current_lba_estimate()
        if roll < 0.17:
            lba = head                              # exactly at the head
        elif roll < 0.32 and head > 0:
            lba = rng.randrange(0, head, 8)         # below it: the wrap
        else:
            lba = rng.choice(_POOL)                 # duplicates, neighbours
        queue.submit(rng.choice(("read", "read", "write")), lba, 8,
                     tag % 5, done)

    def burst(n):
        for _ in range(n):
            submit(0)

    when = 0.0
    for _ in range(10):
        loop.call_at(when, burst, rng.choice((1, 2, 6, 25)))
        when += rng.choice((0.0, 0.004, 0.05, 0.4))
    loop.run()
    return queue, log


@pytest.mark.parametrize("policy", SCHEDULERS)
@pytest.mark.parametrize("seed", SEEDS)
def test_dispatch_order_matches_the_reference(policy, seed):
    queue, log = _run_script(DiskQueue, policy, seed)
    reference, expected = _run_script(ReferenceQueue, policy, seed)
    assert log == expected
    assert len(log) == queue.stats.submitted == queue.stats.completed
    assert queue_depth(queue) == 0 and not reference.waiting
    assert queue.stats.max_depth == reference.max_depth
    assert queue.stats.depth_area == reference.depth_area


def test_the_script_reaches_the_corners():
    """The oracle is only as good as its script: over the seeds it must
    requeue, fail for good (on a hard fault and on running out of
    retries), wrap, queue duplicates and jump a barrier."""
    retried = failed = exhausted = barriers = duplicates = wraps = deep = 0
    for seed in SEEDS:
        reference, log = _run_script(ReferenceQueue, "clook", seed)
        retried += sum(entry[6] for entry in log)
        failed += sum(entry[7] for entry in log)
        exhausted += sum(entry[7] and entry[6] == RETRY_ATTEMPTS - 1
                         for entry in log)
        barriers += sum(entry[1] == "flush" for entry in log)
        lbas = [entry[2] for entry in log if entry[1] != "flush"]
        duplicates += len(lbas) - len(set(lbas))
        wraps += sum(b < a for a, b in zip(lbas, lbas[1:]))
        deep = max(deep, reference.max_depth)
    assert retried >= 100 and failed >= 5 and barriers >= 100
    assert exhausted >= 5 and failed - exhausted >= 5
    assert duplicates >= 1000 and wraps >= 200 and deep >= 50
