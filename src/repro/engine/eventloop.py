"""A deterministic discrete-event loop over :class:`~repro.clock.SimClock`.

Single-client experiments advance time lock-step: each operation runs
to completion before the next begins, and the shared clock simply moves
forward through the call stack.  Multi-client runs cannot work that way
— client B's request may be issued while client A's is still in
service — so the engine drives time from a priority queue of
timestamped events instead.

Determinism is load-bearing: two runs with identical inputs must
produce identical simulated timelines (it is what makes the results
reproducible and the tests meaningful).  Ties in event time are broken
by scheduling order, never by object identity or hash order.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Tuple

from repro import obs
from repro.clock import SimClock
from repro.errors import InvalidArgument


class EventLoop:
    """A timestamp-ordered callback queue driving a :class:`SimClock`.

    Events scheduled for the same instant run in the order they were
    scheduled (FIFO), which keeps runs reproducible.
    """

    def __init__(self) -> None:
        self.clock = SimClock()
        self._heap: List[Tuple[float, int, Callable, tuple]] = []
        self._seq = itertools.count()
        self.events_run = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self.clock.now

    def call_at(self, when: float, callback: Callable, *args: Any) -> None:
        """Schedule ``callback(*args)`` at absolute time ``when``.

        Times in the past are clamped to ``now`` (the event runs at the
        current instant, after events already scheduled for it).
        """
        now = self.clock.now
        if when < now:
            when = now
        heapq.heappush(self._heap, (when, next(self._seq), callback, args))

    def call_later(self, delay: float, callback: Callable, *args: Any) -> None:
        """Schedule ``callback(*args)`` after ``delay`` seconds."""
        if delay < 0:
            raise InvalidArgument("cannot schedule an event in the past: %r" % delay)
        # Never in the past, so none of call_at's clamping.
        heapq.heappush(self._heap, (self.clock.now + delay, next(self._seq),
                                    callback, args))

    @property
    def pending(self) -> int:
        return len(self._heap)

    def run(self) -> float:
        """Process events in time order until none remain.

        Returns the final simulated time.  Callbacks may schedule
        further events; the loop keeps going until the queue drains.
        """
        # Dispatch with hoisted locals, counting events in a local and
        # publishing once at the end: the engine.events counter is only
        # observed through registry snapshots taken between runs, so
        # batching the update is invisible to metrics consumers while
        # removing two attribute walks and a counter lookup per event.
        heap = self._heap
        pop = heapq.heappop
        advance_to = self.clock.advance_to
        ran = 0
        try:
            while heap:
                when, _seq, callback, args = pop(heap)
                advance_to(when)
                ran += 1
                callback(*args)
        finally:
            self.events_run += ran
            if ran:
                obs.count("engine.events", ran)
        return self.clock.now
