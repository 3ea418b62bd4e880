"""Simulated-clock tracing spans.

A :class:`Span` is one timed region of the causal chain — a syscall at
the vfs layer, a name lookup in the file system, a buffer-cache miss, a
queued request, a platter access.  Spans nest: the tracer keeps a stack,
so a ``disk`` span recorded while a ``vfs`` span is open becomes its
child, and the export shows the full syscall-to-platter chain.

Two stamping styles cover the two execution styles in this repository:

- synchronous code opens a span as a context manager
  (``with tracer.span("vfs", "create", path=p): ...``); enter and exit
  are stamped from the tracer's :class:`~repro.clock.SimClock`;
- event-driven code (the disk queue, the drive model) already knows a
  region's absolute start and end on its own clock and records the
  finished span in one call (:meth:`Tracer.record`).

Wall clock never appears: every timestamp is simulated seconds, which
is what makes two identical seeded runs export byte-identically.

The disabled path is a module-level no-op: :data:`NULL_SPAN` is a
singleton that enters and exits without reading any clock or allocating
any object, so instrumentation costs nothing when no tracer is
installed (see :mod:`repro.obs`).
"""

from __future__ import annotations

import sys
from typing import Dict, List, Optional, Tuple

from repro.clock import SimClock
from repro.errors import InvalidArgument
from repro.obs.metrics import Number

#: Interned ``"layer.op"`` names, keyed by the (layer, op) pair.  Span
#: names draw from a small fixed vocabulary but are read on every hot
#: path (exporters, span-count assertions, out-of-order diagnostics);
#: interning means each distinct name is formatted and hashed once for
#: the life of the process, and repeated reads return the same object.
_NAME_CACHE: Dict[Tuple[str, str], str] = {}


def span_name(layer: str, op: str) -> str:
    """The interned ``"layer.op"`` display name for a span."""
    key = (layer, op)
    name = _NAME_CACHE.get(key)
    if name is None:
        name = sys.intern("%s.%s" % (layer, op))
        _NAME_CACHE[key] = name
    return name


class Span:
    """One timed, attributed region of execution."""

    __slots__ = ("tracer", "span_id", "parent_id", "layer", "op", "start",
                 "end", "attrs", "counters")

    def __init__(self, tracer: "Tracer", layer: str, op: str,
                 attrs: Optional[Dict[str, object]] = None) -> None:
        self.tracer = tracer
        self.span_id = -1            # assigned on enter, in enter order
        self.parent_id: Optional[int] = None
        self.layer = layer
        self.op = op
        self.start = 0.0
        self.end = 0.0
        self.attrs: Dict[str, object] = dict(attrs) if attrs else {}
        self.counters: Dict[str, Number] = {}

    @property
    def name(self) -> str:
        return span_name(self.layer, self.op)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def incr(self, counter: str, delta: Number = 1) -> None:
        """Bump a span-local counter (e.g. blocks fetched in this span)."""
        self.counters[counter] = self.counters.get(counter, 0) + delta

    # -- context manager ------------------------------------------------------

    def __enter__(self) -> "Span":
        self.tracer._enter(self)
        return self

    def __exit__(self, *exc: object) -> None:
        self.tracer._exit(self)


class _NullSpan:
    """The shared no-op span: zero clock reads, zero allocations.

    All tracer and span operations are accepted and ignored, so
    instrumented code runs unchanged with tracing off.  The singleton is
    stateless and therefore safely re-entrant.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        pass

    def incr(self, counter: str, delta: Number = 1) -> None:
        pass


#: The singleton no-op span handed out while tracing is disabled.
NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans stamped from a shared simulated clock.

    A tracer holds spans and nothing else: counts live in the fields of
    the layers that keep them (see :mod:`repro.obs.metrics`).

    ``clock`` is any object with a ``.now`` float property — normally
    the run's :class:`~repro.clock.SimClock`.  The engine rebinds it
    around capture sections (see ``Engine.capture``) so span timestamps
    follow whichever clock the instrumented code is actually charging.

    ``context(**attrs)`` pushes attributes applied to every span started
    while it is open (phase names, client ids), letting exports slice
    spans without threading labels through every call site.
    """

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        self.spans: List[Span] = []          # finished spans, completion order
        self._stack: List[Span] = []
        self._next_id = 0
        self._context: List[Dict[str, object]] = []

    # -- span creation --------------------------------------------------------

    def span(self, layer: str, op: str, **attrs: object) -> Span:
        """A new unstarted span; use as a context manager to time it."""
        return Span(self, layer, op, attrs or None)

    def record(self, layer: str, op: str, start: float, end: float,
               **attrs: object) -> Span:
        """Record an already-timed span (event-driven instrumentation).

        The span parents under the currently open span, if any.
        """
        span = Span(self, layer, op, attrs or None)
        span.span_id = self._next_id
        self._next_id += 1
        if self._stack:
            span.parent_id = self._stack[-1].span_id
        for ctx in self._context:
            for key, value in ctx.items():
                span.attrs.setdefault(key, value)
        span.start = start
        span.end = end
        self.spans.append(span)
        return span

    def context(self, **attrs: object) -> "_TracerContext":
        """Apply ``attrs`` to every span started inside the with-block."""
        return _TracerContext(self, attrs)

    # -- state ----------------------------------------------------------------

    def incr(self, counter: str, delta: Number = 1) -> None:
        """Bump a counter on the innermost open span (no-op at top level)."""
        if self._stack:
            self._stack[-1].incr(counter, delta)

    # -- internals used by Span -----------------------------------------------

    def _enter(self, span: Span) -> None:
        span.span_id = self._next_id
        self._next_id += 1
        if self._stack:
            span.parent_id = self._stack[-1].span_id
        for ctx in self._context:
            for key, value in ctx.items():
                span.attrs.setdefault(key, value)
        span.start = self.clock.now
        self._stack.append(span)

    def _exit(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise InvalidArgument(
                "span %r closed out of order (open: %s)"
                % (span.name, [s.name for s in self._stack]))
        span.end = self.clock.now
        self._stack.pop()
        self.spans.append(span)


class _TracerContext:
    """Context-manager pushing default attributes onto new spans."""

    __slots__ = ("_tracer", "_attrs")

    def __init__(self, tracer: Tracer, attrs: Dict[str, object]) -> None:
        self._tracer = tracer
        self._attrs = attrs

    def __enter__(self) -> "_TracerContext":
        self._tracer._context.append(self._attrs)
        return self

    def __exit__(self, *exc: object) -> None:
        self._tracer._context.pop()
