"""Cross-layer observability: tracing spans, metrics, exporters.

This package is the measurement substrate for the whole stack.  Every
layer — vfs, the file systems, the buffer cache, the engine, the drive
— may import it (reprolint's L001 DAG lists ``obs`` next to ``clock``
and ``errors``); ``obs`` itself depends only on those two utility
modules, so it can never create a layering cycle.

Instrumented code talks to the *installed* tracer through the
module-level helpers below.  With no tracer installed (the default),
``span`` returns the shared :data:`~repro.obs.tracer.NULL_SPAN`
singleton and ``record``/``incr`` return immediately — no span
objects, no clock reads, no timestamps — so permanent instrumentation
costs effectively nothing in untraced runs::

    from repro import obs

    with obs.span("vfs", "create", path=path):
        ...                       # timed when tracing, free when not
    obs.record("disk", "read", start, end, lba=lba)   # event-driven style

A run that wants traces installs a tracer around the workload::

    tracer = obs.Tracer(clock=fs.cache.device.clock)
    obs.install(tracer)
    try:
        run_workload(fs)
    finally:
        obs.uninstall()
    obs.write_export(tracer, "trace.json", "chrome")

A tracer holds spans only.  Counts live in the fields of the layer that
counts them and are read through the drive's
:class:`~repro.obs.metrics.MetricsRegistry`
(``obs.write_metrics(device.disk.registry, "metrics.json")``), traced or
not.

See ``docs/OBSERVABILITY.md`` for the span model, metric naming rules
and the export formats.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.clock import SimClock
from repro.obs.export import (
    FORMATS,
    export,
    export_chrome,
    export_flame,
    export_jsonl,
    write_export,
    write_metrics,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Number,
    Stats,
)
from repro.obs.tracer import NULL_SPAN, Span, Tracer, _NullSpan, span_name

__all__ = [
    "FORMATS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "Span",
    "Stats",
    "Tracer",
    "active",
    "enabled",
    "export",
    "export_chrome",
    "export_flame",
    "export_jsonl",
    "incr",
    "install",
    "record",
    "span",
    "span_name",
    "uninstall",
    "write_export",
    "write_metrics",
]

# The installed tracer.  Module-level on purpose: instrumentation sits
# in hot paths across every layer, and one ``is None`` test is the
# entire disabled-path cost.
_tracer: Optional[Tracer] = None


def install(tracer: Tracer) -> Tracer:
    """Make ``tracer`` the destination of all instrumentation; returns it."""
    global _tracer
    _tracer = tracer
    return tracer


def uninstall() -> Optional[Tracer]:
    """Disable tracing; returns the tracer that was installed, if any."""
    global _tracer
    tracer, _tracer = _tracer, None
    return tracer


def active() -> Optional[Tracer]:
    """The installed tracer, or None when tracing is off."""
    return _tracer


def enabled() -> bool:
    return _tracer is not None


def span(layer: str, op: str, clock: Optional[SimClock] = None,
         **attrs: object) -> Union[Span, _NullSpan]:
    """A context-manager span on the installed tracer (no-op when off)."""
    if _tracer is None:
        return NULL_SPAN
    return _tracer.span(layer, op, clock, **attrs)


def record(layer: str, op: str, start: float, end: float,
           **attrs: object) -> None:
    """Record a pre-timed span on the installed tracer (no-op when off)."""
    if _tracer is not None:
        _tracer.record(layer, op, start, end, **attrs)


def incr(counter: str, delta: Number = 1) -> None:
    """Bump a counter on the innermost open span (no-op when off)."""
    if _tracer is not None:
        _tracer.incr(counter, delta)

