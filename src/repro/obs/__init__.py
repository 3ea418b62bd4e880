"""Cross-layer observability: tracing spans, metrics, exporters.

This package is the measurement substrate for the whole stack.  Every
layer — vfs, the file systems, the buffer cache, the engine, the drive
— may import it (reprolint's L001 DAG lists ``obs`` next to ``clock``
and ``errors``); ``obs`` itself depends only on those two utility
modules, so it can never create a layering cycle.

Instrumented code talks to the *installed* tracer through the
module-level helpers below.  With no tracer installed (the default), a
:func:`traced` method tests that once and runs its body, ``span``
returns the shared :data:`~repro.obs.tracer.NULL_SPAN` singleton and
``record``/``incr`` return immediately — no span objects, no clock
reads, no timestamps — so permanent instrumentation costs effectively
nothing in untraced runs::

    from repro import obs

    @obs.traced("vfs", "read", lambda self, fd, size: {"size": size})
    def read(self, fd, size):     # the whole method is one span
        ...
        obs.incr("bytes", len(data))  # counter of the innermost span
    with obs.span("workload", "read", files=n):
        ...                       # a region inside a function
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

import functools
import inspect
import sys
from typing import Callable, Dict, Optional, TypeVar, Union

from repro.errors import InvalidArgument
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
    "traced",
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


def span(layer: str, op: str, **attrs: object) -> Union[Span, _NullSpan]:
    """A context-manager span on the installed tracer (no-op when off)."""
    if _tracer is None:
        return NULL_SPAN
    return _tracer.span(layer, op, **attrs)


def record(layer: str, op: str, start: float, end: float,
           **attrs: object) -> None:
    """Record a pre-timed span on the installed tracer (no-op when off)."""
    if _tracer is not None:
        _tracer.record(layer, op, start, end, **attrs)


def incr(counter: str, delta: Number = 1) -> None:
    """Bump a counter on the innermost open span (no-op when off)."""
    if _tracer is not None:
        _tracer.incr(counter, delta)


_F = TypeVar("_F", bound=Callable)

# The wrapper ``traced`` compiles per body: it takes the body's own
# parameters, so an untraced call packs no ``*args`` tuple.  Compiled
# under this file's name and line numbers, its frames show here in
# tracebacks and profiles.
_WRAPPER_LINE = sys._getframe().f_lineno + 2
_WRAPPER = """\
def _wrap(_body, _layer, _op, _attrs):
    def wrapper({params}):
        _t = _tracer
        if _t is None:
            return _body({params})
        with Span(_t, _layer, _op, {attrs}):
            return _body({params})
    return wrapper
"""
_WRAPPER_NAMES = {"_body", "_layer", "_op", "_attrs", "_t", "_tracer", "Span"}


def traced(layer: str, op: str,
           attrs: Optional[Callable[..., Dict[str, object]]] = None,
           ) -> Callable[[_F], _F]:
    """Declare a function one ``layer.op`` span.

    Untraced, the function tests the installed tracer once and calls its
    body; ``attrs`` is never called.  Traced, the body runs inside a
    span whose attributes are ``attrs(<the call's arguments>)`` (none
    when ``attrs`` is None), and ``incr`` in the body bumps its
    counters.  The body's parameters must be plain positional ones;
    their names and defaults, ``__name__`` and ``__doc__`` carry over.
    """

    def decorate(body: _F) -> _F:
        code = body.__code__
        params = code.co_varnames[:code.co_argcount]
        if (code.co_posonlyargcount or code.co_kwonlyargcount
                or code.co_flags & (inspect.CO_VARARGS | inspect.CO_VARKEYWORDS)
                or _WRAPPER_NAMES.intersection(params)):
            raise InvalidArgument(
                "obs.traced: %s needs plain positional parameters"
                % body.__qualname__)
        arglist = ", ".join(params)
        source = _WRAPPER.format(
            params=arglist,
            attrs="None" if attrs is None else "_attrs(%s)" % arglist)
        namespace: Dict[str, Callable] = {}
        exec(compile("\n" * (_WRAPPER_LINE - 1) + source, __file__, "exec"),
             globals(), namespace)
        wrapper = namespace["_wrap"](body, layer, op, attrs)
        wrapper.__defaults__ = body.__defaults__
        return functools.update_wrapper(wrapper, body)  # type: ignore[return-value]

    return decorate
