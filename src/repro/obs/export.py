"""Span exporters: Chrome trace-event JSON, JSONL, text flamegraph.

All three exporters are deterministic functions of the tracer's span
list: spans are serialized in (start, span_id) order, floats are
rounded to fixed precision, and dict keys are sorted — so two identical
seeded runs export byte-identical artifacts (pinned by
``tests/test_obs.py``).

- **chrome**: the Trace Event Format understood by ``chrome://tracing``
  and https://ui.perfetto.dev (load the file directly).  Spans become
  complete ("X") events; timestamps are microseconds of simulated time;
  the track (``tid``) is the span's ``client`` attribute when present,
  so multi-client runs get one lane per client.
- **jsonl**: one JSON object per span per line — the machine-friendly
  form for ad-hoc analysis (``jq``, pandas).
- **flame**: collapsed-stack text (the ``flamegraph.pl`` /
  ``inferno-flamegraph`` input format): one line per unique stack with
  its summed *self* time in integer microseconds.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.errors import InvalidArgument
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Span, Tracer

FORMATS = ("chrome", "jsonl", "flame")


def _us(seconds: float) -> float:
    """Simulated seconds -> microseconds, rounded for stable output."""
    return round(seconds * 1e6, 3)


def _ordered(tracer: Tracer) -> List[Span]:
    return sorted(tracer.spans, key=lambda s: (s.start, s.span_id))


def export_chrome(tracer: Tracer) -> str:
    """Chrome trace-event JSON for the tracer's finished spans."""
    events: List[Dict[str, object]] = [{
        "name": "process_name", "ph": "M", "pid": 1,
        "args": {"name": "repro (simulated time)"},
    }]
    for span in _ordered(tracer):
        args: Dict[str, object] = dict(span.attrs)
        for counter, value in span.counters.items():
            args["#" + counter] = value
        tid = span.attrs.get("client", 0)
        events.append({
            "name": span.name,
            "cat": span.layer,
            "ph": "X",
            "pid": 1,
            "tid": tid if isinstance(tid, int) else 0,
            "ts": _us(span.start),
            "dur": _us(span.duration),
            "args": args,
        })
    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "simulated", "spans": len(tracer.spans)},
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def export_jsonl(tracer: Tracer) -> str:
    """One JSON object per span per line, in (start, id) order."""
    lines: List[str] = []
    for span in _ordered(tracer):
        lines.append(json.dumps({
            "id": span.span_id,
            "parent": span.parent_id,
            "layer": span.layer,
            "op": span.op,
            "start_us": _us(span.start),
            "dur_us": _us(span.duration),
            "attrs": span.attrs,
            "counters": span.counters,
        }, sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + ("\n" if lines else "")


def export_flame(tracer: Tracer) -> str:
    """Collapsed-stack self-time aggregation.

    Each line is ``layer.op;layer.op;... <self_us>`` where self time is
    the span's duration minus its children's (clamped at zero: spans
    recorded from a different clock than their parent may nominally
    overrun it).  Lines are sorted by stack string, so equal runs
    produce equal bytes.
    """
    spans = _ordered(tracer)
    by_id: Dict[int, Span] = {s.span_id: s for s in spans}
    child_time: Dict[int, float] = {}
    for span in spans:
        if span.parent_id is not None and span.parent_id in by_id:
            child_time[span.parent_id] = (
                child_time.get(span.parent_id, 0.0) + span.duration)

    def stack_of(span: Span) -> str:
        parts = [span.name]
        seen = {span.span_id}
        parent = span.parent_id
        while parent is not None and parent in by_id and parent not in seen:
            seen.add(parent)
            node = by_id[parent]
            parts.append(node.name)
            parent = node.parent_id
        return ";".join(reversed(parts))

    totals: Dict[str, int] = {}
    for span in spans:
        self_us = int(round(
            max(0.0, span.duration - child_time.get(span.span_id, 0.0)) * 1e6))
        stack = stack_of(span)
        totals[stack] = totals.get(stack, 0) + self_us
    lines = ["%s %d" % (stack, usec) for stack, usec in sorted(totals.items())]
    return "\n".join(lines) + ("\n" if lines else "")


def export(tracer: Tracer, fmt: str) -> str:
    """Render the tracer's spans in the named format."""
    if fmt == "chrome":
        return export_chrome(tracer)
    if fmt == "jsonl":
        return export_jsonl(tracer)
    if fmt == "flame":
        return export_flame(tracer)
    raise InvalidArgument(
        "unknown trace format %r; known: %s" % (fmt, ", ".join(FORMATS)))


def write_export(tracer: Tracer, path: str, fmt: str) -> None:
    """Write the chosen export of the tracer's spans to ``path``."""
    text = export(tracer, fmt)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def write_metrics(registry: MetricsRegistry, path: str) -> None:
    """Write a snapshot of ``registry`` (a drive's: the stack's counts)
    to ``path`` as sorted JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(registry.snapshot(), handle, sort_keys=True, indent=2)
        handle.write("\n")
