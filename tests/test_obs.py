"""Tests for the observability subsystem (``repro.obs``).

Covers the span model (nesting, attribute propagation, counters), the
metrics registry (registered fields, bucket edges, kind conflicts,
snapshots), the one stats helper (snapshot, delta, total), all three
exporters against embedded goldens, the zero-overhead disabled path,
byte-identical determinism of exports across identical seeded runs, and
the paper-shaped acceptance check: a traced small-file read phase shows
C-FFS touching the disk layer at least 5x less often per file than the
conventional layout.
"""

from __future__ import annotations

import ast
import inspect
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict

import pytest

from repro import obs
from repro.clock import SimClock
from repro.engine.diskqueue import QueueAccounting
from repro.errors import FileNotFound, InvalidArgument
from repro.lint.core import dotted_name
from repro.obs import Histogram, MetricsRegistry, Stats, Tracer
from repro.obs.export import (
    FORMATS,
    export,
    export_chrome,
    export_flame,
    export_jsonl,
)
from repro.vfs.interface import FileSystem
from repro.workloads import run_smallfile
from tests.conftest import make_cffs, make_ffs, src_modules


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    """A test that dies mid-install must not poison its neighbours."""
    yield
    obs.uninstall()


# -- spans --------------------------------------------------------------------


class TestSpans:
    def test_nesting_parents_and_timestamps(self):
        clock = SimClock()
        t = Tracer(clock=clock)
        with t.span("vfs", "read", path="/f") as outer:
            clock.advance(0.5)
            with t.span("cache", "miss", bno=7) as inner:
                clock.advance(0.25)
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        assert inner.start == pytest.approx(0.5)
        assert inner.duration == pytest.approx(0.25)
        assert outer.duration == pytest.approx(0.75)
        # Finished spans land in completion order: inner closes first.
        assert t.spans == [inner, outer]

    def test_context_attrs_propagate_explicit_wins(self):
        t = Tracer()
        with t.context(phase="read", client=3):
            with t.span("vfs", "open") as inherited:
                pass
            with t.span("vfs", "open", client=9) as explicit:
                pass
        with t.span("vfs", "open") as outside:
            pass
        assert inherited.attrs == {"phase": "read", "client": 3}
        assert explicit.attrs == {"phase": "read", "client": 9}
        assert outside.attrs == {}

    def test_record_parents_under_open_span(self):
        t = Tracer()
        with t.span("vfs", "read") as outer:
            rec = t.record("disk", "read", 1.0, 2.5, lba=8)
        orphan = t.record("disk", "write", 3.0, 4.0)
        assert rec.parent_id == outer.span_id
        assert rec.start == 1.0
        assert rec.duration == 1.5
        assert rec.attrs == {"lba": 8}
        assert orphan.parent_id is None

    def test_span_local_counters(self):
        t = Tracer()
        with t.span("vfs", "read") as sp:
            t.incr("bytes", 100)
            sp.incr("bytes", 28)
            sp.incr("blocks")
        assert sp.counters == {"bytes": 128, "blocks": 1}
        t.incr("ignored")  # no open span: silently dropped

    def test_out_of_order_close_raises(self):
        t = Tracer()
        a = t.span("vfs", "a")
        b = t.span("vfs", "b")
        a.__enter__()
        b.__enter__()
        with pytest.raises(InvalidArgument):
            a.__exit__(None, None, None)


# -- disabled path ------------------------------------------------------------


class TestDisabledPath:
    def test_null_span_is_the_shared_singleton(self):
        assert obs.active() is None
        assert not obs.enabled()
        s1 = obs.span("vfs", "read", path="/x")
        s2 = obs.span("disk", "write")
        assert s1 is s2
        assert s1 is obs.NULL_SPAN

    def test_null_span_accepts_the_full_span_api(self):
        with obs.span("vfs", "read") as sp:
            sp.incr("bytes", 4096)
        obs.record("disk", "read", 0.0, 1.0, lba=1)
        obs.incr("cache.hits")

    def test_install_routes_uninstall_restores(self):
        clock = SimClock()
        t = obs.install(Tracer(clock=clock))
        assert obs.active() is t
        with obs.span("vfs", "read"):
            clock.advance(1.0)
            obs.incr("bytes", 10)
        assert obs.uninstall() is t
        assert obs.active() is None
        assert obs.span("vfs", "read") is obs.NULL_SPAN
        assert len(t.spans) == 1
        assert t.spans[0].duration == pytest.approx(1.0)
        assert t.spans[0].counters == {"bytes": 10}


# -- declared spans -----------------------------------------------------------


def _refuse(*args):
    raise AssertionError("attrs called with no tracer installed")


class _Traced:
    """One method per case, each declared a span with ``obs.traced``."""

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock
        self.calls = []

    @obs.traced("vfs", "write", lambda self, path, data: {
        "path": path, "size": len(data)})
    def write(self, path, data):
        """Write ``data`` to ``path``."""
        self.calls.append(path)
        self.clock.advance(1.0)
        with obs.span("cache", "miss", bno=7):
            self.clock.advance(0.5)
        obs.incr("bytes", len(data))
        return len(data)

    @obs.traced("vfs", "stat", _refuse)
    def stat(self, path):
        self.calls.append(path)
        return path

    @obs.traced("vfs", "unlink", lambda self, path: {"path": path})
    def unlink(self, path):
        self.clock.advance(0.25)
        raise FileNotFound(path)


class TestTraced:
    def test_untraced_runs_the_body_and_never_calls_attrs(self):
        obj = _Traced(SimClock())
        assert obj.stat("/a") == "/a"
        assert obj.write("/b", b"xyz") == 3
        assert obj.calls == ["/a", "/b"]

    def test_traced_opens_the_declared_span_around_the_body(self):
        clock = SimClock()
        obj = _Traced(clock)
        t = obs.install(Tracer(clock=clock))
        assert obj.write("/f", b"hello") == 5
        inner, outer = t.spans
        assert (outer.layer, outer.op) == ("vfs", "write")
        assert outer.attrs == {"path": "/f", "size": 5}
        assert outer.counters == {"bytes": 5}
        assert (outer.start, outer.end) == (0.0, 1.5)
        assert inner.name == "cache.miss"
        assert inner.parent_id == outer.span_id
        assert inner.counters == {}

    def test_a_raising_body_still_closes_and_records_its_span(self):
        clock = SimClock()
        obj = _Traced(clock)
        t = obs.install(Tracer(clock=clock))
        with pytest.raises(FileNotFound):
            obj.unlink("/gone")
        (sp,) = t.spans
        assert sp.name == "vfs.unlink"
        assert sp.attrs == {"path": "/gone"}
        assert sp.duration == 0.25
        assert t._stack == []

    def test_the_body_keeps_its_name_doc_and_defaults(self):
        assert _Traced.write.__name__ == "write"
        assert _Traced.write.__doc__ == "Write ``data`` to ``path``."
        truncate = FileSystem.truncate
        assert truncate.__name__ == "truncate"
        assert truncate.__defaults__ == (0,)
        assert inspect.signature(truncate).parameters["size"].default == 0
        fs = make_cffs()
        fs.write_file("/f", b"abc")
        t = obs.install(Tracer(clock=fs.cache.device.clock))
        fs.truncate("/f")
        assert fs.stat("/f").size == 0
        assert [s.attrs for s in t.spans if s.name == "vfs.truncate"] == [
            {"path": "/f", "size": 0}]

    def test_the_wrapper_takes_the_body_parameters_and_lives_in_obs(self):
        # No *args tuple per call, and a profile places the wrapper's
        # frame in repro/obs, not in the layer it decorates.
        for method in (FileSystem.pread, FileSystem.truncate, _Traced.write):
            code = method.__code__
            assert not code.co_flags & (inspect.CO_VARARGS
                                        | inspect.CO_VARKEYWORDS)
            assert code.co_varnames[:code.co_argcount] == (
                method.__wrapped__.__code__.co_varnames[:code.co_argcount])
            assert code.co_filename == obs.__file__

    def test_refuses_a_body_it_cannot_call_by_name(self):
        decorate = obs.traced("vfs", "read")
        with pytest.raises(InvalidArgument):
            decorate(lambda self, *args: None)
        with pytest.raises(InvalidArgument):
            decorate(lambda self, *, size: None)
        with pytest.raises(InvalidArgument):
            decorate(lambda self, _body: None)


# -- the span catalogue -------------------------------------------------------

CATALOGUE = Path(__file__).resolve().parent.parent / "docs" / "OBSERVABILITY.md"


def _declared_spans():
    """``layer.op`` of every ``obs.traced`` declaration under src/repro."""
    names = set()
    for mod in src_modules():
        for node in ast.walk(mod.tree):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "traced"
                    and dotted_name(node.func.value) == "obs"):
                layer, op = (arg.value for arg in node.args[:2])
                names.add("%s.%s" % (layer, op))
    return names


def test_every_declared_span_is_in_the_catalogue():
    rows = set()
    for line in CATALOGUE.read_text(encoding="utf-8").splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0].startswith("`"):
            rows.add(cells[0].strip("`"))
    declared = _declared_spans()
    assert {"vfs.create", "fs.inode_fetch", "cache.miss"} <= declared
    assert sorted(declared - rows) == []


# -- metrics ------------------------------------------------------------------


@dataclass
class _Counts(Stats):
    HIGH_WATER = ("level",)

    ops: int = 0
    level: int = 0
    sizes: Dict[int, int] = field(default_factory=dict)


class TestMetrics:
    def test_histogram_bucket_edges_are_inclusive_upper_bounds(self):
        h = Histogram("h", (1, 2, 4))
        for value in (0, 1, 1.5, 2, 3, 4, 5):
            h.observe(value)
        assert h.counts == [2, 2, 2]
        assert h.overflow == 1
        assert h.total == 7
        assert h.sum == pytest.approx(16.5)

    def test_every_latency_bound_belongs_to_the_bucket_it_names(self):
        # The per-operation histogram every engine client feeds: a value
        # exactly on a bound counts under that bound, the next float up
        # in the bucket after it (overflow past the last).
        import math

        from repro.engine.client import LATENCY_BUCKETS_MS

        for i, bound in enumerate(LATENCY_BUCKETS_MS):
            h = Histogram("h", LATENCY_BUCKETS_MS)
            h.observe(bound)
            h.observe(math.nextafter(bound, math.inf))
            h.observe(math.nextafter(bound, -math.inf))
            expected = [0] * len(LATENCY_BUCKETS_MS)
            expected[i] = 2
            if i + 1 < len(expected):
                expected[i + 1] = 1
            assert h.counts == expected
            assert h.overflow == (1 if i + 1 == len(expected) else 0)
            assert h.total == 3

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(InvalidArgument):
            Histogram("h", ())
        with pytest.raises(InvalidArgument):
            Histogram("h", (1, 1, 2))
        with pytest.raises(InvalidArgument):
            Histogram("h", (4, 2))

    def test_registry_idempotent_accessors(self):
        reg = MetricsRegistry()
        assert reg.counter("disk.reads") is reg.counter("disk.reads")
        assert reg.histogram("lat", (1, 2)) is reg.histogram("lat")
        with pytest.raises(InvalidArgument):
            reg.histogram("nonexistent")  # needs buckets on first use

    def test_registry_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(InvalidArgument):
            reg.gauge("x")
        with pytest.raises(InvalidArgument):
            reg.histogram("x", (1,))

    def test_registered_fields_are_read_at_every_snapshot(self):
        reg = MetricsRegistry()
        first, second = _Counts(), _Counts()
        reg.register("x", first)
        first.ops += 3
        assert reg.snapshot() == {"x.level": 0, "x.ops": 3}
        # A second owner of the same names replaces the first: counts
        # are per object, never merged.
        reg.register("x", second, ("ops",))
        first.ops += 1
        assert reg.snapshot()["x.ops"] == 0
        reg.read("x.state", lambda: 7)
        assert reg.snapshot()["x.state"] == 7
        with pytest.raises(InvalidArgument):
            reg.counter("x.ops")        # already a registered field
        reg.gauge("y")
        with pytest.raises(InvalidArgument):
            reg.read("y", lambda: 0)

    def test_stats_snapshot_delta_and_total(self):
        counts = _Counts(ops=2, level=5, sizes={8: 1})
        before = counts.snapshot()
        counts.ops += 3
        counts.level = 4
        counts.sizes[8] += 1
        counts.sizes[16] = 2
        assert before == _Counts(ops=2, level=5, sizes={8: 1})
        delta = counts.delta(before)
        assert delta == _Counts(ops=3, level=4, sizes={8: 1, 16: 2})
        # A sum is of numeric fields: the queue deltas of several shards.
        parts = [QueueAccounting(completed=3, max_depth=4),
                 QueueAccounting(completed=1, max_depth=9)]
        total = QueueAccounting.total(parts)
        assert (total.completed, total.max_depth) == (4, 9)

    def test_snapshot_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b.count").inc(2)
        reg.gauge("a.depth").set(5)
        h = reg.histogram("c.lat", (1, 10))
        h.observe(0.5)
        h.observe(99)
        snap = reg.snapshot()
        assert list(snap) == sorted(snap)
        assert snap["b.count"] == 2
        assert snap["a.depth"] == 5
        assert snap["c.lat"] == {
            "buckets": {"1": 1, "10": 0}, "+inf": 1, "total": 2, "sum": 99.5,
        }


# -- exporter goldens ---------------------------------------------------------


def _golden_tracer() -> Tracer:
    clock = SimClock()
    t = Tracer(clock=clock)
    with t.span("vfs", "read", path="/a", client=1):
        clock.advance(0.001)
        with t.span("cache", "miss", bno=7) as miss:
            miss.incr("blocks", 2)
            clock.advance(0.002)
            t.record("disk", "read", clock.now, clock.now + 0.0015, lba=64)
            clock.advance(0.0015)
        clock.advance(0.0005)
    return t


CHROME_GOLDEN = (
    '{"displayTimeUnit":"ms","otherData":{"clock":"simulated","spans":3},'
    '"traceEvents":['
    '{"args":{"name":"repro (simulated time)"},"name":"process_name",'
    '"ph":"M","pid":1},'
    '{"args":{"client":1,"path":"/a"},"cat":"vfs","dur":5000.0,'
    '"name":"vfs.read","ph":"X","pid":1,"tid":1,"ts":0.0},'
    '{"args":{"#blocks":2,"bno":7},"cat":"cache","dur":3500.0,'
    '"name":"cache.miss","ph":"X","pid":1,"tid":0,"ts":1000.0},'
    '{"args":{"lba":64},"cat":"disk","dur":1500.0,'
    '"name":"disk.read","ph":"X","pid":1,"tid":0,"ts":3000.0}]}\n'
)

JSONL_GOLDEN = (
    '{"attrs":{"client":1,"path":"/a"},"counters":{},"dur_us":5000.0,'
    '"id":0,"layer":"vfs","op":"read","parent":null,"start_us":0.0}\n'
    '{"attrs":{"bno":7},"counters":{"blocks":2},"dur_us":3500.0,'
    '"id":1,"layer":"cache","op":"miss","parent":0,"start_us":1000.0}\n'
    '{"attrs":{"lba":64},"counters":{},"dur_us":1500.0,'
    '"id":2,"layer":"disk","op":"read","parent":1,"start_us":3000.0}\n'
)

FLAME_GOLDEN = (
    "vfs.read 1500\n"
    "vfs.read;cache.miss 2000\n"
    "vfs.read;cache.miss;disk.read 1500\n"
)


class TestExportGoldens:
    def test_chrome_golden(self):
        assert export_chrome(_golden_tracer()) == CHROME_GOLDEN

    def test_jsonl_golden(self):
        assert export_jsonl(_golden_tracer()) == JSONL_GOLDEN

    def test_flame_golden_self_time(self):
        # Self time: vfs.read 5000 - 3500 (child) = 1500; cache.miss
        # 3500 - 1500 = 2000; disk.read is a leaf, 1500.
        assert export_flame(_golden_tracer()) == FLAME_GOLDEN

    def test_unknown_format_rejected(self):
        with pytest.raises(InvalidArgument):
            export(_golden_tracer(), "pprof")

    def test_write_export_with_metrics(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("disk.reads").inc(7)
        trace_path = tmp_path / "t.json"
        metrics_path = tmp_path / "m.json"
        obs.write_export(_golden_tracer(), str(trace_path), "chrome")
        obs.write_metrics(registry, str(metrics_path))
        assert trace_path.read_text() == CHROME_GOLDEN
        assert '"disk.reads": 7' in metrics_path.read_text()


# -- traced workload runs -----------------------------------------------------


def _traced_smallfile(fs, n_files: int):
    tracer = Tracer(clock=fs.cache.device.clock)
    obs.install(tracer)
    try:
        run_smallfile(fs, n_files=n_files, file_size=1024)
    finally:
        obs.uninstall()
    return tracer


def _disk_spans_in_phase(tracer: Tracer, phase: str):
    window = next(s for s in tracer.spans
                  if s.layer == "workload" and s.op == phase)
    return [s for s in tracer.spans
            if s.layer == "disk"
            and window.start <= s.start and s.end <= window.end]


class TestTracedRuns:
    def test_trace_covers_every_layer(self):
        tracer = _traced_smallfile(make_cffs(), n_files=20)
        layers = {s.layer for s in tracer.spans}
        assert {"workload", "vfs", "fs", "cache", "disk"} <= layers

    def test_identical_runs_export_byte_identical(self):
        t1 = _traced_smallfile(make_cffs(), n_files=25)
        t2 = _traced_smallfile(make_cffs(), n_files=25)
        for fmt in FORMATS:
            assert export(t1, fmt) == export(t2, fmt), fmt

    def test_cffs_needs_5x_fewer_disk_spans_per_file_on_cold_reads(self):
        # The paper's table 4-3: ~1.07 requests/file conventional vs
        # ~0.11 for C-FFS in the cold read phase — about a 10x drop.
        # The trace must show the same structure: disk-layer spans
        # inside the read-phase window, per file, at least 5x apart.
        n_files = 100
        ffs_trace = _traced_smallfile(make_ffs(), n_files=n_files)
        cffs_trace = _traced_smallfile(make_cffs(), n_files=n_files)
        ffs_reads = len(_disk_spans_in_phase(ffs_trace, "read"))
        cffs_reads = len(_disk_spans_in_phase(cffs_trace, "read"))
        assert cffs_reads > 0
        assert ffs_reads / cffs_reads >= 5.0, (
            "disk spans per file: ffs=%.2f cffs=%.2f"
            % (ffs_reads / n_files, cffs_reads / n_files))
