"""Tests for the measurement and reporting helpers."""

import pytest

from repro.analysis import Table, bar_chart, format_series, percent_improvement, speedup
from repro.disk.drive import SimulatedDisk
from repro.disk.stats import DiskStats
from tests.conftest import TEST_PROFILE_PLAIN


class TestMetrics:
    def test_speedup(self):
        assert speedup(10.0, 2.0) == 5.0

    def test_speedup_rejects_zero(self):
        with pytest.raises(ValueError):
            speedup(10.0, 0.0)

    def test_percent_improvement(self):
        assert percent_improvement(3.5, 1.0) == pytest.approx(250.0)
        assert percent_improvement(1.1, 1.0) == pytest.approx(10.0, abs=0.5)


class TestTable:
    def test_render_contains_everything(self):
        table = Table("My Title", ["a", "bb"])
        table.add_row("x", 1.5)
        table.add_row("yy", 2)
        out = table.render()
        assert "My Title" in out
        assert "bb" in out
        assert "1.5" in out
        assert "yy" in out

    def test_row_arity_checked(self):
        table = Table("t", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row("only-one")

    def test_caption(self):
        table = Table("t", ["a"])
        table.add_row("v")
        table.caption = "the caption"
        assert "the caption" in table.render()

    def test_column_alignment(self):
        table = Table("t", ["col"])
        table.add_row("very-long-cell-value")
        lines = table.render().splitlines()
        header = [l for l in lines if l.startswith("col")][0]
        assert len(header) >= len("very-long-cell-value")


class TestCharts:
    def test_bar_chart_scales(self):
        out = bar_chart("chart", [("a", 10.0), ("b", 5.0)])
        lines = out.splitlines()
        bar_a = [l for l in lines if l.startswith("a")][0]
        bar_b = [l for l in lines if l.startswith("b")][0]
        assert bar_a.count("#") > bar_b.count("#")

    def test_bar_chart_empty(self):
        assert "no data" in bar_chart("c", [])

    def test_format_series(self):
        out = format_series("fig", "x", [1, 2], [("s1", [10.0, 20.0]),
                                                 ("s2", [1.0, 2.0])], unit="ms")
        assert "s1" in out and "s2" in out and "ms" in out


class TestDiskStats:
    def test_delta(self):
        stats = DiskStats()
        stats.record_request(False, 8)
        snap = stats.snapshot()
        stats.record_request(True, 16)
        stats.record_request(False, 8)
        delta = stats.delta(snap)
        assert delta.reads == 1
        assert delta.writes == 1
        assert delta.sectors_written == 16
        assert delta.request_sizes == {8: 1, 16: 1}

    def test_totals(self):
        stats = DiskStats()
        stats.record_request(False, 8)
        stats.record_request(True, 8)
        assert stats.total_requests == 2
        assert stats.sectors_read == stats.sectors_written == 8

    def test_snapshot_independent(self):
        stats = DiskStats()
        snap = stats.snapshot()
        stats.record_request(False, 8)
        assert snap.reads == 0

    def test_mechanical_time(self):
        # Seek, rotation and transfer are a request's mechanical time;
        # with the overhead they are all the time the drive charged.
        disk = SimulatedDisk(TEST_PROFILE_PLAIN)
        disk.read(disk.total_sectors - 64, 8)
        stats = disk.stats
        mechanical = stats.seek_time + stats.rotation_time + stats.transfer_time
        assert 0 < mechanical < disk.clock.now
        assert (mechanical + stats.overhead_time + stats.bus_time
                == pytest.approx(disk.clock.now))


class TestLatencyMetrics:
    def test_percentile_interpolates(self):
        from repro.analysis import percentile

        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 0.0) == 10.0
        assert percentile(values, 100.0) == 40.0
        assert percentile(values, 50.0) == pytest.approx(25.0)
        assert percentile([7.0], 99.0) == 7.0

    def test_percentile_order_independent(self):
        from repro.analysis import percentile

        assert percentile([3.0, 1.0, 2.0], 50.0) == 2.0

    def test_percentile_rejects_bad_input(self):
        from repro.analysis import percentile

        with pytest.raises(ValueError):
            percentile([], 50.0)
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)

    def test_summary_fields(self):
        from repro.analysis import summarize_latencies

        values = [float(i) for i in range(1, 101)]
        summary = summarize_latencies(values)
        assert summary.count == 100
        assert summary.mean == pytest.approx(50.5)
        assert summary.p50 == pytest.approx(50.5)
        assert summary.p99 == pytest.approx(99.01)
        assert summary.maximum == 100.0
        assert "p99" in summary.render()

    def test_jain_fairness(self):
        from repro.analysis import jain_fairness

        assert jain_fairness([5.0, 5.0, 5.0]) == pytest.approx(1.0)
        assert jain_fairness([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)
        assert jain_fairness([0.0, 0.0]) == 1.0
        with pytest.raises(ValueError):
            jain_fairness([])
        with pytest.raises(ValueError):
            jain_fairness([-1.0, 2.0])
