"""Chaos soak and resilient crash-sweep acceptance tests.

These encode the PR's acceptance criteria directly: under a sustained
transient + hard fault schedule the soak completes with zero undetected
corruption and >= 99% in-service success; spare exhaustion demotes to
READ_ONLY instead of crashing; post-soak fsck is clean; and identical
seeds render byte-identical reports.  The resilient crash-point sweep
proves repair at remap-write boundaries.
"""

from dataclasses import replace

import pytest

from repro.cache.policy import MetadataPolicy
from repro.faults import render_chaos, run_chaos, scenario
from repro.faults.harness import crash_point_sweep

# A scaled-down soak for the tests that run more than once.
QUICK = replace(scenario("sustained"), n_files=60, weak_count=12,
                bad_write_count=12, bad_read_count=3, rot_count=3)


class TestChaosSoak:
    def test_sustained_scenario_passes(self):
        report = run_chaos(scenario("sustained"))
        passed, reasons = report.verdict()
        assert passed, "; ".join(reasons) + "\n" + render_chaos(report)
        assert report.ops.undetected_corruption == 0
        assert report.ops.in_service_rate >= 0.99
        assert report.fsck_res_clean and report.fsck_fs_clean
        # The schedule actually bit: faults were absorbed, not absent.
        assert report.resilience.get("remaps", 0) > 0
        assert report.ops.total > 0 and report.files_verified > 0

    def test_exhaust_scenario_demotes_to_read_only(self):
        report = run_chaos(scenario("exhaust"))
        passed, reasons = report.verdict()
        assert passed, "; ".join(reasons) + "\n" + render_chaos(report)
        assert any(t[2] == "READ_ONLY" for t in report.health_log)
        assert report.final_state in ("READ_ONLY", "DEGRADED")
        assert report.ops.undetected_corruption == 0

    def test_identical_seeds_render_byte_identical_reports(self):
        first = render_chaos(run_chaos(QUICK))
        second = render_chaos(run_chaos(QUICK))
        assert first == second

    def test_different_seeds_differ(self):
        base = render_chaos(run_chaos(QUICK))
        other = render_chaos(run_chaos(replace(QUICK, seed=QUICK.seed + 1)))
        assert base != other

    def test_report_renders_verdict_line(self):
        text = render_chaos(run_chaos(QUICK))
        assert text.splitlines()[-1].lstrip().startswith("verdict: ")
        assert "in-service" in text


class TestResilientCrashSweep:
    """Crash windows land between a spare write and its header write;
    every image must still repair to the pre-crash checkpoint."""

    @pytest.mark.parametrize("label", ["cffs", "ffs"])
    def test_all_points_recover(self, label):
        result = crash_point_sweep(label, MetadataPolicy.SYNC_METADATA,
                                   n_files=12, stride=29, resilient=True)
        assert result.resilient
        assert result.n_points > 3
        bad = [p for p in result.points if not p.recovered]
        assert not bad, "\n".join(p.detail for p in bad)
