"""Crash-point sweep tests: every power-cut image repairs and remounts.

The fast tests subsample crash points (stride > 1) on smaller
workloads; the ``slow``-marked test is the full acceptance sweep —
power-cut after *every* media write of a 50-file run, on both formats,
with synchronous, soft-updates, and journaling metadata.
"""

import pytest

from repro.cache.policy import MetadataPolicy
from repro.errors import ReproError
from repro.faults.harness import (
    crash_point_sweep,
    render_sweep,
    run_journaled_workload,
)

ALL_POLICIES = (MetadataPolicy.SYNC_METADATA, MetadataPolicy.DELAYED_METADATA,
                MetadataPolicy.JOURNAL_METADATA)


def assert_recovered(result):
    assert result.all_recovered, render_sweep([result])


class TestWorkload:
    def test_checkpoints_monotonic(self):
        device, checkpoints = run_journaled_workload("cffs", n_files=12)
        lens = [c.journal_len for c in checkpoints]
        assert lens == sorted(lens)
        assert lens[-1] == len(device.journal)
        assert checkpoints[0].files == {}
        assert checkpoints[-1].files  # something survived the churn

    def test_workload_deterministic(self):
        _, a = run_journaled_workload("ffs", n_files=12, seed=5)
        _, b = run_journaled_workload("ffs", n_files=12, seed=5)
        assert [(c.journal_len, c.files) for c in a] == \
               [(c.journal_len, c.files) for c in b]

    def test_unknown_label_rejected(self):
        with pytest.raises(ReproError):
            run_journaled_workload("ntfs")


class TestSweepFast:
    @pytest.mark.parametrize("label", ["ffs", "cffs"])
    @pytest.mark.parametrize("policy", ALL_POLICIES,
                             ids=[p.value for p in ALL_POLICIES])
    def test_subsampled_sweep_recovers(self, label, policy):
        result = crash_point_sweep(label, policy=policy, n_files=12, stride=7)
        assert result.n_points > 5
        assert_recovered(result)

    def test_sweep_includes_final_write(self):
        result = crash_point_sweep("cffs", n_files=8, stride=17)
        assert result.points[-1].k == result.total_writes

    def test_sweep_deterministic(self):
        a = crash_point_sweep("ffs", n_files=8, stride=11, seed=3)
        b = crash_point_sweep("ffs", n_files=8, stride=11, seed=3)
        assert a.points == b.points
        assert a.total_writes == b.total_writes

    def test_mid_op_crashes_need_repair(self):
        # At least some crash points must actually exercise repair —
        # otherwise the sweep proves nothing.
        result = crash_point_sweep("ffs", n_files=12, stride=3)
        assert result.total_fixes > 0
        assert any(p.first_errors or p.first_repairs for p in result.points)

    def test_render_mentions_verdict(self):
        result = crash_point_sweep("cffs", n_files=6, stride=19)
        text = render_sweep([result])
        assert "recovered %d/%d" % (result.n_recovered, result.n_points) in text
        assert "OK" in text

    def test_bad_stride_rejected(self):
        with pytest.raises(ReproError):
            crash_point_sweep("ffs", stride=0)


@pytest.mark.slow
class TestSweepAcceptance:
    """The PR's acceptance bar: exhaustive sweep, 50 files, both
    formats, all three metadata policies — 100% recovery."""

    @pytest.mark.parametrize("label", ["ffs", "cffs"])
    @pytest.mark.parametrize("policy", ALL_POLICIES,
                             ids=[p.value for p in ALL_POLICIES])
    def test_full_sweep_100_percent(self, label, policy):
        result = crash_point_sweep(label, policy=policy, n_files=50, stride=1)
        assert result.n_points == result.total_writes - result.journal_base + 1
        assert_recovered(result)
