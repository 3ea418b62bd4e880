"""Tests for the directory re-grouping maintenance pass."""

import random

import pytest

from repro.core import layout
from repro.errors import NotADirectory
from repro.fsck import fsck_cffs
from tests.conftest import make_cffs


def churn_directory(fs, n_ops=400, seed=3):
    """Create/delete churn leaving a fragmented directory."""
    fs.mkdir("/d")
    rng = random.Random(seed)
    live = []
    serial = 0
    for _ in range(n_ops):
        if live and rng.random() < 0.45:
            fs.unlink(live.pop(rng.randrange(len(live))))
        else:
            path = "/d/f%05d" % serial
            serial += 1
            fs.write_file(path, bytes([serial % 256]) * 1024)
            live.append(path)
    fs.sync()
    return live


def cold_read_all(fs, paths):
    fs.drop_caches()
    start = fs.device.clock.now
    before = fs.device.disk.stats.snapshot()
    for path in sorted(paths):
        fs.read_file(path)
    delta = fs.device.disk.stats.delta(before)
    return fs.device.clock.now - start, delta.total_requests


class TestRegroup:
    def test_content_preserved(self, cffs):
        live = churn_directory(cffs)
        expected = {p: cffs.read_file(p) for p in live}
        cffs.regroup_directory("/d")
        cffs.sync()
        cffs.drop_caches()
        for path, data in expected.items():
            assert cffs.read_file(path) == data

    def test_improves_cold_reads(self, cffs):
        live = churn_directory(cffs)
        t_before, r_before = cold_read_all(cffs, live)
        moved = cffs.regroup_directory("/d")
        cffs.sync()
        t_after, r_after = cold_read_all(cffs, live)
        assert moved == len(live)
        assert r_after <= r_before
        assert t_after < t_before

    def test_blocks_become_adjacent(self, cffs):
        live = churn_directory(cffs)
        cffs.regroup_directory("/d")
        bnos = sorted(cffs._resolve(p).direct[0] for p in live)
        span = cffs.config.group_span
        # Files pack densely: the block range covers little more than
        # the file count, rounded to whole extents.
        needed_extents = -(-len(live) // span)
        assert bnos[-1] - bnos[0] < needed_extents * span + span

    def test_image_clean_after_regroup(self, cffs):
        churn_directory(cffs)
        cffs.regroup_directory("/d")
        cffs.sync()
        report = fsck_cffs(cffs.device)
        assert report.ok, report.render()

    def test_costs_io(self, cffs):
        churn_directory(cffs)
        cffs.sync()
        start = cffs.device.clock.now
        cffs.regroup_directory("/d")
        cffs.sync()
        assert cffs.device.clock.now > start  # the pass is not free

    def test_idempotent_second_pass(self, cffs):
        live = churn_directory(cffs)
        cffs.regroup_directory("/d")
        cffs.sync()
        # A second pass moves everything again (simple policy) but must
        # preserve contents and cleanliness.
        cffs.regroup_directory("/d")
        cffs.sync()
        assert fsck_cffs(cffs.device).ok
        assert cffs.read_file(sorted(live)[0]) is not None

    def test_skips_large_files(self, cffs):
        cffs.mkdir("/d")
        cffs.write_file("/d/big", b"B" * (20 * 4096))
        cffs.write_file("/d/small", b"s" * 1024)
        moved = cffs.regroup_directory("/d")
        assert moved == 1  # only the small file's block

    def test_not_a_directory(self, cffs):
        cffs.create("/file")
        with pytest.raises(NotADirectory):
            cffs.regroup_directory("/file")

    def test_noop_when_grouping_disabled(self):
        fs = make_cffs(grouping=False)
        fs.mkdir("/d")
        fs.write_file("/d/f", b"x" * 1024)
        assert fs.regroup_directory("/d") == 0

    def test_empty_directory(self, cffs):
        cffs.mkdir("/d")
        assert cffs.regroup_directory("/d") == 0

    @pytest.mark.parametrize("n_blocks", [1, 15, 16, 17, 32])
    def test_every_claimed_extent_is_used(self, cffs, n_blocks):
        """Plans of 1, span-1, span, span+1 and 2*span blocks: the pass
        claims ceil(plan/span) extents up front and fills each, so none
        is left a group with no valid slot, and the directory's hint
        names a group that still has room (or nothing)."""
        span = cffs.config.group_span
        assert sorted({1, span - 1, span, span + 1, 2 * span}) == [1, 15, 16, 17, 32]
        cffs.mkdir("/d")
        for i in range(n_blocks):
            cffs.write_file("/d/f%02d" % i, bytes([i + 1]) * 1024)
        assert cffs.regroup_directory("/d") == n_blocks
        groups = cffs.groups
        full = (1 << span) - 1
        for cgi in range(groups.n_cgs):
            for idx in range(groups.extents_per_cg):
                state, mask, _owner = groups.read_head((cgi, idx))
                assert (state, mask) != (layout.EXT_GROUPED, 0), (cgi, idx)
        hinted = groups.active_extent(cffs._resolve("/d").fileid)
        if hinted is not None:
            state, mask, _owner = groups.read_head(hinted)
            assert state == layout.EXT_GROUPED and 0 < mask < full
        cffs.sync()
        assert fsck_cffs(cffs.device).ok
