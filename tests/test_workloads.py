"""Tests for workload generators: small-file benchmark, size
distribution, aging, and the application suite."""

import random
from collections import Counter

import pytest

from repro.engine import Engine
from repro.fsck import fsck_cffs
from repro.workloads import (
    TracingFileSystem,
    age_filesystem,
    build_source_tree,
    postmark_script,
    run_app_suite,
    run_script,
    run_size_sweep,
    run_smallfile,
    sample_file_size,
    smallfile_ops,
    smallfile_paths,
    window,
)
from repro.workloads.postmark import PostmarkConfig, run_postmark
from tests.conftest import make_cffs


class TestMeasure:
    """workloads/measure.py: the one window a phase is measured in."""

    PATHS = smallfile_paths("/d", 30)

    def _created(self, fs=None):
        fs = fs if fs is not None else make_cffs()
        fs.mkdir("/d")
        run_script(fs, smallfile_ops(self.PATHS, 1024, "create"), sync=True)
        fs.drop_caches()
        return fs

    def test_window_closes_when_the_body_raises(self):
        fs = self._created()
        device = fs.cache.device
        before, start = device.disk.stats.snapshot(), device.clock.now
        with pytest.raises(RuntimeError):
            with window(fs) as measured:
                fs.read_file(self.PATHS[0])
                raise RuntimeError("mid-phase")
        expected = device.disk.stats.delta(before)
        assert measured.seconds == device.clock.now - start > 0
        assert measured.disk.reads == expected.reads > 0
        assert measured.disk.writes == expected.writes
        assert measured.disk_requests == expected.total_requests
        assert measured.disk.seek_time == expected.seek_time
        assert measured.disk.request_sizes == expected.request_sizes

    def test_windows_nest(self):
        fs = self._created()
        with window(fs) as outer:
            fs.read_file(self.PATHS[0])
            with window(fs) as inner:
                fs.write_file("/d/new", b"n" * 1024)
                fs.sync()
            fs.drop_caches()
            fs.read_file(self.PATHS[-1])
        assert 0 < inner.seconds < outer.seconds
        assert 0 < inner.disk.writes <= outer.disk.writes
        assert inner.disk.reads < outer.disk.reads
        assert inner.disk_requests < outer.disk_requests

    def test_run_script_is_a_one_client_engine_replay(self):
        # The equivalence engine/client.py states: with a single client
        # the replayed timeline is the lock-step one.
        ops = smallfile_ops(self.PATHS, 1024, "read")
        lockstep = run_script(self._created(), ops, sync=True)

        engine = Engine(make_cffs())
        client = engine.add_client()
        engine.run_sync(self._created)
        stats = engine.device.disk.stats
        before, start = stats.snapshot(), engine.now
        engine.run_phase({client: ops}, "read")
        engine.run_sync(lambda fs: fs.sync())
        replayed = stats.delta(before)
        assert engine.now - start == pytest.approx(lockstep.seconds, rel=1e-3)
        assert (replayed.reads, replayed.writes) == (
            lockstep.disk.reads, lockstep.disk.writes)
        assert replayed.request_sizes == lockstep.disk.request_sizes

    def test_cffs_stream_is_larger_and_fewer(self):
        """The mechanism, visible in the request stream: C-FFS issues
        fewer, larger requests for the same reads."""
        def cold_reads(fs):
            ops = smallfile_ops(self.PATHS, 1024, "read")
            return run_script(self._created(fs), ops).disk

        def mean_sectors(disk):
            return ((disk.sectors_read + disk.sectors_written)
                    / disk.total_requests)

        cffs = cold_reads(make_cffs())
        conv = cold_reads(make_cffs(embedded=False, grouping=False))
        assert cffs.total_requests < conv.total_requests / 2
        assert mean_sectors(cffs) > 2 * mean_sectors(conv)


class TestSmallFile:
    def test_phases_present(self):
        fs = make_cffs()
        result = run_smallfile(fs, n_files=60, file_size=1024)
        assert set(result.phases) == {"create", "read", "overwrite", "delete"}

    def test_all_phases_take_time(self):
        fs = make_cffs()
        result = run_smallfile(fs, n_files=60, file_size=1024)
        for phase in result.phases.values():
            assert phase.seconds > 0
            assert phase.files_per_second > 0

    def test_files_gone_after_delete(self):
        fs = make_cffs()
        run_smallfile(fs, n_files=40, file_size=1024)
        assert fs.readdir("/bench") == []

    def test_request_accounting(self):
        fs = make_cffs()
        result = run_smallfile(fs, n_files=40, file_size=1024)
        read = result["read"].measured
        assert read.disk_requests == read.disk.reads + read.disk.writes
        assert read.disk.reads > 0

    def test_multiple_directories(self):
        fs = make_cffs()
        result = run_smallfile(fs, n_files=60, file_size=1024, n_dirs=4)
        assert result["create"].n_files == 60
        # The subdirectories remain, and are the ones the paths name.
        assert sorted(fs.readdir("/bench")) == ["d000", "d001", "d002", "d003"]
        assert smallfile_paths("/bench", 6, 4)[3:] == [
            "/bench/d003/f000003", "/bench/d000/f000004", "/bench/d001/f000005"]

    def test_image_clean_afterwards(self):
        fs = make_cffs()
        run_smallfile(fs, n_files=40, file_size=1024)
        assert fsck_cffs(fs.device).ok

    def test_payload_validation(self):
        with pytest.raises(ValueError):
            smallfile_ops(["/bench/f0"], 10, "create", b"wrong length")

    def test_subset_of_phases(self):
        fs = make_cffs()
        result = run_smallfile(fs, n_files=30, file_size=1024,
                               phases=("create", "read"))
        assert set(result.phases) == {"create", "read"}


def fraction_under(limit: int) -> float:
    """Empirical P(size < limit) of the size distribution."""
    rng = random.Random(7)
    return sum(sample_file_size(rng) < limit for _ in range(20000)) / 20000


class TestSizeDistribution:
    def test_survey_calibration(self):
        """The paper: '79% of all files ... are less than 8 KB'."""
        assert fraction_under(8192) == pytest.approx(0.79, abs=0.02)

    def test_most_files_small(self):
        assert fraction_under(65536) > 0.95

    def test_tail_exists(self):
        rng = random.Random(1)
        sizes = [sample_file_size(rng) for _ in range(5000)]
        assert max(sizes) > 256 * 1024

    def test_deterministic_for_seed(self):
        a = [sample_file_size(random.Random(5)) for _ in range(10)]
        b = [sample_file_size(random.Random(5)) for _ in range(10)]
        assert a == b

    def test_sizes_positive(self):
        rng = random.Random(2)
        assert all(sample_file_size(rng) > 0 for _ in range(1000))


class TestPostmarkScript:
    CFG = PostmarkConfig(n_files=30, n_transactions=80, n_dirs=2, seed=5)
    DIRS = ["/postmark/d000", "/postmark/d001"]
    PHASES = ("create", "transactions", "delete")

    def _built_and_replayed(self):
        """A fresh script and the trace of its calls (paths, sizes)."""
        script = postmark_script(self.CFG, self.DIRS)
        fs = TracingFileSystem(make_cffs())
        fs.mkdir("/postmark")
        for d in self.DIRS:
            fs.mkdir(d)
        for phase in self.PHASES:
            for _label, op in script[phase]:
                op(fs)
        return script, fs.trace.dumps()

    def test_built_twice_is_the_same_stream(self):
        (a, calls_a), (b, calls_b) = (self._built_and_replayed(),
                                      self._built_and_replayed())
        assert tuple(a) == tuple(b) == self.PHASES
        for phase in self.PHASES:
            assert ([label for label, _ in a[phase]]
                    == [label for label, _ in b[phase]])
        assert calls_a == calls_b

    def test_run_postmark_counts_are_the_scripts_labels(self):
        script, _calls = self._built_and_replayed()
        kinds = Counter(label for label, _ in script["transactions"])
        result = run_postmark(make_cffs(), self.CFG)
        assert ((result.reads, result.appends, result.creates, result.deletes)
                == (kinds["read"], kinds["append"], kinds["create"],
                    kinds["delete"]))
        assert sum(kinds.values()) == self.CFG.n_transactions
        assert len(script["create"]) == self.CFG.n_files
        # The delete phase removes exactly what the churn left behind.
        assert len(script["delete"]) == (
            self.CFG.n_files + kinds["create"] - kinds["delete"])

    def test_run_postmark_counts_requests_in_the_windows_it_times(self):
        fs = make_cffs()
        stats = fs.device.disk.stats
        mkfs_requests = stats.total_requests
        result = run_postmark(fs, self.CFG)
        assert tuple(result.phases) == self.PHASES
        # The /postmark mkdirs (synchronous writes) run before the first
        # phase: they are in neither the seconds nor the request count.
        assert 0 < result.disk_requests < stats.total_requests - mkfs_requests
        assert result.total_seconds == sum(
            result.phases[phase].seconds
            for phase in ("create", "transactions", "delete")) > 0


class TestSizeSweep:
    def test_sweep_points(self):
        fs = make_cffs()
        points = run_size_sweep(fs, [1024, 8192], total_bytes=64 * 1024)
        assert len(points) == 2
        assert points[0].file_size == 1024
        assert points[0].n_files > points[1].n_files

    def test_throughput_grows_with_file_size(self):
        fs = make_cffs(embedded=False, grouping=False)
        points = run_size_sweep(fs, [1024, 32768], total_bytes=128 * 1024)
        assert points[1].read_mb_per_s > points[0].read_mb_per_s


class TestAging:
    def test_reaches_target_utilization(self):
        fs = make_cffs()
        result = age_filesystem(fs, target_utilization=0.5, operations=1200,
                                n_dirs=2, max_file_bytes=64 * 1024)
        assert result.utilization == pytest.approx(0.5, abs=0.12)
        assert result.creations > result.deletions

    def test_low_utilization(self):
        fs = make_cffs()
        result = age_filesystem(fs, target_utilization=0.15, operations=800,
                                n_dirs=2, max_file_bytes=64 * 1024)
        assert result.utilization < 0.3

    def test_operations_counted(self):
        fs = make_cffs()
        result = age_filesystem(fs, target_utilization=0.3, operations=500,
                                n_dirs=2, max_file_bytes=32 * 1024)
        assert result.creations + result.deletions == 500

    def test_deterministic(self):
        r1 = age_filesystem(make_cffs(), 0.3, operations=300, n_dirs=2,
                            max_file_bytes=32 * 1024, seed=9)
        r2 = age_filesystem(make_cffs(), 0.3, operations=300, n_dirs=2,
                            max_file_bytes=32 * 1024, seed=9)
        assert r1 == r2

    def test_aged_image_clean(self):
        fs = make_cffs()
        age_filesystem(fs, target_utilization=0.4, operations=600, n_dirs=2,
                       max_file_bytes=64 * 1024)
        report = fsck_cffs(fs.device)
        assert report.ok, report.render()

    def test_rejects_extreme_targets(self):
        with pytest.raises(ValueError):
            age_filesystem(make_cffs(), 0.99)

    def test_aging_fragments_groups(self):
        """After churn, explicit groups carry holes: live spans exceed
        their live block counts somewhere."""
        fs = make_cffs()
        age_filesystem(fs, target_utilization=0.5, operations=1500, n_dirs=2,
                       max_file_bytes=32 * 1024, seed=3)
        from repro.core.layout import EXT_GROUPED

        fragmented = 0
        for cgi in range(fs.groups.n_cgs):
            for idx in range(fs.groups.extents_per_cg):
                desc = fs.groups.read_desc((cgi, idx))
                if desc["state"] == EXT_GROUPED:
                    mask = desc["valid_mask"]
                    bits = [s for s in range(fs.config.group_span)
                            if mask & (1 << s)]
                    if bits and len(bits) < bits[-1] - bits[0] + 1:
                        fragmented += 1
        assert fragmented > 0


class TestAppSuite:
    def test_tree_built(self):
        fs = make_cffs()
        tree = build_source_tree(fs, n_dirs=2, files_per_dir=6, n_headers=3,
                                 max_file_bytes=16 * 1024)
        assert fs.exists(tree.root)
        assert len(tree.files) == 2 * 6 + 3
        for path, size in tree.files:
            assert fs.stat(path).size == size

    def test_suite_runs_all_passes(self):
        fs = make_cffs()
        tree = build_source_tree(fs, n_dirs=2, files_per_dir=5, n_headers=3,
                                 max_file_bytes=16 * 1024)
        result = run_app_suite(fs, tree)
        assert set(result.seconds) == {"copy", "scan", "compile", "clean"}
        assert all(v > 0 for v in result.seconds.values())

    def test_copy_creates_parallel_tree(self):
        fs = make_cffs()
        tree = build_source_tree(fs, n_dirs=2, files_per_dir=4, n_headers=2,
                                 max_file_bytes=8 * 1024)
        run_app_suite(fs, tree)
        src = fs.read_file(tree.files[-1][0])
        dst = fs.read_file(tree.root + "-copy" + tree.files[-1][0][len(tree.root):])
        assert src == dst

    def test_clean_removes_objects(self):
        fs = make_cffs()
        tree = build_source_tree(fs, n_dirs=1, files_per_dir=4, n_headers=2,
                                 max_file_bytes=8 * 1024)
        run_app_suite(fs, tree)
        for path, _ in tree.files:
            if path.endswith(".c"):
                assert not fs.exists(path[:-2] + ".o")

    def test_image_clean_afterwards(self):
        fs = make_cffs()
        tree = build_source_tree(fs, n_dirs=2, files_per_dir=4, n_headers=2,
                                 max_file_bytes=8 * 1024)
        run_app_suite(fs, tree)
        report = fsck_cffs(fs.device)
        assert report.ok, report.render()
