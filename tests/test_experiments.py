"""Tests for the experiment drivers (small parameters; shape checks)."""


from repro.bench import (
    ablation_cache_size,
    ablation_embed_dirsize,
    ablation_group_size,
    fig2_access_time,
    fig5_smallfile,
    fig6_smallfile_softdep,
    fig7_size_sweep,
    fig8_aging,
    table1_drives,
    table2_platform,
    table3_requests,
    table4_apps,
)


class TestStaticTables:
    def test_table1_lists_three_drives(self):
        out = table1_drives()
        assert "HP C3653" in out.text
        assert "Quantum Atlas II" in out.text
        assert "Barracuda" in out.text

    def test_table1_quotes_paper_seeks(self):
        """The seek rows quote the paper's Table 1 values."""
        text = table1_drives().text
        for value in ("8.7", "8.0", "7.9", "16.5", "19.0", "18.0"):
            assert value in text

    def test_table2_platform(self):
        out = table2_platform()
        assert "ST31200" in out.text
        assert out.data["profile"].rpm == 5400.0


class TestFig2:
    def test_flat_then_linear(self):
        """Access time is flat for small requests and grows once
        transfer dominates — the bandwidth argument."""
        out = fig2_access_time(sizes_kb=(4, 64, 1024), samples=30)
        for drive, avgs in out.data["averages_ms"].items():
            t4, t64, t1024 = avgs
            assert t64 < 3 * t4, drive       # 16x data, < 3x time
            assert t1024 > 3 * t64, drive    # eventually transfer-bound

    def test_deterministic(self):
        a = fig2_access_time(sizes_kb=(4,), samples=10)
        b = fig2_access_time(sizes_kb=(4,), samples=10)
        assert a.data["averages_ms"] == b.data["averages_ms"]


class TestSmallfileFigures:
    def test_fig5_grid_and_ordering(self):
        out = fig5_smallfile(n_files=250)
        results = out.data["results"]
        assert set(results) == {"conventional", "embedded", "grouping",
                                "cffs", "cffs-journal"}
        assert (results["cffs"]["read"].files_per_second
                > results["conventional"]["read"].files_per_second)
        # Sequential log commits beat synchronous ordering writes.
        assert (results["cffs-journal"]["create"].files_per_second
                > results["cffs"]["create"].files_per_second)

    def test_fig6_softdep_faster_creates(self):
        sync = fig5_smallfile(n_files=200)
        soft = fig6_smallfile_softdep(n_files=200)
        assert (soft.data["results"]["conventional"]["create"].files_per_second
                > sync.data["results"]["conventional"]["create"].files_per_second)

    def test_table3_reduction_column(self):
        out = table3_requests(n_files=250)
        assert "read reduction" in out.text
        conv = out.data["results"]["conventional"]["read"].requests_per_file
        cffs = out.data["results"]["cffs"]["read"].requests_per_file
        assert conv / cffs > 5


class TestFig7:
    def test_crossover_shrinks_with_size(self):
        """C-FFS's advantage is largest for the smallest files."""
        out = fig7_size_sweep(file_sizes=(1024, 32768), total_bytes=256 * 1024)
        sweeps = out.data["sweeps"]
        small_ratio = (sweeps["cffs"][0].read_mb_per_s
                       / sweeps["conventional"][0].read_mb_per_s)
        large_ratio = (sweeps["cffs"][1].read_mb_per_s
                       / sweeps["conventional"][1].read_mb_per_s)
        assert small_ratio > large_ratio
        assert small_ratio > 3.0


class TestFig8:
    def test_aging_keeps_cffs_ahead(self):
        out = fig8_aging(utilizations=(0.3,), operations=900, n_files=250)
        assert (out.data["read"]["cffs"][0]
                > 2.5 * out.data["read"]["conventional"][0])


class TestTable4:
    def test_apps_improvements_in_band(self):
        """Paper: 'performance improvements ranging from 10-300%'."""
        out = table4_apps(n_dirs=3, files_per_dir=10)
        improvements = out.data["improvements"]
        assert improvements  # at least one pass measured
        for name, imp in improvements.items():
            assert imp > -20.0, (name, imp)  # C-FFS never clearly loses
        assert max(improvements.values()) > 10.0


class TestAblations:
    def test_group_size_monotone_for_reads(self):
        out = ablation_group_size(spans=(4, 16), n_files=250)
        assert out.data["read"][1] > out.data["read"][0]

    def test_embed_dirsize_cost_visible(self):
        out = ablation_embed_dirsize(entry_counts=(64, 256))
        embedded = out.data["dir_blocks"]["embedded"]
        external = out.data["dir_blocks"]["external"]
        assert embedded[-1] > external[-1]

    def test_cache_size_hurts_nobody(self):
        out = ablation_cache_size(cache_blocks=(256, 4096), n_files=250)
        for label, series in out.data["read"].items():
            assert series[1] >= 0.8 * series[0]
