"""The paper's headline claims, verified at reduced scale on the full
ST31200 platform model.

These are the reproduction's acceptance tests: who wins, by roughly
what factor, and where the requests went.  Absolute numbers differ from
the paper (different substrate); the *shape* must hold.
"""

import pytest

from repro.cache.policy import MetadataPolicy
from repro.workloads import build_filesystem, run_smallfile

N_FILES = 1200


def bench(label, policy=MetadataPolicy.SYNC_METADATA, **over):
    fs = build_filesystem(label, policy, **over)
    return run_smallfile(fs, n_files=N_FILES, file_size=1024, label=label)


@pytest.fixture(scope="module")
def sync_results():
    return {label: bench(label)
            for label in ("conventional", "embedded", "grouping", "cffs")}


@pytest.fixture(scope="module")
def softdep_results():
    return {label: bench(label, MetadataPolicy.DELAYED_METADATA)
            for label in ("conventional", "cffs")}


@pytest.fixture(scope="module")
def full_scale_overwrite():
    """F5's own scale: 10 000 files do not fit the cache, so the
    overwrite phase runs under eviction pressure from a cold start."""
    phases = ("create", "read", "overwrite")
    return {label: run_smallfile(build_filesystem(label), n_files=10000,
                                 file_size=1024, label=label, phases=phases)
            for label in ("conventional", "cffs")}


class TestHeadline:
    def test_read_throughput_5_to_7x(self, sync_results):
        """Abstract: 'increase small file throughput (for both reads and
        writes) by a factor of 5-7'."""
        ratio = (sync_results["cffs"]["read"].files_per_second
                 / sync_results["conventional"]["read"].files_per_second)
        assert 4.5 <= ratio <= 9.0

    def test_write_throughput_large_factor_softdep(self, softdep_results):
        ratio = (softdep_results["cffs"]["create"].files_per_second
                 / softdep_results["conventional"]["create"].files_per_second)
        assert ratio >= 4.0

    def test_order_of_magnitude_fewer_read_requests(self, sync_results):
        """Abstract: 'reducing the number of disk accesses required by
        an order of magnitude'."""
        conv = sync_results["conventional"]["read"].requests_per_file
        cffs = sync_results["cffs"]["read"].requests_per_file
        assert conv / cffs >= 7.0

    def test_delete_improvement_around_250_percent(self, sync_results):
        """§4.2: '250% increase in file deletion throughput' from
        embedded inodes."""
        ratio = (sync_results["embedded"]["delete"].files_per_second
                 / sync_results["conventional"]["delete"].files_per_second)
        assert 2.0 <= ratio <= 4.5

    def test_create_sync_write_halving(self, sync_results):
        """[Ganger94]: one ordering write instead of two per create."""
        ratio = (sync_results["embedded"]["create"].files_per_second
                 / sync_results["conventional"]["create"].files_per_second)
        assert ratio >= 1.05
        conv_rq = sync_results["conventional"]["create"].requests_per_file
        emb_rq = sync_results["embedded"]["create"].requests_per_file
        assert conv_rq - emb_rq >= 0.8  # one fewer sync write per file

    def test_overwrite_improvement(self, sync_results):
        ratio = (sync_results["cffs"]["overwrite"].files_per_second
                 / sync_results["conventional"]["overwrite"].files_per_second)
        assert ratio >= 3.0

    def test_overwrite_in_the_band_when_the_cache_is_too_small(
            self, full_scale_overwrite):
        """The abstract's factor covers writes too, and a group is
        "moved to/from disk as a unit" in both directions: a cold
        overwrite costs about what the read of the same files does."""
        conv = full_scale_overwrite["conventional"]["overwrite"]
        cffs = full_scale_overwrite["cffs"]["overwrite"]
        assert cffs.files_per_second / conv.files_per_second >= 5.0
        assert (cffs.requests_per_file
                <= 1.5 * full_scale_overwrite["cffs"]["read"].requests_per_file)


class TestTechniqueAttribution:
    def test_grouping_alone_wins_reads(self, sync_results):
        ratio = (sync_results["grouping"]["read"].files_per_second
                 / sync_results["conventional"]["read"].files_per_second)
        assert ratio >= 4.0

    def test_embedding_alone_does_not_win_reads(self, sync_results):
        """Embedded inodes help metadata ops; data reads stay
        positioning-bound without grouping."""
        ratio = (sync_results["embedded"]["read"].files_per_second
                 / sync_results["conventional"]["read"].files_per_second)
        assert ratio < 2.0

    def test_grouping_alone_does_not_win_deletes(self, sync_results):
        ratio = (sync_results["grouping"]["delete"].files_per_second
                 / sync_results["conventional"]["delete"].files_per_second)
        assert ratio < 1.5

    def test_both_techniques_compose(self, sync_results):
        """C-FFS is at least as good as either technique alone, in
        every phase."""
        for phase in ("create", "read", "overwrite", "delete"):
            cffs = sync_results["cffs"][phase].files_per_second
            for single in ("embedded", "grouping"):
                assert cffs >= 0.9 * sync_results[single][phase].files_per_second


class TestSoftUpdates:
    def test_softdep_helps_conventional_creates(self, softdep_results, sync_results):
        """Figure 6's premise: removing sync writes speeds up the
        conventional system too."""
        assert (softdep_results["conventional"]["create"].files_per_second
                > sync_results["conventional"]["create"].files_per_second)

    def test_grouping_still_wins_under_softdep(self, softdep_results):
        """The paper's point: soft updates do not subsume grouping —
        reads and writes still need adjacency."""
        read_ratio = (softdep_results["cffs"]["read"].files_per_second
                      / softdep_results["conventional"]["read"].files_per_second)
        assert read_ratio >= 4.5
