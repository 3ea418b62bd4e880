"""The small-file microbenchmark, synchronous metadata (paper §4.2).

Create/read/overwrite/delete 10000 1 KB files across the full
configuration grid.  The headline claims live here: 5-7x small-file
throughput and an order of magnitude fewer disk requests.
"""

from benchmarks.conftest import save_artifact
from repro.bench import fig5_smallfile

N_FILES = 10000


def test_fig5(benchmark):
    out = benchmark.pedantic(
        fig5_smallfile, kwargs={"n_files": N_FILES}, rounds=1, iterations=1
    )
    save_artifact("fig5_smallfile_sync", out.text)
    results = out.data["results"]
    conv = results["conventional"]
    cffs = results["cffs"]

    # Reads: a factor of 5-7 (we accept 4.5-9 at this scale).
    read_ratio = cffs["read"].files_per_second / conv["read"].files_per_second
    assert 4.5 <= read_ratio <= 9.5, read_ratio

    # Requests: an order of magnitude fewer for reads.
    req_ratio = conv["read"].requests_per_file / cffs["read"].requests_per_file
    assert req_ratio >= 7.0, req_ratio

    # Overwrites: the same band — dirty groups leave the cache as
    # units, so a cold overwrite costs about what the read does.
    overwrite_ratio = (cffs["overwrite"].files_per_second
                       / conv["overwrite"].files_per_second)
    assert overwrite_ratio >= 5.0, overwrite_ratio
    assert (cffs["overwrite"].requests_per_file
            <= 1.5 * cffs["read"].requests_per_file)

    # Creates improve via halved ordering writes + grouped data.
    create_ratio = cffs["create"].files_per_second / conv["create"].files_per_second
    assert create_ratio >= 2.0, create_ratio

    # Deletes: embedded inodes alone give the ~250% improvement.
    delete_ratio = (results["embedded"]["delete"].files_per_second
                    / conv["delete"].files_per_second)
    assert 2.0 <= delete_ratio <= 4.5, delete_ratio

    # Each single technique helps its own axis.
    assert (results["grouping"]["read"].files_per_second
            > 4.0 * conv["read"].files_per_second)
    assert (results["embedded"]["create"].requests_per_file
            < conv["create"].requests_per_file - 0.8)

    # Journaling turns the random synchronous ordering writes into
    # sequential log commits: creates speed up, reads are untouched.
    journal = results["cffs-journal"]
    assert (journal["create"].files_per_second
            > 1.2 * cffs["create"].files_per_second)
    assert (journal["read"].files_per_second
            > 0.9 * cffs["read"].files_per_second)
