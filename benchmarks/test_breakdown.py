"""Supplementary experiment: disk time breakdown.

The Section 2 mechanism, measured over the cold read phase: conventional
small-file activity is positioning-dominated; C-FFS converts the budget
into transfer.
"""

from benchmarks.conftest import save_artifact
from repro.bench import breakdown_read_time


def test_breakdown(benchmark):
    out = benchmark.pedantic(
        breakdown_read_time, kwargs={"n_files": 4000}, rounds=1, iterations=1
    )
    save_artifact("breakdown_time", out.text)
    rows = out.data["rows"]

    def positioning(row):
        return row["seek"] + row["rotation"]

    def positioning_share(row):
        return positioning(row) / (
            positioning(row) + row["transfer"] + row["overhead"])

    conv = rows["conventional"]
    cffs = rows["cffs"]
    # Read phase alone (0.71 and 0.22 measured).  Conventional: mostly
    # positioning.  C-FFS: mostly not.
    assert positioning_share(conv) > 0.65, positioning_share(conv)
    assert positioning_share(cffs) < positioning_share(conv) - 0.40
    # The win is *not* from transferring less, it is from positioning
    # less: both read the same sectors, and of the disk time C-FFS
    # saves, positioning is 6.6x the foreground transfer (most of its
    # requests are served off the drive's read-ahead of the group).
    saved_transfer = conv["transfer"] - cffs["transfer"]
    assert positioning(conv) - positioning(cffs) > 5 * saved_transfer
