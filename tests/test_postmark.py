"""Tests for the PostMark-style workload."""


from repro.fsck import fsck_cffs
from repro.workloads.postmark import (
    PostmarkConfig,
    postmark_script,
    run_postmark,
)
from tests.conftest import make_cffs

SMALL = PostmarkConfig(n_files=60, n_transactions=150, n_dirs=3)


class TestPostmark:
    def test_runs_and_times_all_phases(self):
        fs = make_cffs()
        result = run_postmark(fs, SMALL)
        assert all(result.phases[phase].seconds > 0
                   for phase in ("create", "transactions", "delete"))

    def test_transaction_mix(self):
        fs = make_cffs()
        result = run_postmark(fs, SMALL)
        total = result.reads + result.appends + result.creates + result.deletes
        assert total == SMALL.n_transactions
        assert result.reads > 0
        assert result.appends > 0
        assert result.creates > 0
        assert result.deletes > 0

    def test_pool_fully_deleted(self):
        fs = make_cffs()
        run_postmark(fs, SMALL)
        for d in range(SMALL.n_dirs):
            assert fs.readdir("/postmark/d%03d" % d) == []

    def test_image_clean_afterwards(self):
        fs = make_cffs()
        run_postmark(fs, SMALL)
        report = fsck_cffs(fs.device)
        assert report.ok, report.render()

    def test_deterministic(self):
        a = run_postmark(make_cffs(), SMALL)
        b = run_postmark(make_cffs(), SMALL)
        assert a.total_seconds == b.total_seconds
        assert a.disk_requests == b.disk_requests

    def test_different_seeds_differ(self):
        a = run_postmark(make_cffs(), SMALL)
        b = run_postmark(make_cffs(), PostmarkConfig(
            n_files=60, n_transactions=150, n_dirs=3, seed=2024,
        ))
        assert a.total_seconds != b.total_seconds

    def test_appends_grow_files(self):
        fs = make_cffs()
        fs.mkdir("/p")
        script = postmark_script(SMALL, ["/p"])

        def sizes():
            return {name: fs.stat("/p/" + name).size
                    for name in fs.readdir("/p")}

        for _kind, op in script["create"]:
            op(fs)
        appends = 0
        for kind, op in script["transactions"]:
            before = sizes() if kind == "append" else None
            op(fs)
            if before is not None:
                after = sizes()
                grown = {name: after[name] - before[name] for name in after
                         if after[name] != before[name]}
                assert after.keys() == before.keys()
                assert len(grown) == 1
                assert 256 <= next(iter(grown.values())) <= 4096
                appends += 1
        assert appends > 0
