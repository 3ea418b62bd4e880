"""Seeded command output pinned across commits: the one determinism gate.

``COMMANDS`` is the manifest of every seeded ``repro`` output that must
not drift.  An entry is a list of argv lists, run in order through
``repro.cli.main`` in a fresh directory that holds ``h.txt``
(``hello``), the host file the image lifecycles ``put``; file names are
relative, so what a command prints of them is the same in every run.
The steps' stdout is pinned verbatim as ``tests/golden/reports/<name>.txt``
and each file the entry names as ``<name>.<file>``: verbatim, or, for a
name ending in ``.sha256`` (disk images, the span export), by the sha256
of the file's bytes.  CI runs tier-1 under ``PYTHONHASHSEED=1`` on one
Python and ``=2`` on the other, so every output is held to one committed
value under two hash seeds.  A change that moves one regenerates the
goldens on purpose (``tests/golden.py``).

A new seeded output is a new entry here, never a two-run ``cmp`` in CI:
``test_the_manifest_is_the_only_determinism_gate`` fails on a ``cmp`` in
``ci.yml``, and ``tests/test_golden.py`` on an orphaned or missing
golden.

The two digests pin what the reports do not print: every client's
per-operation records of a fault-free traffic run, and the operation
timeline (start, end, outcome) of a faulted run whose clients retry.
"""

from __future__ import annotations

import hashlib
import os
import re

import pytest

from repro.cli import main
from repro.cluster import Cluster, TrafficConfig, run_cluster_traffic
from repro.faults import FaultSchedule
from tests import golden
from tests.conftest import PinnedFaults

CI_YML = os.path.join(os.path.dirname(__file__), os.pardir, ".github",
                      "workflows", "ci.yml")

_CLUSTER = ["cluster", "--shards", "4", "--clients", "200", "--dirs", "48",
            "--seed", "2026"]
_CLUSTER_CHAOS = ["cluster-chaos", "--shards", "4", "--clients", "160",
                  "--dirs", "32", "--seed", "2026", "--fail-shard", "1"]
_TRANSIENT = ["--faults", "2:transient_rate=0.05"]
# A summary is written to a file named ``json``, so that its golden is
# ``<name>.json``.
_JSON = ["--json", "json"]
_MULTICLIENT = ["multiclient", "--clients", "4", "--files", "20"]
_MKFS = ["mkfs", "m.img", "--fs"]

#: name -> (argv of each step, files pinned after the last step).
COMMANDS = {
    "cluster": ([_CLUSTER + _JSON], ["json"]),
    "cluster-hash": ([_CLUSTER + ["--router", "hash"] + _JSON], ["json"]),
    "cluster-faults": ([_CLUSTER + _TRANSIENT + _JSON], ["json"]),
    "cluster-chaos": ([_CLUSTER_CHAOS + _JSON], ["json"]),
    "cluster-chaos-faults": ([_CLUSTER_CHAOS + _TRANSIENT + _JSON], ["json"]),
    "multiclient-smallfile": (
        [_MULTICLIENT + ["--workload", "smallfile"]], []),
    "multiclient-postmark": (
        [_MULTICLIENT + ["--workload", "postmark"]], []),
    "multiclient-hypertext": (
        [_MULTICLIENT + ["--workload", "hypertext"]], []),
    "multiclient-sstf-softdep": (
        [_MULTICLIENT + ["--scheduler", "sstf", "--policy", "softdep",
                         "--phases", "create,read,overwrite,delete"]], []),
    "multiclient-fcfs-postmark": (
        [_MULTICLIENT + ["--scheduler", "fcfs", "--workload", "postmark"]],
        []),
    "multiclient-sstf-8": (
        [["multiclient", "--clients", "8", "--files", "40",
          "--scheduler", "sstf",
          "--phases", "create,read,overwrite,delete"]], []),
    "chaos-sustained": (
        [["chaos", "--scenario", "sustained", "--files", "80",
          "--seed", "2026"]], []),
    "chaos-exhaust": ([["chaos", "--scenario", "exhaust", "--seed", "2026"]],
                      []),
    "faultsim": (
        [["faultsim", "--files", "20", "--stride", "5", "--seed", "1997"]],
        []),
    "faultsim-journal": (
        [["faultsim", "--policy", "journal", "--files", "16",
          "--stride", "4", "--seed", "2026"]], []),
    "bench-softdep": (
        [["bench", "--files", "200", "--configs", "ffs,cffs",
          "--policy", "softdep"]], []),
    "trace-smallfile": (
        [["trace", "--workload", "smallfile", "--files", "100",
          "--format", "chrome", "--out", "trace.json",
          "--metrics", "metrics.json"]],
        ["trace.json.sha256", "metrics.json"]),
    "mkfs-ffs": ([_MKFS + ["ffs"]], ["m.img.sha256"]),
    "mkfs-cffs": ([_MKFS + ["cffs"]], ["m.img.sha256"]),
    "mkfs-conventional": (
        [_MKFS + ["cffs", "--no-embed", "--no-group"]], ["m.img.sha256"]),
    "journal-lifecycle": (
        [["mkfs", "j.img", "--policy", "journal"],
         ["put", "j.img", "h.txt", "/hello"],
         ["journal", "j.img"],
         ["fsck", "j.img"]],
        ["j.img.sha256"]),
    "resilient-lifecycle": (
        [["mkfs", "r.img", "--resilient"],
         ["put", "r.img", "h.txt", "/hello"],
         ["info", "r.img"],
         ["fsck", "r.img"],
         ["fsck", "r.img", "--repair"],
         ["ls", "r.img", "/"]],
        ["r.img.sha256"]),
}

#: The goldens the manifest writes: each entry's stdout and files.
GOLDENS = {"reports/%s.%s" % (name, pinned)
           for name, (_steps, files) in COMMANDS.items()
           for pinned in ["txt"] + files}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_output_matches_golden(name, tmp_path, capsys, monkeypatch):
    steps, files = COMMANDS[name]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "h.txt").write_text("hello\n")
    for argv in steps:
        assert main(argv) == 0, argv
    golden.pin_text("reports/%s.txt" % name, capsys.readouterr().out)
    for pinned in files:
        path = tmp_path / pinned.removesuffix(".sha256")
        text = (hashlib.sha256(path.read_bytes()).hexdigest() + "\n"
                if pinned.endswith(".sha256") else path.read_text())
        golden.pin_text("reports/%s.%s" % (name, pinned), text)


def test_summaries_clear_their_floors():
    # The goldens equal what the runs wrote, so a regenerated golden of a
    # failing run fails here.
    cluster = golden.data("reports/cluster.json")
    assert cluster["config"]["shards"] == 4
    assert cluster["totals"]["ops"] == 600
    assert cluster["balance"]["imbalance"] >= 0.0
    chaos = golden.data("reports/cluster-chaos.json")
    assert chaos["verdict"] == "PASS"
    assert chaos["availability"]["surviving"] >= chaos["availability"]["floor"]
    evacuation = chaos["evacuation"]
    assert evacuation["verified"] == evacuation["files"]
    assert not evacuation["mismatches"]
    assert evacuation["stranded"] == 0
    assert chaos["health"]["final"][1] == "FAILED"


def test_the_manifest_is_the_only_determinism_gate():
    with open(CI_YML) as handle:
        assert not re.search(r"\bcmp\b", handle.read()), (
            "ci.yml compares two runs; add a COMMANDS entry instead")


def _digest(rows) -> str:
    sha = hashlib.sha256()
    for row in rows:
        sha.update(repr(row).encode("ascii"))
        sha.update(b"\n")
    return sha.hexdigest() + "\n"


def _cluster(faults=None):
    cfg = TrafficConfig(shards=4, clients=200, dirs=48, seed=2026,
                        faults=faults)
    return cfg, Cluster(n_shards=cfg.shards, label=cfg.label,
                        policy=cfg.policy, scheduler=cfg.scheduler,
                        router=cfg.router, faults=cfg.faults)


def test_traffic_records_match_golden():
    cfg, cluster = _cluster()
    run_cluster_traffic(cfg, cluster=cluster)
    rows = []
    for client in cluster.clients:
        assert len(client.records) == len(client.leg_shards)
        for r, legs in zip(client.records, client.leg_shards):
            rows.append((r.phase, r.label, r.client, r.start, r.end,
                         r.n_requests, r.queue_delay, r.cpu_seconds,
                         r.retries, r.error, legs))
    assert len(rows) == 600
    golden.pin_text("reports/traffic-records.sha256", _digest(rows))


def test_retried_timeline_matches_golden():
    # Shard 2's drive-level retry absorbs a background transient rate;
    # shard 1 is armed once the cluster is up (as the chaos harness arms
    # its victim) with hard faults at chosen replayed requests.
    hard = PinnedFaults()
    cfg, cluster = _cluster({1: hard, 2: FaultSchedule(transient_rate=0.05)})
    for index in (3, 20, 21, 40, 41, 42, 90):
        hard.fail_write(index)
    hard.fail_read(7)
    run_cluster_traffic(cfg, cluster=cluster)
    # Backoff is in the timeline: some operations were retried.
    assert cluster.metrics.counter("cluster.retry.attempts").value > 0
    rows = [(r.phase, r.label, r.client, r.start, r.end, r.error)
            for client in cluster.clients for r in client.records]
    golden.pin_text("reports/retried-timeline.sha256", _digest(rows))
