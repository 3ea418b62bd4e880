"""Seeded reports pinned across commits.

The CI smoke jobs compare two runs of the *same* commit, which proves a
report is deterministic but not that a refactor left it alone.  These
goldens (``tests/golden/reports/``) are what each command printed, and
wrote with ``--json``, at the commit that added this file; a change that
moves a simulated number, a counter or a line of a report has to
regenerate them on purpose:

    REPRO_REGEN_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_report_goldens.py

The two digests pin what the reports do not print: every client's
per-operation records of a fault-free traffic run, and the operation
timeline (start, end, outcome) of a faulted run whose clients retry.
"""

from __future__ import annotations

import hashlib
import os

import pytest

from repro.cli import main
from repro.cluster import Cluster, TrafficConfig, run_cluster_traffic
from repro.faults import FaultSchedule
from tests.conftest import PinnedFaults

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden", "reports")
REGEN = os.environ.get("REPRO_REGEN_GOLDENS") == "1"

_CLUSTER = ["cluster", "--shards", "4", "--clients", "200", "--dirs", "48",
            "--seed", "2026"]
_CLUSTER_CHAOS = ["cluster-chaos", "--shards", "4", "--clients", "160",
                  "--dirs", "32", "--seed", "2026", "--fail-shard", "1"]
_TRANSIENT = ["--faults", "2:transient_rate=0.05"]

#: name -> (argv, whether the command takes ``--json PATH``).
COMMANDS = {
    "cluster": (_CLUSTER, True),
    "cluster-hash": (_CLUSTER + ["--router", "hash"], True),
    "cluster-faults": (_CLUSTER + _TRANSIENT, True),
    "cluster-chaos": (_CLUSTER_CHAOS, True),
    "cluster-chaos-faults": (_CLUSTER_CHAOS + _TRANSIENT, True),
    "multiclient-smallfile": (
        ["multiclient", "--clients", "4", "--files", "20",
         "--workload", "smallfile"], False),
    "multiclient-postmark": (
        ["multiclient", "--clients", "4", "--files", "20",
         "--workload", "postmark"], False),
    "multiclient-hypertext": (
        ["multiclient", "--clients", "4", "--files", "20",
         "--workload", "hypertext"], False),
    "chaos-sustained": (
        ["chaos", "--scenario", "sustained", "--files", "80",
         "--seed", "2026"], False),
}


def _check(name: str, text: str) -> None:
    path = os.path.join(GOLDEN_DIR, name)
    if REGEN:
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(path, "w") as handle:
            handle.write(text)
        return
    with open(path) as handle:
        assert text == handle.read(), "%s moved" % name


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_output_matches_golden(name, tmp_path, capsys):
    argv, takes_json = COMMANDS[name]
    summary = tmp_path / "summary.json"
    if takes_json:
        argv = argv + ["--json", str(summary)]
    assert main(argv) == 0
    _check(name + ".txt", capsys.readouterr().out)
    if takes_json:
        _check(name + ".json", summary.read_text())


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
    _check("traffic-records.sha256", _digest(rows))


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
    _check("retried-timeline.sha256", _digest(rows))
