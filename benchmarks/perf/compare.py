"""``--compare A.json B.json``: is B worse than A beyond the bounds?

For every workload both files hold and every end-to-end metric, prints
both values, B's difference relative to A, and PASS or FAIL against the
bound ``BENCHMARK.json`` declares for that metric.  Metrics that are a
pure function of the seed must be *identical* when the two files were
run with the same seed; so must ``fail_ratio``.  ``setup_s`` never
fails on a difference below ``spec.SETUP_FLOOR_S`` seconds.

A timing whose samples inside either run spread wider than its bound
(distance between the quartiles over the median) cannot tell a
regression of that size from noise: its verdict is UNRESOLVED, which
is neither a pass nor a failure.
"""

from __future__ import annotations

import json
import statistics
from typing import Dict, List

from benchmarks.perf import spec

#: End-to-end timing -> the samples behind it in a run's detail.
SAMPLES = {"host_ops_per_s": "host_s", "setup_s": "setup_s"}


def _load(path: str) -> Dict[str, object]:
    with open(path, encoding="utf-8") as src:
        return json.load(src)


def _spread(samples: List[float]) -> float:
    """Distance between the quartiles as a share of the median; a
    sample too small to have quartiles resolves nothing."""
    if len(samples) < 3:
        return float("inf")
    low, _, high = statistics.quantiles(samples, n=4)
    return (high - low) / statistics.median(samples)


def compare_files(path_a: str, path_b: str) -> int:
    """Print the comparison; returns 1 if any pairing fails, else 0."""
    a, b = _load(path_a), _load(path_b)
    same_seed = a["seed"] == b["seed"]
    print("A = %s (seed %s)\nB = %s (seed %s)%s" % (
        path_a, a["seed"], path_b, b["seed"],
        "" if same_seed else
        "\nseeds differ: simulated metrics are held to their bounds, "
        "not to equality"))
    print("%-20s %-18s %14s %14s %9s  %s"
          % ("workload", "metric", "A", "B", "diff", "verdict"))
    failures = unresolved = 0
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        rows = [(m["name"], m["better"], m["bound"],
                 wa["end_to_end"][m["name"]], wb["end_to_end"][m["name"]])
                for m in spec.end_to_end()]
        rows.append(("fail_ratio", "lower", 0.0,
                     wa["fail_ratio"], wb["fail_ratio"]))
        for metric, better, bound, va, vb in rows:
            exact = metric == "fail_ratio" or (
                same_seed and not spec.on_host_clock(metric))
            worse_by = (vb - va) if better == "lower" else (va - vb)
            if exact:
                ok = va == vb
                rule = "must be identical"
            elif metric == "setup_s":
                ok = worse_by <= max(bound * va, spec.SETUP_FLOOR_S)
                rule = "bound %g%% or %gs" % (
                    bound * 100, spec.SETUP_FLOOR_S)
            else:
                ok = worse_by <= bound * va
                rule = "bound %g%%" % (bound * 100)
            verdict = "PASS" if ok else "FAIL"
            below_floor = (metric == "setup_s"
                           and abs(vb - va) <= spec.SETUP_FLOOR_S)
            if metric in SAMPLES and not below_floor:
                spread = max(_spread(w["run"]["host"][SAMPLES[metric]])
                             for w in (wa, wb))
                if spread > bound:
                    verdict = "UNRESOLVED"
                    rule += "; in-run spread %.0f%%" % (spread * 100)
            failures += verdict == "FAIL"
            unresolved += verdict == "UNRESOLVED"
            diff = (vb - va) / va if va else 0.0
            print("%-20s %-18s %14.6g %14.6g %+8.2f%%  %s (%s)" % (
                name, metric, va, vb, diff * 100, verdict, rule))
    print("%d pairing(s) failed, %d unresolved" % (failures, unresolved))
    return 1 if failures else 0
