"""Command line of the benchmark.

Three ways in:

- ``python3 benchmarks/perf/run.py --workload W --seed N --seconds S
  --trace 0|1`` measures one workload in this process and prints, as
  the last line of standard output, one JSON object with the keys
  ``correct``, ``attempted``, ``failed`` and ``metrics`` — the form the
  benchmark driver calls.
- ``PYTHONPATH=src python -m benchmarks.perf --seed N`` runs the whole
  suite: every workload, untraced then traced, each in its own child
  interpreter; prints every metric by name with its unit, applies the
  cross-workload checks, and writes one results file.
- ``python -m benchmarks.perf --compare A.json B.json`` compares two
  results files against the declared bounds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from typing import Dict, List, Optional

from benchmarks.perf import spec

RESULTS_SCHEMA = "repro-benchmark-results/1"

#: ``--smoke`` runs every workload at this fraction of its size.
SMOKE_SCALE = 20


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=1997,
                        help="feeds every input generator (default 1997)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed CPU-seconds to measure per run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--workload", default=None,
                        help="measure this one workload in this process")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 0 = end-to-end metrics, "
                             "untraced; 1 = per-layer metrics, traced")
    parser.add_argument("--workloads", default=None,
                        help="suite: comma-separated subset "
                             "(default: all of BENCHMARK.json)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="timed repeats per run, in place of --seconds")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at 1/%d size, one repeat; the "
                             "suite then checks the schema of its output"
                             % SMOKE_SCALE)
    parser.add_argument("--out", default=None,
                        help="suite: results file (default: "
                             "benchmarks/perf/out/results-seed<N>.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two results files and exit")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.seconds is None:
        args.seconds = float(spec.run_seconds())
    if args.smoke:
        args.repeats = 1
    if args.compare:
        from benchmarks.perf.compare import compare_files
        return compare_files(*args.compare)
    if args.workload is not None:
        return _single(args)
    return _suite(args)


# -- one run -----------------------------------------------------------------------


def _single(args) -> int:
    from benchmarks.perf import runner

    if args.workload not in spec.workload_names():
        print("unknown workload %r; known: %s"
              % (args.workload, ", ".join(spec.workload_names())),
              file=sys.stderr)
        return 2
    scale = SMOKE_SCALE if args.smoke else 1
    if args.trace:
        result = runner.run_per_layer(
            args.workload, args.seed, scale, spec.OUT_DIR)
        wanted = spec.per_layer()
    else:
        result = runner.run_end_to_end(
            args.workload, args.seed, args.seconds, args.repeats,
            scale, spec.OUT_DIR)
        wanted = spec.end_to_end()
    metrics = {m["name"]: {"value": result["metrics"][m["name"]],
                           "unit": m["unit"]} for m in wanted}

    print("%s  seed %d  trace %d  size 1/%d"
          % (args.workload, args.seed, args.trace, scale))
    detail = result["detail"]
    if detail is not None:
        host = detail["host"]
        print("  %d timed repeats; timed-section reference CPU-s "
              "quartiles %s; wall/CPU %.3f" % (
                  detail["repeats"],
                  "/".join("%.3f" % q for q in host["host_s_quartiles"]),
                  host["wall_over_cpu"]))
        print("  %d set-ups; set-up reference CPU-s quartiles %s" % (
            len(host["setup_s"]),
            "/".join("%.4f" % q for q in host["setup_s_quartiles"])))
        print("  latency samples: %(ops)d ops, %(reads)d reads, "
              "%(writes)d writes" % detail["samples"])
    for name, entry in metrics.items():
        print("  %-34s %14.6g %s" % (name, entry["value"], entry["unit"]))
    for problem in result["problems"]:
        print("CHECK FAILED: %s" % problem, file=sys.stderr)
    correct = not result["problems"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


# -- the suite ---------------------------------------------------------------------


def _child(name: str, trace: int, args) -> Dict[str, object]:
    """Run one workload in its own interpreter; returns its result line."""
    cmd = [sys.executable, os.path.join(spec.HERE, "run.py"),
           "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.smoke:
        cmd.append("--smoke")
    elif args.repeats is not None:
        cmd += ["--repeats", str(args.repeats)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit("%s (trace %d) printed no result; exit code %d"
                         % (name, trace, proc.returncode))
    return json.loads(lines[-1])


def _values(line: Dict[str, object]) -> Dict[str, float]:
    return {name: entry["value"] for name, entry in line["metrics"].items()}


def _suite(args) -> int:
    names = (args.workloads.split(",") if args.workloads
             else spec.workload_names())
    unknown = [n for n in names if n not in spec.workload_names()]
    if unknown:
        print("unknown workload(s): %s" % ", ".join(unknown), file=sys.stderr)
        return 2

    results: Dict[str, dict] = {}
    for name in names:
        print("running %s ..." % name, flush=True)
        untraced = _child(name, 0, args)
        traced = _child(name, 1, args)
        with open(os.path.join(spec.OUT_DIR, "run-%s.json" % name),
                  encoding="utf-8") as src:
            run = json.load(src)
        results[name] = {
            "correct": bool(untraced["correct"] and traced["correct"]),
            "attempted": untraced["attempted"],
            "failed": untraced["failed"],
            "fail_ratio": untraced["failed"] / untraced["attempted"],
            "end_to_end": _values(untraced),
            "per_layer": _values(traced),
            "run": run,
        }

    units = {m["name"]: m["unit"]
             for m in spec.end_to_end() + spec.per_layer()}
    for name, entry in results.items():
        print("\n%s  (%d repeats, fail_ratio %g)"
              % (name, entry["run"]["repeats"], entry["fail_ratio"]))
        for table in ("end_to_end", "per_layer"):
            for metric, value in entry[table].items():
                print("  %-34s %14.6g %s" % (metric, value, units[metric]))

    checks = [{"name": "%s: output checks" % name, "ok": entry["correct"],
               "detail": "; ".join(entry["run"]["problems"]) or "all passed"}
              for name, entry in results.items()]
    if args.smoke:
        checks.append(_schema_check(results))
    else:
        checks += _full_size_checks(results)
    print()
    for check in checks:
        print("%s  %s  (%s)" % ("PASS" if check["ok"] else "FAIL",
                                check["name"], check["detail"]))

    out = args.out or os.path.join(
        spec.OUT_DIR, "results-seed%d.json" % args.seed)
    with open(out, "w", encoding="utf-8") as dst:
        json.dump({
            "schema": RESULTS_SCHEMA, "seed": args.seed,
            "seconds": args.seconds, "repeats": args.repeats,
            "smoke": args.smoke,
            "python": "%d.%d.%d" % sys.version_info[:3],
            "workloads": results, "checks": checks,
        }, dst, indent=1, sort_keys=True)
        dst.write("\n")
    print("\nresults written to %s" % os.path.relpath(out))
    return 0 if all(check["ok"] for check in checks) else 1


def _full_size_checks(results: Dict[str, dict]) -> List[dict]:
    """Checks that only hold at full size: the paper's shape across the
    two smallfile workloads, and the isolation each workload promises."""
    checks: List[dict] = []

    def check(name: str, ok: bool, detail: str) -> None:
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    cffs, ffs = results.get("smallfile-cffs"), results.get("smallfile-ffs")
    if cffs and ffs:
        speed = (cffs["end_to_end"]["sim_ops_per_s"]
                 / ffs["end_to_end"]["sim_ops_per_s"])
        check("paper shape: C-FFS small-file throughput >= 3x FFS",
              speed >= 3.0, "%.2fx in simulated time" % speed)
        fewer = (ffs["run"]["phases"]["read"]["disk_requests"]
                 / cffs["run"]["phases"]["read"]["disk_requests"])
        check("paper shape: C-FFS read phase needs >= 8x fewer disk requests",
              fewer >= 8.0, "%.1fx fewer" % fewer)

    # Which layers may do work on which workload; everything else must
    # count zero there.
    active = {
        "ffs": {"smallfile-ffs"},
        "core": set(results) - {"smallfile-ffs"},
        "engine": {"multiclient-8", "cluster-zipf"},
        "cluster": {"cluster-zipf"},
        "journal": {"postmark-journal"},
        "fsck": {"postmark-journal"},
        "resilience": {"webserve-resilient"},
    }
    for name, entry in results.items():
        layer = entry["per_layer"]
        check("%s: trace covers the timed section" % name,
              layer["trace.coverage_ratio"] >= 0.95,
              "coverage %.3f, bar 0.95" % layer["trace.coverage_ratio"])
        check("%s: generator cost stays small" % name,
              layer["workloads.host_share"] < 0.10,
              "workloads.host_share %.3f, bar 0.10"
              % layer["workloads.host_share"])
        for prefix, where in active.items():
            values = {k: v for k, v in layer.items()
                      if k.startswith(prefix + ".")}
            if name in where:
                ok = any(values.values())
                what = "does work"
            else:
                ok = not any(values.values())
                what = "does none"
            check("%s: %s %s" % (name, prefix, what), ok,
                  "non-zero: %s" % (", ".join(
                      k for k, v in values.items() if v) or "none"))
    web = results.get("webserve-resilient")
    if web:
        shares = {k: v for k, v in web["per_layer"].items()
                  if k.endswith(".host_share")}
        top = max(shares, key=shares.get)
        check("webserve-resilient: resilience has the largest host share",
              top == "resilience.host_share",
              "%s = %.3f" % (top, shares[top]))
    return checks


def _schema_check(results: Dict[str, dict]) -> dict:
    """Every declared metric present, well named, finite or null."""
    bad: List[str] = []
    for name, entry in results.items():
        for table, wanted in (("end_to_end", spec.end_to_end()),
                              ("per_layer", spec.per_layer())):
            for metric in wanted:
                key = metric["name"]
                if not spec.NAME.match(key):
                    bad.append("%s is not a valid metric name" % key)
                if key not in entry[table]:
                    bad.append("%s lacks %s" % (name, key))
                    continue
                value = entry[table][key]
                if value is not None and not (
                        isinstance(value, (int, float))
                        and math.isfinite(value)):
                    bad.append("%s: %s is %r" % (name, key, value))
    return {"name": "schema: every declared metric present and finite",
            "ok": not bad, "detail": "; ".join(bad[:5]) or "all present"}
