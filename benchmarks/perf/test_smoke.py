"""Smoke test of the benchmark itself (not part of tier-1).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/perf/test_smoke.py -q \
        --override-ini "addopts="

It drives ``python -m benchmarks.perf --smoke``: every workload at 1/20
size, one repeat, the traced run included, ending in the schema check
of its own output.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def test_smoke_suite_passes_its_own_schema_check(tmp_path):
    out = tmp_path / "smoke.json"
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.perf", "--smoke",
         "--out", str(out)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    doc = json.loads(out.read_text())
    assert doc["smoke"] and doc["repeats"] == 1
    assert len(doc["workloads"]) == 6
    assert all(check["ok"] for check in doc["checks"])
    assert any(check["name"].startswith("schema") for check in doc["checks"])
