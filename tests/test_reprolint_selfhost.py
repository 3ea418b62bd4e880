"""The permanent gate: reprolint runs clean over its own source tree.

Any new violation must either be fixed or carry an explanatory
suppression comment; this test is what CI and local pytest enforce.
The committed golden baseline (tests/golden/lint_baseline.json) pins
the position-free report of the one rule set, so a CI diff shows
exactly which finding or suppression moved.
"""

import difflib
import functools
import json
import os
import subprocess
import sys

from repro.lint import lint_paths
from repro.lint.reporters import render_json

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src", "repro")
BASELINE = os.path.join(REPO_ROOT, "tests", "golden", "lint_baseline.json")


@functools.lru_cache(maxsize=None)
def tree_result():
    """The one lint run over the source tree the tests below read."""
    return lint_paths([SRC])


def test_src_tree_has_no_unsuppressed_findings():
    result = tree_result()
    assert result.files_checked > 50  # the walk found the real tree
    offenders = [
        "%s:%d: %s %s" % (f.path, f.line, f.rule, f.message)
        for f in result.unsuppressed
    ]
    assert not offenders, "unsuppressed lint findings:\n" + "\n".join(offenders)


def test_src_tree_is_flow_clean():
    # The flow-engine rules are part of the one rule set: no switch.
    assert {"J001", "O001"} <= set(tree_result().rules_run)


def position_free_report(result) -> str:
    """The report in the form the committed baseline pins.

    A finding is named by rule, module, enclosing function and message,
    plus its index among the findings that share those four (in line
    order).  No path, line, column or file count: a refactor that moves
    no finding leaves the committed file untouched.
    """
    report = json.loads(render_json(result))
    del report["files_checked"]
    seen = {}
    findings = []
    for f in result.findings:
        key = (f.module, f.function, f.rule, f.message)
        seen[key] = seen.get(key, 0) + 1
        findings.append({
            "module": f.module, "function": f.function, "rule": f.rule,
            "message": f.message, "occurrence": seen[key] - 1,
            "suppressed": f.suppressed,
        })
    report["findings"] = sorted(findings, key=lambda d: (
        d["module"], d["function"], d["rule"], d["message"], d["occurrence"]))
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def baseline_diff() -> str:
    """Unified diff of the committed baseline against the current tree
    (empty when they agree); CI's reprolint step prints and tests it."""
    current = position_free_report(tree_result())
    if os.environ.get("REPRO_REGEN_GOLDENS") == "1":
        with open(BASELINE, "w", encoding="utf-8") as handle:
            handle.write(current)
    with open(BASELINE, "r", encoding="utf-8") as handle:
        committed = handle.read()
    return "".join(difflib.unified_diff(
        committed.splitlines(True), current.splitlines(True),
        "tests/golden/lint_baseline.json", "current"))


def test_report_matches_committed_baseline():
    # The committed report moves only when a finding or suppression
    # appears, disappears or changes function.  Regenerate, then review
    # the diff, with
    #   REPRO_REGEN_GOLDENS=1 PYTHONPATH=src python -m pytest \
    #       tests/test_reprolint_selfhost.py -k baseline
    assert baseline_diff() == ""


def test_suppressions_are_finite_and_audited():
    # Suppressions are a budget, not a loophole: if this number climbs,
    # justify each new entry here and in the suppressing comment.
    # Current budget: 13 PR-3/PR-5-era suppressions, +1 for the second
    # (else-arm) read_extent of the guarded group_fetch span, +2 D001
    # fixture strings, +3 J001 conditional-mutation codec calls, -1 when
    # the two make_* factory imports became BlockFileSystem.fresh, -5
    # wall-clock reads (D001) deleted with the second perf harness.
    result = tree_result()
    assert len(result.suppressed) <= 13
    # And every one of them carries a rationale (S001 self-host).
    assert "S001" not in {f.rule for f in result.findings if not f.suppressed}


def test_cli_lint_exits_zero_on_clean_tree():
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", SRC],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "7 rule(s): 0 finding(s)" in proc.stdout


def test_cli_lint_flow_exits_zero_on_clean_tree():
    # The flow rules are selected by id like any other.
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", SRC, "--rules", "J001,O001"],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "2 rule(s): 0 finding(s), 3 suppressed" in proc.stdout


def test_cli_lint_exits_nonzero_on_violation(tmp_path):
    bad = tmp_path / "src" / "repro" / "ffs" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("from repro.disk.drive import Drive\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", str(bad), "--format", "json"],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 1
    assert '"ok": false' in proc.stdout
