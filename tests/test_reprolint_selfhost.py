"""The permanent gate: reprolint runs clean over its own source tree.

Any new violation must either be fixed or carry an explanatory
suppression comment; this test is what CI and local pytest enforce.
The flow-sensitive rules (B001/J001/O001) hold the same bar under
``--flow``, and the committed golden baseline
(tests/golden/lint_flow_baseline.json) pins the full JSON report so a
CI diff shows exactly which finding or suppression moved.
"""

import json
import os
import subprocess
import sys

from repro.lint import lint_paths
from repro.lint.reporters import render_json

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src", "repro")
FLOW_BASELINE = os.path.join(
    REPO_ROOT, "tests", "golden", "lint_flow_baseline.json")


def test_src_tree_has_no_unsuppressed_findings():
    result = lint_paths([SRC])
    assert result.files_checked > 50  # the walk found the real tree
    offenders = [
        "%s:%d: %s %s" % (f.path, f.line, f.rule, f.message)
        for f in result.unsuppressed
    ]
    assert not offenders, "unsuppressed lint findings:\n" + "\n".join(offenders)


def test_src_tree_is_flow_clean():
    # The tentpole gate: zero unsuppressed B001/J001/O001 findings.
    result = lint_paths([SRC], flow=True)
    offenders = [
        "%s:%d: %s %s" % (f.path, f.line, f.rule, f.message)
        for f in result.unsuppressed
    ]
    assert not offenders, "unsuppressed flow findings:\n" + "\n".join(offenders)
    assert {"B001", "J001", "O001"} <= set(result.rules_run)


def test_flow_report_matches_committed_baseline():
    # Regenerate with:
    #   PYTHONPATH=src python -m repro lint src --flow --format json \
    #       > tests/golden/lint_flow_baseline.json
    # (run from the repo root, then review the diff before committing).
    result = lint_paths([SRC], flow=True)
    current = json.loads(render_json(result))
    with open(FLOW_BASELINE, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    # Paths in the committed baseline are repo-relative; normalise ours.
    for finding in current["findings"]:
        finding["path"] = os.path.relpath(finding["path"], REPO_ROOT)
    assert current == baseline


def test_suppressions_are_finite_and_audited():
    # Suppressions are a budget, not a loophole: if this number climbs,
    # justify each new entry here and in the suppressing comment.
    # Current budget: 13 PR-3/PR-5-era suppressions, +1 for the second
    # (else-arm) read_extent of the guarded group_fetch span, +2 D001
    # fixture strings, +3 J001 conditional-mutation codec calls, -1 when
    # the two make_* factory imports became BlockFileSystem.fresh, -5
    # wall-clock reads (D001) deleted with the second perf harness.
    result = lint_paths([SRC], flow=True)
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
    assert "0 finding(s)" in proc.stdout


def test_cli_lint_flow_exits_zero_on_clean_tree():
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO_ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", SRC, "--flow"],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 finding(s)" in proc.stdout
    assert "9 rule(s)" in proc.stdout


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
