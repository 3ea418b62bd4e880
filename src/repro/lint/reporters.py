"""Reporters: render a LintResult as human text or machine JSON.

The JSON form is stable (sorted findings, fixed keys) so CI diffs and
golden tests stay meaningful.
"""

from __future__ import annotations

import json
from typing import List

from repro.lint.runner import LintResult
from repro.lint.rules import rule_catalog


def render_text(result: LintResult, show_suppressed: bool = False) -> str:
    lines: List[str] = []
    for finding in result.unsuppressed:
        lines.append(
            "%s: %s %s" % (finding.location(), finding.rule, finding.message)
        )
    if show_suppressed:
        for finding in result.suppressed:
            lines.append(
                "%s: %s (suppressed) %s"
                % (finding.location(), finding.rule, finding.message)
            )
    lines.append(
        "checked %d file(s), %d rule(s): %d finding(s), %d suppressed"
        % (
            result.files_checked,
            len(result.rules_run),
            len(result.unsuppressed),
            len(result.suppressed),
        )
    )
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """Every finding, suppressed ones included, as a JSON document."""
    findings = [f.as_dict() for f in result.findings]
    payload = {
        "tool": "reprolint",
        "rules": {rule_id: rule.title
                  for rule_id, rule in rule_catalog().items()
                  if rule_id in result.rules_run},
        "files_checked": result.files_checked,
        "findings": findings,
        "counts": {
            "unsuppressed": len(result.unsuppressed),
            "suppressed": len(result.suppressed),
        },
        "ok": result.ok,
    }
    return json.dumps(payload, indent=2, sort_keys=True)
