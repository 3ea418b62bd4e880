"""Run the rule set over a file tree and aggregate findings.

The runner does a two-phase pass: first every file is parsed and the
cross-module state is built — the program index (so F001 can resolve a
format string through ``from repro.ffs.layout import
DIRENT_HEADER_FMT``) and the call-graph summaries J001 and O001 read —
then each rule visits each module.  Findings covered by a suppression
directive are kept but marked, so reporters can audit them; the run
fails only on unsuppressed findings.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Iterable, List, Optional, Sequence

from repro.lint.core import (
    Finding,
    LintError,
    LintModule,
    Rule,
    findings_sorted,
    load_module,
)
from repro.lint.flow.callgraph import FlowContext
from repro.lint.program import Program, Unit
from repro.lint.rules import RULES

SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", "build", "dist"}


@dataclass
class LintContext:
    """Shared state rules may consult during a run."""

    #: what every name of the linted modules stands for (F001).
    program: Program
    #: call-graph summaries of every linted function (J001, O001).
    flow: FlowContext


@dataclass
class LintResult:
    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    rules_run: Sequence[str] = ()

    @property
    def unsuppressed(self) -> List[Finding]:
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> List[Finding]:
        return [f for f in self.findings if f.suppressed]

    @property
    def ok(self) -> bool:
        return not self.unsuppressed


def collect_files(paths: Iterable[str]) -> List[str]:
    """Expand files/directories into a sorted list of .py files."""
    out: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                out.append(path)
        elif os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(d for d in dirs if d not in SKIP_DIRS)
                for name in sorted(files):
                    if name.endswith(".py"):
                        out.append(os.path.join(root, name))
        else:
            raise LintError("no such file or directory: %s" % path)
    return sorted(set(out))


def _select_rules(rule_ids: Optional[Sequence[str]]) -> List[Rule]:
    """The rules this run executes: all of them unless ``rule_ids``
    names some."""
    if rule_ids is None:
        return list(RULES)
    wanted = set(rule_ids)
    known = {rule.id for rule in RULES}
    unknown = wanted - known
    if unknown:
        raise LintError(
            "unknown rule id(s): %s (known: %s)"
            % (", ".join(sorted(unknown)), ", ".join(sorted(known)))
        )
    return [rule for rule in RULES if rule.id in wanted]


def lint_modules(
    modules: Sequence[LintModule],
    rule_ids: Optional[Sequence[str]] = None,
) -> LintResult:
    rules = _select_rules(rule_ids)
    context = LintContext(
        program=Program(Unit(mod.module, mod.path, mod.tree)
                        for mod in modules),
        flow=FlowContext(modules))
    findings: List[Finding] = []
    for mod in modules:
        for rule in rules:
            findings.extend(
                replace(f, function=mod.function_at(f.line))
                for f in rule.check(mod, context))
    return LintResult(
        findings=findings_sorted(findings),
        files_checked=len(modules),
        rules_run=tuple(rule.id for rule in rules),
    )


def lint_paths(
    paths: Iterable[str],
    rule_ids: Optional[Sequence[str]] = None,
) -> LintResult:
    """Lint every .py file under ``paths`` (files or directories)."""
    modules = [load_module(path) for path in collect_files(paths)]
    return lint_modules(modules, rule_ids)

