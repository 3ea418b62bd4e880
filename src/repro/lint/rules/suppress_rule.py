"""S001: suppression hygiene — lint the linter's escape hatches.

Every ``# reprolint: disable=...`` directive must carry a rationale:
the text after the rule ids (conventionally separated by ``--``)
saying *why* the finding is acceptable.  A suppression without one is
itself a finding — an undocumented hole in the rule set that the next
reader cannot audit.

Mutation row (``tests/test_lint_mutations.py``): the rationale dropped
from the L001 waiver in ``BlockFileSystem._fetch_data_blocks``.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.core import Finding, LintModule, Rule


class SuppressionHygieneRule(Rule):
    id = "S001"
    title = "suppressions must carry a rationale"
    rationale = (
        "A suppression is a hole in the rule set; without a recorded "
        "reason nobody can tell a justified exception from a stale one."
    )

    def check(self, mod: LintModule, context: object) -> Iterator[Finding]:
        for directive in mod.suppressions.directives:
            if directive.rationale:
                continue
            yield Finding(
                rule=self.id,
                message=(
                    "suppression of %s has no rationale (write "
                    "\"# reprolint: %s=%s -- why it is safe\")"
                    % (", ".join(directive.rules), directive.kind,
                       ",".join(directive.rules))),
                path=mod.path,
                module=mod.module,
                line=directive.line,
                col=directive.col,
                suppressed=mod.suppressions.covers(self.id, directive.line),
            )
