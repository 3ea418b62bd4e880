"""Rule registry: one module per rule family, registered here.

To add a rule: write a :class:`repro.lint.core.Rule` subclass in a new
module under ``repro/lint/rules/``, give it a fresh id (letter +
three digits), append an instance to :data:`RULES`, and give it a row
in ``tests/test_lint_mutations.py`` (docs/STATIC_ANALYSIS.md, "Adding a
rule").  The id is the suppression token, so it must never be recycled
for a different check.
"""

from __future__ import annotations

from typing import Dict, List

from repro.lint.core import Rule
from repro.lint.rules.layering import LayeringRule
from repro.lint.rules.determinism import DeterminismRule
from repro.lint.rules.errors_rule import ErrorTaxonomyRule
from repro.lint.rules.structfmt import StructFormatRule
from repro.lint.rules.suppress_rule import SuppressionHygieneRule
from repro.lint.rules.jorder import JournalOrderingRule
from repro.lint.rules.hotpath import HotPathRule

RULES: List[Rule] = [
    LayeringRule(),
    DeterminismRule(),
    ErrorTaxonomyRule(),
    StructFormatRule(),
    SuppressionHygieneRule(),
    JournalOrderingRule(),
    HotPathRule(),
]


def rule_catalog() -> Dict[str, Rule]:
    return {rule.id: rule for rule in RULES}
