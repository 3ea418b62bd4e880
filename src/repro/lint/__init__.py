"""reprolint: domain-aware static analysis for the C-FFS reproduction.

The simulator's correctness argument rests on a handful of repo-wide
invariants that ordinary linters cannot see:

* **layering** — all I/O from the file-system layers goes through the
  buffer cache; only the fault and engine layers may wrap the device
  (rule L001);
* **determinism** — two runs with the same seed are bit-identical, so
  no wall-clock reads and no module-level ``random`` state (rule D001);
* **error taxonomy** — everything operational raised in ``src/repro``
  derives from :class:`repro.errors.ReproError` (rule E001);
* **on-disk format** — every ``struct`` format string carries an
  explicit endianness marker and matches its argument count (rule F001);
* **metadata ordering** — every edit of cached metadata reaches an
  ordering seam on every path out of the function (rule J001);
* **hot-path discipline** — loops the workloads reach guard their
  spans and use precompiled codecs (rule O001).

``python -m repro lint src`` runs the pass; findings can be silenced
per line with ``# reprolint: disable=RULE`` (with a comment explaining
why) or per file with ``# reprolint: disable-file=RULE``.
"""

from repro.lint.core import Finding, LintModule, Rule, load_module, load_source
from repro.lint.runner import LintResult, lint_modules, lint_paths
from repro.lint.rules import RULES, rule_catalog

__all__ = [
    "Finding",
    "LintModule",
    "LintResult",
    "RULES",
    "Rule",
    "lint_modules",
    "lint_paths",
    "load_module",
    "load_source",
    "rule_catalog",
]
