"""D001 — determinism: no wall clock, no module-level random state,
no salted builtin ``hash()``.

Every benchmark number this repo produces is *simulated* time, and the
crash-point sweeps replay exact sequences of cache states; both break
silently if any code path consults the host clock or shared RNG state.
Time comes from :class:`repro.clock.SimClock` instances; randomness
comes from an explicitly seeded ``random.Random`` threaded through
constructors (``random.Random(seed)`` is the one blessed attribute).
The builtin ``hash()`` of a ``str`` or ``bytes`` differs from process
to process, so nothing seeded or written to an image may derive from
it; only a ``__hash__`` method, whose value never leaves the process,
may call it.

Mutation row (``tests/test_lint_mutations.py``): a replayed trace's
payload seeded from ``hash()`` instead of a CRC, the defect the
``hash()`` check was added for.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator

from repro.lint.core import Finding, LintModule, Rule, dotted_name

WALL_CLOCK_CALLS: FrozenSet[str] = frozenset(
    {
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns", "time.process_time",
        "datetime.now", "datetime.utcnow", "datetime.today",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    }
)

# The only attribute of the random module usable in src/repro: the
# seedable generator class.  Everything else (random.random, .seed,
# .choice, even SystemRandom) is shared or OS-entropy state.
ALLOWED_RANDOM_ATTRS: FrozenSet[str] = frozenset({"Random"})

WALL_CLOCK_FROM_IMPORTS: FrozenSet[str] = frozenset(
    {"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
     "perf_counter_ns", "process_time"}
)


class DeterminismRule(Rule):
    id = "D001"
    title = "determinism: wall clock and module-level random are forbidden"
    rationale = (
        "seeded runs must be bit-identical; simulated time comes from "
        "repro.clock, randomness from an injected random.Random(seed)"
    )

    def check(self, mod: LintModule, context: object) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                yield from self._check_from_import(mod, node)
            elif isinstance(node, ast.Call):
                yield from self._check_call(mod, node)
            elif isinstance(node, ast.Attribute):
                yield from self._check_random_attr(mod, node)

    def _check_from_import(
        self, mod: LintModule, node: ast.ImportFrom
    ) -> Iterator[Finding]:
        if node.module == "random":
            for alias in node.names:
                if alias.name not in ALLOWED_RANDOM_ATTRS:
                    yield self.found(
                        mod,
                        node,
                        "from random import %s: module-level random state; "
                        "thread a seeded random.Random through the constructor"
                        % alias.name,
                    )
        elif node.module == "time":
            for alias in node.names:
                if alias.name in WALL_CLOCK_FROM_IMPORTS:
                    yield self.found(
                        mod,
                        node,
                        "from time import %s: wall clock reads break "
                        "deterministic replay; use repro.clock.SimClock"
                        % alias.name,
                    )

    def _check_call(self, mod: LintModule, node: ast.Call) -> Iterator[Finding]:
        name = dotted_name(node.func)
        if name in WALL_CLOCK_CALLS:
            yield self.found(
                mod,
                node,
                "%s(): wall clock reads break deterministic replay; "
                "simulated time lives in repro.clock.SimClock" % name,
            )
        elif (name == "hash" and mod.module.split(".")[0] == "repro"
              and not mod.function_at(node.lineno).endswith("__hash__")):
            yield self.found(
                mod,
                node,
                "hash(): the builtin is salted per process "
                "(PYTHONHASHSEED); derive seeds and digests from a CRC of the "
                "encoded value",
            )

    def _check_random_attr(
        self, mod: LintModule, node: ast.Attribute
    ) -> Iterator[Finding]:
        if (
            isinstance(node.value, ast.Name)
            and node.value.id == "random"
            and node.attr not in ALLOWED_RANDOM_ATTRS
        ):
            yield self.found(
                mod,
                node,
                "random.%s: module-level random state is shared across the "
                "process; use an explicitly seeded random.Random instance"
                % node.attr,
            )
