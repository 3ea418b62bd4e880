"""O001: hot-path discipline for loops the workload drivers reach.

A function is *hot* when the call-graph summary reaches it from the
workload-driver roots (smallfile, postmark, multiclient).  Inside a
loop of a hot function:

* ``obs.span(...)`` / ``obs.record(...)`` sites must sit under an
  ``if obs.enabled():`` guard.  The NULL_SPAN disabled path is cheap
  but not free — building the span's attribute dict per block wrecks
  the zero-allocation budget test the cache hit loop lives under.
* module-level ``struct.pack/unpack/unpack_from/pack_into/calcsize``
  calls re-parse the format string per iteration; hot loops must use
  a precompiled ``struct.Struct`` (the PR 7 codec convention).

The obs package itself is exempt (it implements the discipline), as
is the lint tree (never hot, and full of fixture strings).

Mutation rows (``tests/test_lint_mutations.py``): the group fetch's
span built unguarded in ``CFFS._fetch_data_blocks``, and the embedded
dirent header re-parsed from ``DENT_HEADER_FMT`` in the chain walk of
``core/directory.py`` — the two costs this rule was written to keep
out.  Neither moves a simulated number or an allocation budget.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional

from repro.lint.core import Finding, LintModule, Rule, dotted_name
from repro.lint.flow.callgraph import FunctionInfo

_LOOPS = (ast.For, ast.AsyncFor, ast.While)
_OBS_CALLS = frozenset({"span", "record"})
_STRUCT_MODULE_CALLS = frozenset(
    {"pack", "unpack", "unpack_from", "pack_into", "iter_unpack", "calcsize"})


def _parents(func: ast.AST) -> Dict[int, ast.AST]:
    out: Dict[int, ast.AST] = {}
    stack: List[ast.AST] = [func]
    while stack:
        node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # nested defs are their own hot-or-not functions
            out[id(child)] = node
            stack.append(child)
    return out


def _enclosing_loop(node: ast.AST, parents: Dict[int, ast.AST],
                    func: ast.AST) -> Optional[ast.AST]:
    cur: Optional[ast.AST] = parents.get(id(node))
    while cur is not None and cur is not func:
        if isinstance(cur, _LOOPS):
            return cur
        cur = parents.get(id(cur))
    return None


def _has_enabled_guard(node: ast.AST, parents: Dict[int, ast.AST],
                       func: ast.AST) -> bool:
    cur: Optional[ast.AST] = parents.get(id(node))
    while cur is not None and cur is not func:
        if isinstance(cur, ast.If):
            for sub in ast.walk(cur.test):
                if (isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr == "enabled"):
                    return True
        cur = parents.get(id(cur))
    return False


class HotPathRule(Rule):
    id = "O001"
    title = "hot-loop observability guards and allocation discipline"
    rationale = (
        "Loops reachable from the workload-driver roots dominate the "
        "benchmark; unguarded span/record sites and per-iteration "
        "struct format parsing there are exactly the costs the PR 7 "
        "hot-path overhaul removed."
    )

    def check(self, mod: LintModule, context: object) -> Iterator[Finding]:
        if not mod.module.startswith("repro"):
            return
        if mod.module.startswith(("repro.obs", "repro.lint")):
            return
        flow = context.flow  # type: ignore[attr-defined]
        for info in flow.functions_in(mod):
            if not info.hot:
                continue
            yield from self._check_function(mod, info)

    def _check_function(self, mod: LintModule,
                        info: FunctionInfo) -> Iterator[Finding]:
        func = info.node
        parents = _parents(func)
        for sub in ast.walk(func):
            if not isinstance(sub, ast.Call):
                continue
            if id(sub) not in parents:
                continue  # inside a nested def: audited as its own function
            func_expr = sub.func
            if not isinstance(func_expr, ast.Attribute):
                continue
            if _enclosing_loop(sub, parents, func) is None:
                continue
            attr = func_expr.attr
            base = dotted_name(func_expr.value)
            if attr in _OBS_CALLS and base is not None and (
                    base == "obs" or base.endswith(".obs")):
                if not _has_enabled_guard(sub, parents, func):
                    yield self.found(
                        mod, sub,
                        "obs.%s in a hot loop of %s() without an "
                        "obs.enabled() guard (wrap the span in "
                        "'if obs.enabled():' with an unspanned else arm)"
                        % (attr, info.name))
            elif attr in _STRUCT_MODULE_CALLS and base == "struct":
                yield self.found(
                    mod, sub,
                    "struct.%s parses its format every iteration in a hot "
                    "loop of %s(); precompile a module-level struct.Struct "
                    "and call its bound method instead" % (attr, info.name))
