"""Project-wide call-graph summaries for the flow rules.

The graph is *name-based*: a call to ``self._write_entry(...)`` edges
to every collected function named ``_write_entry``, regardless of
receiver type.  That over-approximates targets (and therefore
summaries), which is the safe direction for the consumers:

* ``mutates_params`` — positional parameters a function may mutate in
  place (subscript/slice stores, ``struct.pack_into``, mutating
  method calls, and transitively via calls that pass the parameter
  on).  J001 uses it to treat ``helper(buf)`` as a write to ``buf``.
* ``reaches_seam`` — the function transitively calls one of the
  metadata-ordering seams (``_meta_write`` / ``mark_dirty`` /
  ``write_sync``).  J001 uses it so a call to ``_grow_directory``
  counts as sealing, not just a literal ``_meta_write``.
* ``returns_buffer`` — the function returns a buffer's bytes; J001
  tracks what a call to it returns as cache-owned.
* the *hot set* — functions reachable from the workload-driver
  roots.  O001 only audits loops inside hot functions.

All summaries are fixpoints over the bare-name edges, computed once
per lint run and shared by every rule through :class:`FlowContext`.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.lint.core import LintModule, iter_functions
from repro.lint.flow.dataflow import MUTATING_METHODS, pack_into_buffer_arg

#: direct metadata-ordering seams (J001).
SEAM_NAMES: FrozenSet[str] = frozenset(
    {"_meta_write", "mark_dirty", "write_sync"})

#: workload-driver roots; everything they reach is "hot" (O001).
HOT_ROOT_MODULES: FrozenSet[str] = frozenset(
    {"repro.workloads.smallfile", "repro.workloads.postmark",
     "repro.engine.multiclient"})


class FunctionInfo:
    """One collected function/method with its computed summaries."""

    __slots__ = (
        "module", "qualname", "name", "node", "params", "call_sites",
        "mutates_params", "reaches_seam", "returns_buffer", "hot",
    )

    def __init__(self, module: str, qualname: str,
                 node: ast.AST, params: List[str]) -> None:
        self.module = module
        self.qualname = qualname
        self.name = qualname.rsplit(".", 1)[-1]
        self.node = node
        self.params = params
        #: (bare callee name, {callee arg pos -> caller param index}, is_method_call)
        self.call_sites: List[Tuple[str, Dict[int, int], bool]] = []
        self.mutates_params: Set[int] = set()
        self.reaches_seam: bool = False
        self.returns_buffer: bool = False
        self.hot: bool = False

    @property
    def skip_self(self) -> int:
        return 1 if self.params and self.params[0] in ("self", "cls") else 0


def _own_statements(func: ast.AST) -> Iterable[ast.AST]:
    """Walk a function's body without descending into nested defs."""
    stack: List[ast.AST] = list(getattr(func, "body", []))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _param_names(func: ast.AST) -> List[str]:
    args = func.args  # type: ignore[attr-defined]
    names = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
    return names


def _direct_mutated_params(info: FunctionInfo) -> Set[int]:
    params = {name: i for i, name in enumerate(info.params)}
    mutated: Set[int] = set()

    def note(expr: ast.expr) -> None:
        # p[...]=, p.data[...]= and p.extend(...) all write through p.
        if isinstance(expr, ast.Attribute):
            expr = expr.value
        if isinstance(expr, ast.Name) and expr.id in params:
            mutated.add(params[expr.id])

    for node in _own_statements(info.node):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Subscript):
                    note(target.value)
        elif isinstance(node, ast.AugAssign):
            if isinstance(node.target, ast.Subscript):
                note(node.target.value)
            else:
                note(node.target)
        elif isinstance(node, ast.Call):
            buf = pack_into_buffer_arg(node)
            if buf is not None:
                note(buf)
            elif (isinstance(node.func, ast.Attribute)
                    and node.func.attr in MUTATING_METHODS):
                note(node.func.value)
    return mutated


def _collect_call_sites(info: FunctionInfo) -> None:
    params = {name: i for i, name in enumerate(info.params)}
    for node in _own_statements(info.node):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            callee, is_method = func.id, False
        elif isinstance(func, ast.Attribute):
            callee, is_method = func.attr, True
        else:
            continue
        arg_map: Dict[int, int] = {}
        for pos, arg in enumerate(node.args):
            if isinstance(arg, ast.Name) and arg.id in params:
                arg_map[pos] = params[arg.id]
        info.call_sites.append((callee, arg_map, is_method))


def _direct_reaches_seam(info: FunctionInfo) -> bool:
    return any(callee in SEAM_NAMES for callee, _, _ in info.call_sites)


def _direct_returns_buffer(info: FunctionInfo) -> bool:
    for node in _own_statements(info.node):
        if isinstance(node, ast.Return) and node.value is not None:
            value = node.value
            if isinstance(value, ast.Attribute) and value.attr == "data":
                return True
            if (isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                    and value.func.id in ("bytearray", "memoryview")):
                return True
    return False


class FlowContext:
    """All function summaries for one lint run, built once."""

    def __init__(self, modules: Sequence[LintModule]) -> None:
        self.functions: List[FunctionInfo] = []
        self.by_name: Dict[str, List[FunctionInfo]] = {}
        for mod in modules:
            self._collect(mod)
        for info in self.functions:
            _collect_call_sites(info)
            info.mutates_params = _direct_mutated_params(info)
            info.reaches_seam = _direct_reaches_seam(info)
            info.returns_buffer = _direct_returns_buffer(info)
        self._fixpoint()
        self._mark_hot()

    # -- collection ----------------------------------------------------

    def _collect(self, mod: LintModule) -> None:
        for qualname, node in iter_functions(mod.tree):
            info = FunctionInfo(mod.module, qualname, node, _param_names(node))
            self.functions.append(info)
            self.by_name.setdefault(info.name, []).append(info)

    # -- summaries -----------------------------------------------------

    def _fixpoint(self) -> None:
        changed = True
        while changed:
            changed = False
            for info in self.functions:
                for callee, arg_map, is_method in info.call_sites:
                    for target in self.by_name.get(callee, ()):
                        offset = target.skip_self if is_method else 0
                        if target.reaches_seam and not info.reaches_seam:
                            info.reaches_seam = True
                            changed = True
                        if (target.returns_buffer
                                and not info.returns_buffer
                                and self._returns_call_result(info, callee)):
                            info.returns_buffer = True
                            changed = True
                        for pos, param_idx in arg_map.items():
                            if (pos + offset in target.mutates_params
                                    and param_idx not in info.mutates_params):
                                info.mutates_params.add(param_idx)
                                changed = True

    @staticmethod
    def _returns_call_result(info: FunctionInfo, callee: str) -> bool:
        for node in _own_statements(info.node):
            if (isinstance(node, ast.Return)
                    and isinstance(node.value, ast.Call)):
                func = node.value.func
                name = func.id if isinstance(func, ast.Name) else (
                    func.attr if isinstance(func, ast.Attribute) else None)
                if name == callee:
                    return True
        return False

    def _mark_hot(self) -> None:
        frontier = [f for f in self.functions
                    if f.module in HOT_ROOT_MODULES]
        for info in frontier:
            info.hot = True
        while frontier:
            info = frontier.pop()
            for callee, _, _ in info.call_sites:
                for target in self.by_name.get(callee, ()):
                    if not target.hot:
                        target.hot = True
                        frontier.append(target)

    # -- queries used by the rules ------------------------------------

    def functions_in(self, mod: LintModule) -> List[FunctionInfo]:
        return [f for f in self.functions if f.module == mod.module]

    def mutated_arg_positions(self, call: ast.Call) -> Set[int]:
        """Call-site arg positions the callee may mutate in place."""
        func = call.func
        if isinstance(func, ast.Name):
            callee, is_method = func.id, False
        elif isinstance(func, ast.Attribute):
            callee, is_method = func.attr, True
        else:
            return set()
        out: Set[int] = set()
        for target in self.by_name.get(callee, ()):
            offset = target.skip_self if is_method else 0
            for param_idx in target.mutates_params:
                pos = param_idx - offset
                if pos >= 0:
                    out.add(pos)
        return out

    def call_reaches_seam(self, call: ast.Call) -> bool:
        func = call.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None)
        if name is None:
            return False
        if name in SEAM_NAMES:
            return True
        return any(t.reaches_seam for t in self.by_name.get(name, ()))

    def returns_buffer_names(self) -> FrozenSet[str]:
        return frozenset(
            f.name for f in self.functions if f.returns_buffer)
