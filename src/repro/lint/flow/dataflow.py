"""Dataflow solvers and the buffer-alias tracker of the flow rules.

Two solvers cover everything J001 needs:

* :func:`solve_forward` — a worklist *may*-analysis (join = union)
  producing the state at entry to every CFG node; it tracks which
  local names alias which cache-owned buffers.
* :func:`must_reach_after` — a backward *must*-analysis (join =
  intersection, greatest fixpoint) answering "does every path that
  leaves this node hit an event before function exit?", which proves a
  metadata mutation is sealed on all paths.

The alias domain is deliberately small: an *origin* is the source
expression that produced cache-owned bytes (a ``cache.get(...)`` or
``cache.peek(...)`` result, an ``x.data`` attribute chain, a call to a
helper that returns a buffer), and the state maps each local name to
the set of origins it may alias.  Attribute chains are canonicalised
to string tokens so two loads of the same chain alias each other, and
the read accessor ``buf.image`` is the same token as ``buf.data``: the
same bytes.  A scratch ``bytearray(...)`` has no origin.  That is
exactly as precise as the codebase's idiom needs and no more (see
docs/STATIC_ANALYSIS.md for the known holes).
"""

from __future__ import annotations

import ast
from typing import (
    Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple,
)

from repro.lint.core import dotted_name
from repro.lint.flow.cfg import CFG, header_exprs, node_calls

# An abstract buffer identity: ("attr", "buf.data") for canonicalised
# attribute chains, ("cache", line, col) for cache-getter call results
# and ("ret", callee) for calls summarised as returning a buffer.
Origin = Tuple[str, ...]
Origins = FrozenSet[Origin]
EMPTY: Origins = frozenset()

#: name -> origins it may alias.
AliasState = Dict[str, Origins]

#: method names on a ``...cache`` object whose results are Buffers
_CACHE_GETTERS: FrozenSet[str] = frozenset({"get", "peek"})


def solve_forward(
    cfg: CFG,
    init: AliasState,
    transfer: Callable[[int, AliasState], AliasState],
) -> List[AliasState]:
    """Worklist may-analysis; returns the entry state of every node."""
    n = len(cfg.nodes)
    states: List[Optional[AliasState]] = [None] * n
    states[cfg.entry] = dict(init)
    work = [cfg.entry]
    while work:
        index = work.pop()
        node = cfg.nodes[index]
        if node.stmt is None:
            continue
        out = transfer(index, dict(states[index] or {}))
        for succ in node.succs:
            cur = states[succ]
            if cur is None:
                states[succ] = dict(out)
                work.append(succ)
            else:
                changed = False
                for name, origins in out.items():
                    merged = cur.get(name, EMPTY) | origins
                    if merged != cur.get(name, EMPTY):
                        cur[name] = merged
                        changed = True
                if changed:
                    work.append(succ)
    return [s if s is not None else {} for s in states]


def must_reach_after(cfg: CFG, is_event: Sequence[bool]) -> List[bool]:
    """``result[n]``: every path leaving node ``n`` hits an event node
    before reaching the exit.  Greatest fixpoint (loops count as
    reaching only what all their exits reach)."""
    n = len(cfg.nodes)
    after = [True] * n
    after[cfg.exit] = False
    changed = True
    while changed:
        changed = False
        for node in cfg.nodes:
            if node.index == cfg.exit:
                continue
            if node.succs:
                val = all(is_event[s] or after[s] for s in node.succs)
            else:
                val = False  # dangling node: assume it can leave unsealed
            if val != after[node.index]:
                after[node.index] = val
                changed = True
    return after


# -- origin extraction ---------------------------------------------------------


class OriginPolicy:
    """Where an expression's cache-owned bytes may come from."""

    def __init__(self, returns_buffer: FrozenSet[str] = frozenset()) -> None:
        #: bare names of project functions summarised as returning a buffer
        self.returns_buffer = returns_buffer

    def origins_of(self, expr: ast.expr, state: AliasState) -> Origins:
        """The buffer origins an expression may evaluate to."""
        if isinstance(expr, ast.Name):
            return state.get(expr.id, EMPTY)
        if isinstance(expr, ast.Starred):
            return self.origins_of(expr.value, state)
        if isinstance(expr, ast.Attribute):
            if expr.attr not in ("data", "image"):
                return EMPTY
            owner = dotted_name(expr.value)
            if owner is not None:
                return frozenset({("attr", owner + ".data")})
            if isinstance(expr.value, ast.Call):
                # ``cache.get(...).data``: the buffer of the call result
                return self.origins_of(expr.value, state)
            return EMPTY
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name) and func.id == "memoryview":
                # A view aliases its backing buffer.
                return self.origins_of(expr.args[0], state) if expr.args else EMPTY
            if (isinstance(func, ast.Attribute)
                    and func.attr in _CACHE_GETTERS):
                base = dotted_name(func.value)
                if base is not None and (
                        base == "cache" or base.endswith(".cache")):
                    return frozenset(
                        {("cache", str(expr.lineno), str(expr.col_offset))})
            callee = (func.id if isinstance(func, ast.Name) else
                      func.attr if isinstance(func, ast.Attribute) else None)
            if callee is not None and callee in self.returns_buffer:
                return frozenset({("ret", callee)})
            return EMPTY
        if isinstance(expr, ast.Subscript):
            # Reading an element of a tracked container (or a slice of
            # a tracked buffer) aliases the container's origins.
            return self.origins_of(expr.value, state)
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            out: Origins = EMPTY
            for elt in expr.elts:
                out |= self.origins_of(elt, state)
            return out
        if isinstance(expr, ast.IfExp):
            return self.origins_of(expr.body, state) | self.origins_of(
                expr.orelse, state)
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self.origins_of(expr.elt, state)
        if isinstance(expr, ast.NamedExpr):
            return self.origins_of(expr.value, state)
        return EMPTY


def bind_targets(
    policy: OriginPolicy,
    state: AliasState,
    targets: Iterable[ast.expr],
    value: ast.expr,
) -> None:
    """Apply an assignment's effect on the alias state (in place).

    Name targets rebind; subscript stores into a tracked *name* make
    the container alias the stored value's origins (weak update — after
    ``blocks[i] = buf.data`` a write through ``blocks`` is a write to
    that buffer); everything else is a no-op.
    """
    for target in targets:
        if isinstance(target, ast.Name):
            state[target.id] = policy.origins_of(value, state)
        elif isinstance(target, (ast.Tuple, ast.List)):
            if isinstance(value, (ast.Tuple, ast.List)) and len(
                    value.elts) == len(target.elts):
                for i, t in enumerate(target.elts):
                    bind_targets(policy, state, [t], value.elts[i])
            else:
                spread = policy.origins_of(value, state)
                for t in target.elts:
                    if isinstance(t, ast.Name):
                        state[t.id] = spread
        elif isinstance(target, ast.Subscript) and isinstance(
                target.value, ast.Name):
            name = target.value.id
            stored = policy.origins_of(value, state)
            if stored:
                state[name] = state.get(name, EMPTY) | stored


def statement_assignments(
    stmt: ast.stmt,
) -> Optional[Tuple[List[ast.expr], ast.expr]]:
    """(targets, value) when the node statement binds names, else None."""
    if isinstance(stmt, ast.Assign):
        return list(stmt.targets), stmt.value
    if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        return [stmt.target], stmt.value
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        # ``with open(...) as f`` binds f; buffers never come from
        # context managers in this tree, but clear stale bindings.
        for item in stmt.items:
            if isinstance(item.optional_vars, ast.Name):
                return [item.optional_vars], item.context_expr
    return None


def pack_into_buffer_arg(call: ast.Call) -> Optional[ast.expr]:
    """The buffer argument of a ``pack_into`` call, if this is one.

    ``struct.pack_into(fmt, buf, off, ...)`` takes the buffer second;
    a precompiled ``Struct.pack_into(buf, off, ...)`` takes it first.
    """
    func = call.func
    if not (isinstance(func, ast.Attribute) and func.attr == "pack_into"):
        return None
    base = dotted_name(func.value)
    index = 1 if base == "struct" else 0
    return call.args[index] if len(call.args) > index else None


def written_through(
    stmt: ast.stmt,
    mutated_arg_positions: Callable[[ast.Call], Iterable[int]],
) -> List[ast.expr]:
    """The buffer expressions a statement writes through in place: what
    :func:`mutated_exprs` finds, the buffer argument of a ``pack_into``,
    and any argument the callee's summary says it mutates."""
    out = mutated_exprs(stmt)
    for call in node_calls(stmt):
        buf = pack_into_buffer_arg(call)
        suspect = mutated_arg_positions(call)
        out.extend(arg for pos, arg in enumerate(call.args)
                   if arg is buf or pos in suspect)
    return out


MUTATING_METHODS: FrozenSet[str] = frozenset(
    {"append", "extend", "insert", "clear", "pop", "remove", "reverse",
     "sort", "setdefault", "update"})


def mutated_exprs(stmt: ast.stmt) -> List[ast.expr]:
    """Expressions this statement mutates in place.

    Covers subscript stores (``x[i] = v``, ``x[a:b] = v``), augmented
    assignment (``x += v`` mutates a bytearray in place), deletes, and
    mutating method receivers (``x.extend(...)``).  Call-argument
    mutation (``struct.pack_into(fmt, x, ...)``) is the caller's to
    model via function summaries.
    """
    out: List[ast.expr] = []
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            out.extend(_mutated_in_target(target))
    elif isinstance(stmt, ast.AugAssign):
        if isinstance(stmt.target, ast.Subscript):
            out.append(stmt.target.value)
        else:
            out.append(stmt.target)
    elif isinstance(stmt, ast.Delete):
        for target in stmt.targets:
            if isinstance(target, ast.Subscript):
                out.append(target.value)
    for expr in header_exprs(stmt):
        for sub in ast.walk(expr):
            if (isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in MUTATING_METHODS):
                out.append(sub.func.value)
    return out


def _mutated_in_target(target: ast.expr) -> List[ast.expr]:
    if isinstance(target, ast.Subscript):
        return [target.value]
    if isinstance(target, (ast.Tuple, ast.List)):
        out: List[ast.expr] = []
        for elt in target.elts:
            out.extend(_mutated_in_target(elt))
        return out
    return []
