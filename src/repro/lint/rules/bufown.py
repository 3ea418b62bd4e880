"""B001: buffer ownership across the device boundary.

Once a mutable buffer (``bytearray``, ``memoryview``, a cache
buffer's ``.data``) has been handed to a device-boundary write
(``write_block`` / ``write_extent`` / ``write_batch`` /
``poke_block``), the handing function must not mutate it or return it.
The device snapshots mutable payloads at the final store, so a
*later* in-place write silently diverges the caller's view from what
went to disk.  Views (``memoryview``) alias their backing buffer, so
handing a view hands the backing store too.

What the cache itself hands down: a batch write-out (flush,
``flush_blocks``, eviction) freezes each dirty buffer into ``bytes``
first, so nothing live crosses there any more and device, recorders
and buffer share that one object.  ``BufferCache.write_sync`` alone
still hands the live ``bytearray`` down, for the device to snapshot.

The second half of the rule follows from the sharing: bytes taken
through a buffer's read accessor ``.image`` may *be* the device's
stored block, so any in-place write that reaches them — subscript or
slice store, ``struct.pack_into``, a helper that mutates its argument
— is a finding wherever it happens.  Edits go through ``.data``, which
copies a shared image first.

Flow-sensitive: the rule tracks which locals may alias which buffers
along the CFG (forward may-analysis), accumulates the handed-off set
per path, and flags any reachable mutation/escape of a handed buffer.
Parameters are deliberately untracked — a delegation wrapper that
forwards its argument is the callee's problem, not a finding here.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator, List, Tuple

from repro.lint.core import Finding, LintModule, Rule
from repro.lint.flow.callgraph import (
    HANDOFF_METHODS,
    FlowContext,
    FunctionInfo,
)
from repro.lint.flow.cfg import build_cfg, node_calls
from repro.lint.flow.dataflow import (
    EMPTY,
    AliasState,
    OriginPolicy,
    bind_targets,
    solve_forward,
    statement_assignments,
    written_through,
)

_HANDED = "__handed__"  # pseudo-name carrying the handed-off origin set

#: The layers that hold cache buffers; elsewhere ``.image`` is somebody
#: else's attribute (the CLI's image path, a crash image).
_IMAGE_SCOPES = ("repro.cache.", "repro.journal.", "repro.ffs.", "repro.core.")


class _BufferPolicy(OriginPolicy):
    def __init__(self, returns_buffer: FrozenSet[str]) -> None:
        self.returns_buffer = returns_buffer


class BufferOwnershipRule(Rule):
    id = "B001"
    title = "buffer ownership across the device boundary"
    rationale = (
        "The block device aliases immutable bytes and snapshots mutable "
        "payloads at the store; mutating or returning a buffer after "
        "handing it to write_block/write_extent/write_batch/poke_block "
        "diverges the in-memory view from the on-disk image; so does "
        "editing bytes taken through a cache buffer's read accessor."
    )
    requires_flow = True

    def check(self, mod: LintModule, context: object) -> Iterator[Finding]:
        if not mod.module.startswith("repro"):
            return
        flow = context.flow  # type: ignore[attr-defined]
        policy = _BufferPolicy(flow.returns_buffer_names())
        for info in flow.functions_in(mod):
            yield from self._check_function(mod, flow, policy, info)

    def _check_function(self, mod: LintModule, flow: FlowContext,
                        policy: _BufferPolicy,
                        info: FunctionInfo) -> Iterator[Finding]:
        cfg = build_cfg(info.node)
        reads_image = mod.module.startswith(_IMAGE_SCOPES) and any(
            isinstance(sub, ast.Attribute) and sub.attr == "image"
            for sub in ast.walk(info.node))
        if not reads_image and not any(
                self._handoffs(node.stmt) for node in cfg.real_nodes()):
            return  # nothing crosses the boundary or reads an image here

        def transfer(index: int, state: AliasState) -> AliasState:
            stmt = cfg.nodes[index].stmt
            handed = state.get(_HANDED, EMPTY)
            for call in self._handoffs(stmt):
                for arg in call.args:
                    handed |= policy.origins_of(arg, state)
            assignment = statement_assignments(stmt)
            if assignment is not None:
                targets, value = assignment
                bind_targets(policy, state, targets, value)
                # A rebound name no longer refers to the handed-off
                # generation: drop its attribute tokens, and drop site
                # origins re-produced by a fresh allocation at the same
                # site (the loop-body `data = bytearray(...)` pattern).
                for target in targets:
                    if isinstance(target, ast.Name):
                        fresh = state.get(target.id, EMPTY)
                        handed = frozenset(
                            o for o in handed
                            if not (o[0] == "attr"
                                    and o[1].split(".")[0] == target.id)
                            and not (o[0] == "site" and o in fresh))
            state[_HANDED] = handed
            return state

        states = solve_forward(cfg, {}, transfer)
        findings: List[Tuple[int, int, str]] = []
        for node in cfg.real_nodes():
            state = states[node.index]
            handed = state.get(_HANDED, EMPTY)
            stmt = node.stmt
            for where, expr in written_through(
                    stmt, flow.mutated_arg_positions):
                origins = policy.origins_of(expr, state)
                if origins & handed:
                    findings.append((
                        where.lineno, where.col_offset,
                        ("buffer mutated after device handoff in %s()"
                         if where is stmt else
                         "call mutates a buffer already handed to the "
                         "device in %s()") % info.name))
                if reads_image and any(o[0] == "image" for o in origins):
                    findings.append((
                        where.lineno, where.col_offset,
                        "bytes taken through .image edited in place in "
                        "%s(): the device may hold the same object; edit "
                        "through .data" % info.name))
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                if policy.origins_of(stmt.value, state) & handed:
                    findings.append((
                        stmt.lineno, stmt.col_offset,
                        "handed-off buffer escapes via return in %s()"
                        % info.name))
        for line, col, message in sorted(set(findings)):
            yield Finding(
                rule=self.id, message=message, path=mod.path,
                module=mod.module, line=line, col=col,
                suppressed=mod.suppressions.covers(self.id, line))

    @staticmethod
    def _handoffs(stmt: ast.stmt) -> List[ast.Call]:
        out: List[ast.Call] = []
        for call in node_calls(stmt):
            func = call.func
            if isinstance(func, ast.Attribute) and func.attr in HANDOFF_METHODS:
                out.append(call)
        return out
