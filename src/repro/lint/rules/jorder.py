"""J001: journal-ordering discipline for metadata mutations.

In ``repro.ffs`` and ``repro.core``, any in-place mutation of
cache-owned metadata bytes (a buffer obtained via ``.data`` or the
read accessor ``.image`` on a cache buffer, or returned by a
buffer-yielding helper like ``_dir_block``) must reach an ordering
seam — ``_meta_write`` / ``mark_dirty`` / ``write_sync``, directly or
through a helper that transitively calls one — on *every* path out of
the function.  A path that mutates the buffer and then returns or
raises without sealing leaves the cache holding bytes the
journal/soft-updates machinery never heard about: under
MetadataPolicy.JOURNAL_METADATA that write can neither be ordered nor
replayed, which is precisely the crash-consistency hole the journal
exists to close.

Mutation row (``tests/test_lint_mutations.py``): ``FFS._dir_remove_entry``
sealing after its consistency raise instead of before it, the hole this
rule found when it was written.  Tier-1 passes with that defect in
place: the raise path runs only on a corrupt directory.

Flow-sensitive: forward alias analysis finds the mutation sites,
then a backward must-analysis over the CFG (exception edges included)
proves or refutes "all paths from here hit a seam".  Pure codec
helpers (``dirfmt.add_entry`` etc.) mutate only their *parameters*,
which the alias lattice deliberately leaves untracked — sealing is
their caller's contract, and the caller is where this rule checks it.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Tuple

from repro.lint.core import Finding, LintModule, Rule
from repro.lint.flow.callgraph import FlowContext, FunctionInfo
from repro.lint.flow.cfg import build_cfg, node_calls
from repro.lint.flow.dataflow import (
    AliasState,
    OriginPolicy,
    bind_targets,
    must_reach_after,
    solve_forward,
    statement_assignments,
    written_through,
)


class JournalOrderingRule(Rule):
    id = "J001"
    title = "metadata mutation must reach the ordering seam on all paths"
    rationale = (
        "Every mutation of cached superblock/bitmap/inode/dirent bytes "
        "must be followed by _meta_write/mark_dirty/write_sync on every "
        "path, or the journal and soft-updates trackers never see the "
        "write and crash recovery cannot order or replay it."
    )

    _SCOPES = ("repro.ffs.", "repro.core.")

    def check(self, mod: LintModule, context: object) -> Iterator[Finding]:
        if not mod.module.startswith(self._SCOPES):
            return
        flow = context.flow  # type: ignore[attr-defined]
        policy = OriginPolicy(flow.returns_buffer_names())
        for info in flow.functions_in(mod):
            yield from self._check_function(mod, flow, policy, info)

    def _check_function(self, mod: LintModule, flow: FlowContext,
                        policy: OriginPolicy,
                        info: FunctionInfo) -> Iterator[Finding]:
        cfg = build_cfg(info.node)
        nodes = cfg.nodes

        def transfer(index: int, state: AliasState) -> AliasState:
            assignment = statement_assignments(nodes[index].stmt)
            if assignment is not None:
                bind_targets(policy, state, *assignment)
            return state

        states = solve_forward(cfg, {}, transfer)

        is_event = [False] * len(nodes)
        mutations: List[Tuple[int, ast.stmt]] = []
        for node in cfg.real_nodes():
            state = states[node.index]
            stmt = node.stmt
            for call in node_calls(stmt):
                if flow.call_reaches_seam(call):
                    is_event[node.index] = True
            if self._mutates_metadata(flow, policy, state, stmt):
                mutations.append((node.index, stmt))
        if not mutations:
            return

        after = must_reach_after(cfg, is_event)
        for index, stmt in mutations:
            if is_event[index] or after[index]:
                continue
            yield Finding(
                rule=self.id,
                message=(
                    "metadata bytes mutated in %s() can leave the function "
                    "without reaching _meta_write/mark_dirty/write_sync "
                    "(early return, raise, or unsealed fall-through)"
                    % info.name),
                path=mod.path, module=mod.module,
                line=stmt.lineno, col=stmt.col_offset,
                suppressed=mod.suppressions.covers(self.id, stmt.lineno))

    @staticmethod
    def _mutates_metadata(flow: FlowContext, policy: OriginPolicy,
                          state: AliasState, stmt: ast.stmt) -> bool:
        return any(
            policy.origins_of(expr, state)
            for expr in written_through(stmt, flow.mutated_arg_positions))
