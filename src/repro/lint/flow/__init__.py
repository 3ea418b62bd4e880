"""Flow-sensitive analysis engine for reprolint.

Layers, bottom up: :mod:`cfg` (statement-granularity intraprocedural
control-flow graphs), :mod:`dataflow` (forward may-alias and backward
must-reach solvers plus the shared buffer-origin policy), and
:mod:`callgraph` (name-based project call graph with fixpoint
summaries: parameter mutation, seam reachability, buffer-returning
helpers, and the hot set of the workload-driver roots).  The
B001/J001/O001 rules in ``repro.lint.rules`` are clients; see
docs/STATIC_ANALYSIS.md for the design and its documented imprecision.
"""

from repro.lint.flow.callgraph import (
    FlowContext,
    FunctionInfo,
    HANDOFF_METHODS,
    HOT_ROOT_MODULES,
    SEAM_NAMES,
)
from repro.lint.flow.cfg import CFG, CFGNode, build_cfg, header_exprs, node_calls
from repro.lint.flow.dataflow import (
    AliasState,
    OriginPolicy,
    bind_targets,
    must_reach_after,
    mutated_exprs,
    solve_forward,
    statement_assignments,
)

__all__ = [
    "CFG",
    "CFGNode",
    "FlowContext",
    "FunctionInfo",
    "HANDOFF_METHODS",
    "HOT_ROOT_MODULES",
    "SEAM_NAMES",
    "AliasState",
    "OriginPolicy",
    "bind_targets",
    "build_cfg",
    "header_exprs",
    "must_reach_after",
    "mutated_exprs",
    "node_calls",
    "solve_forward",
    "statement_assignments",
]
