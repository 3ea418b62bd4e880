"""Flow-sensitive analysis engine for reprolint.

Layers, bottom up: :mod:`cfg` (statement-granularity intraprocedural
control-flow graphs), :mod:`dataflow` (forward may-alias and backward
must-reach solvers plus the cache-buffer origin tracker), and
:mod:`callgraph` (name-based project call graph with fixpoint
summaries: parameter mutation, seam reachability, buffer-returning
helpers, and the hot set of the workload-driver roots).  The J001 and
O001 rules in ``repro.lint.rules`` are its clients; see
docs/STATIC_ANALYSIS.md for the design and its documented imprecision.
"""

from repro.lint.flow.callgraph import FlowContext
from repro.lint.flow.cfg import build_cfg, node_calls
from repro.lint.flow.dataflow import must_reach_after

__all__ = ["FlowContext", "build_cfg", "must_reach_after", "node_calls"]
