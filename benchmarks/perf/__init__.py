"""The repository's benchmark: six workloads, end-to-end metrics on two
named clocks (simulated and host), and an outside-in per-layer trace.

See ``README.md`` in this directory; ``BENCHMARK.json`` at the
repository root declares the workloads, metrics, units and bounds.
"""
