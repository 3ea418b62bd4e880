"""Workload generators for the paper's experiments."""

from repro.workloads.measure import Measured, run_script, window
from repro.workloads.smallfile import (
    PHASES,
    PhaseResult,
    SmallFileResult,
    run_smallfile,
    smallfile_ops,
    smallfile_paths,
)
from repro.workloads.configs import (
    CONFIG_GRID,
    build_filesystem,
    config_for,
)
from repro.workloads.sizes import (
    SIZE_BUCKETS,
    SweepPoint,
    run_size_sweep,
    sample_file_size,
)
from repro.workloads.aging import (
    AgedRead,
    AgingResult,
    age_filesystem,
    read_aged_files,
)
from repro.workloads.appsuite import (
    AppResult,
    SourceTree,
    build_source_tree,
    run_app_suite,
)
from repro.workloads.hypertext import (
    Document,
    ServeResult,
    build_site,
    serve_documents,
    serve_ops as hypertext_serve_ops,
)
from repro.workloads.postmark import postmark_script
from repro.workloads.trace import Operation

__all__ = [
    "Measured",
    "run_script",
    "window",
    "PHASES",
    "PhaseResult",
    "SmallFileResult",
    "run_smallfile",
    "CONFIG_GRID",
    "build_filesystem",
    "config_for",
    "SIZE_BUCKETS",
    "SweepPoint",
    "run_size_sweep",
    "sample_file_size",
    "AgedRead",
    "AgingResult",
    "age_filesystem",
    "read_aged_files",
    "AppResult",
    "SourceTree",
    "build_source_tree",
    "run_app_suite",
    "Document",
    "ServeResult",
    "build_site",
    "serve_documents",
    "smallfile_paths",
    "smallfile_ops",
    "postmark_script",
    "hypertext_serve_ops",
    "Operation",
]
