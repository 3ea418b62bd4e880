"""The multi-client concurrency engine.

A deterministic event-driven layer over the simulator: an event loop
(:mod:`repro.engine.eventloop`), a queued disk front-end with pluggable
scheduling disciplines (:mod:`repro.engine.diskqueue`), generator-based
client contexts that interleave at disk-request granularity
(:mod:`repro.engine.client`), and the multi-client experiment drivers
(:mod:`repro.engine.multiclient`).
"""

from repro.engine.client import (
    CapturedOp,
    CapturedRequest,
    ClientContext,
    Engine,
    OpRecord,
)
from repro.engine.diskqueue import (
    SCHEDULERS,
    DiskQueue,
    QueueAccounting,
    QueuedRequest,
)
from repro.engine.eventloop import EventLoop
from repro.engine.multiclient import (
    DEFAULT_CLIENT_COUNTS,
    WORKLOADS,
    ClientSummary,
    MultiClientResult,
    PhaseReport,
    ScalingPoint,
    multiclient_scaling,
    render_multiclient,
    render_scaling,
    run_multiclient,
)

__all__ = [
    "EventLoop",
    "DiskQueue",
    "QueueAccounting",
    "QueuedRequest",
    "SCHEDULERS",
    "Engine",
    "ClientContext",
    "CapturedOp",
    "CapturedRequest",
    "OpRecord",
    "run_multiclient",
    "render_multiclient",
    "multiclient_scaling",
    "render_scaling",
    "MultiClientResult",
    "PhaseReport",
    "ClientSummary",
    "ScalingPoint",
    "WORKLOADS",
    "DEFAULT_CLIENT_COUNTS",
]
