"""Fault injection and recovery: failing disks, crash images, sweeps."""

from repro.faults.chaos import (
    CHAOS_SCENARIOS,
    ChaosConfig,
    ChaosReport,
    render_chaos,
    run_chaos,
    scenario,
)
from repro.faults.proxy import FaultyBlockDevice
from repro.faults.schedule import (
    HARD,
    OK,
    TORN,
    TRANSIENT,
    FaultDecision,
    FaultSchedule,
    FaultStats,
)

__all__ = [
    "CHAOS_SCENARIOS",
    "ChaosConfig",
    "ChaosReport",
    "FaultDecision",
    "FaultSchedule",
    "FaultStats",
    "FaultyBlockDevice",
    "HARD",
    "OK",
    "TORN",
    "TRANSIENT",
    "render_chaos",
    "run_chaos",
    "scenario",
]
