"""Device health: a one-way state machine.

::

    HEALTHY --> DEGRADED --> READ_ONLY --> FAILED

- *HEALTHY*: no faults absorbed yet.
- *DEGRADED*: the device has healed something (remap, checksum repair,
  retried read) but still offers full service.
- *READ_ONLY*: the write path can no longer be trusted — the spare
  pool is exhausted or the failure budget is blown — so writes are
  refused with :class:`~repro.errors.ReadOnlyFileSystem` while reads
  keep working.  Degrading beats dying: a read-only file server still
  serves the paper's small-file read traffic.
- *FAILED*: the device is gone (power loss, or reads exhausted their
  budget too); every request raises.

Transitions are monotonic (never back toward HEALTHY within a run —
recovering trust is an offline fsck decision, not an online one) and
are recorded with the simulated timestamp and a reason.  The monitor
meters nothing itself: its owner mirrors each transition into the
metrics it owns through ``on_transition`` (the resilient device into
``resilience.health``, the cluster into ``cluster.health.s<k>``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, List, Optional, Tuple

from repro.errors import DeviceDegraded, ReadOnlyFileSystem


class HealthState(Enum):
    HEALTHY = 0
    DEGRADED = 1
    READ_ONLY = 2
    FAILED = 3


@dataclass
class HealthTransition:
    """One recorded state change."""

    time: float
    previous: HealthState
    state: HealthState
    reason: str


@dataclass
class HealthMonitor:
    """Tracks the state, enforces monotonicity, records transitions."""

    state: HealthState = HealthState.HEALTHY
    transitions: List[HealthTransition] = field(default_factory=list)
    #: Hook fired after each transition: the owner's metrics mirror.
    on_transition: Optional[Callable[[HealthTransition], None]] = None

    def transition(self, state: HealthState, now: float, reason: str) -> bool:
        """Move to ``state`` (no-op when already there or further along).

        Returns True when a transition actually happened.
        """
        if state.value <= self.state.value:
            return False
        change = HealthTransition(now, self.state, state, reason)
        self.state = state
        self.transitions.append(change)
        if self.on_transition is not None:
            self.on_transition(change)
        return True

    # -- gates the device calls on each request ------------------------------

    def check_writable(self) -> None:
        if self.state is HealthState.FAILED:
            raise DeviceDegraded("device has FAILED; no requests accepted")
        if self.state is HealthState.READ_ONLY:
            raise ReadOnlyFileSystem(
                "device is read-only: %s"
                % (self.transitions[-1].reason if self.transitions
                   else "demoted"))

    def check_readable(self) -> None:
        if self.state is HealthState.FAILED:
            raise DeviceDegraded("device has FAILED; no requests accepted")

    def summary(self) -> List[Tuple[float, str, str, str]]:
        """Deterministic, render-friendly transition log."""
        return [(t.time, t.previous.name, t.state.name, t.reason)
                for t in self.transitions]


__all__ = [
    "HealthMonitor",
    "HealthState",
    "HealthTransition",
]
