"""Background scrubbing: walk the device, verify, heal what's decaying.

A :class:`Scrubber` sweeps the usable region of a
:class:`~repro.resilience.device.ResilientBlockDevice` in batches of
:data:`SCRUB_BATCH_BLOCKS`, calling :meth:`scrub_block` on each block.
Each batch is one *step* — a bounded slice of work a driver interleaves
with real I/O by calling :meth:`step` (the chaos harness does this
between workload operations).

Scrub outcomes per block (see ``scrub_block`` for the semantics):
``ok``, ``rescued``, ``healed``, ``lost``, ``lost-known`` — tallied in
:class:`ScrubStats`, which the drive's registry reads as
``resilience.scrub_blocks`` and ``resilience.scrub_passes``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.errors import DeviceDegraded
from repro.obs.metrics import Stats

#: Blocks the scrubber verifies per step (one idle-time slice).
SCRUB_BATCH_BLOCKS = 128


@dataclass
class ScrubStats(Stats):
    """Cumulative scrub accounting across all passes."""

    scrub_passes: int = 0
    scrub_blocks: int = 0
    verdicts: Dict[str, int] = field(default_factory=dict)

    def tally(self, verdict: str) -> None:
        self.scrub_blocks += 1
        self.verdicts[verdict] = self.verdicts.get(verdict, 0) + 1


class Scrubber:
    """Batched background verification sweep over a resilient device."""

    def __init__(self, device) -> None:
        self.device = device
        self.stats = ScrubStats()
        device.disk.registry.register("resilience", self.stats)
        self._cursor = 0

    def step(self) -> Dict[str, int]:
        """Scrub one batch; returns this step's verdict tally.

        The cursor wraps at the end of the usable region, completing a
        pass.  A device that can no longer serve reads (FAILED) ends
        the step early and returns what was tallied so far.
        """
        total = self.device.total_blocks
        verdicts: Dict[str, int] = {}
        for _ in range(min(SCRUB_BATCH_BLOCKS, total)):
            try:
                verdict = self.device.scrub_block(self._cursor)
            except DeviceDegraded:
                break
            self.stats.tally(verdict)
            verdicts[verdict] = verdicts.get(verdict, 0) + 1
            self._cursor += 1
            if self._cursor >= total:
                self._cursor = 0
                self.stats.scrub_passes += 1
                break
        return verdicts


__all__ = ["ScrubStats", "Scrubber"]
