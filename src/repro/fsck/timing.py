"""Timed fsck: charge the walk's reads to the simulated clock.

The checkers in :mod:`repro.fsck.checker` run offline and untimed
(``peek_block``), which is right for correctness checks inside tests.
But the paper-level claim the journal subsystem makes — mount-time
replay recovers orders of magnitude faster than a full fsck — needs a
*timed* fsck to compare against.  :func:`timed_fsck` wraps the device
in a proxy that issues a real (timed) ``read_block`` the first time
the checker peeks at each distinct block, so the walk pays the same
random-read pattern a real fsck pays, exactly once per block.
"""

from __future__ import annotations

from typing import Callable, Set, Tuple

from repro import obs
from repro.blockdev.device import BlockDevice
from repro.fsck.checker import FsckReport


class _ChargingDevice:
    """Device proxy: the first peek of each block costs a timed read.

    Every other attribute passes straight through to the wrapped device.
    """

    def __init__(self, device: BlockDevice) -> None:
        self._device = device
        self._charged: Set[int] = set()

    def peek_block(self, bno: int) -> bytes:
        if bno not in self._charged:
            self._charged.add(bno)
            return self._device.read_block(bno)
        return self._device.peek_block(bno)

    def __getattr__(self, name: str):
        return getattr(self._device, name)

    @property
    def blocks_read(self) -> int:
        return len(self._charged)


def timed_fsck(
    device: BlockDevice,
    checker: Callable[..., FsckReport],
) -> Tuple[FsckReport, float]:
    """Run ``checker`` (fsck_ffs / fsck_cffs), check only, charging its
    reads to the simulated clock; returns (report, elapsed simulated
    seconds)."""
    clock = device.clock
    began = clock.now
    proxy = _ChargingDevice(device)
    with obs.span("fsck", "timed_walk") as sp:
        report = checker(proxy)
        sp.incr("blocks_read", proxy.blocks_read)
    elapsed = clock.now - began
    obs.observe("fsck.walk_seconds", elapsed,
                buckets=(0.01, 0.1, 1.0, 10.0, 100.0))
    return report, elapsed
