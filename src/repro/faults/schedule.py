"""Deterministic fault schedules for the fault-injecting device proxy.

A :class:`FaultSchedule` decides, for the *n*-th media request of each
kind (``read``/``write``), whether it succeeds, fails transiently a few
times before succeeding, fails hard, or — for multi-block writes —
lands only a prefix of the extent (a torn write).  Decisions are pure
functions of ``(seed, op, index)``: the same seed always produces the
same fault sequence, regardless of the order in which different
request kinds interleave, so experiments are reproducible and failures
shrink to a seed.

Independently of the random rates, every request of a kind from some
index on can be failed (``fail_reads_from``/``fail_writes_from``), and
a power cut can be scheduled after the k-th media block-write
(``power_cut_after_write``) — the primitive the crash-point sweep
harness enumerates.

Index-based faults model a *drive* having a bad moment; media decay is
tied to *locations* instead.  A schedule can therefore also carry
per-block fault sets (the self-healing layer's diet):

- ``weaken_reads(blocks)`` — each of these blocks a read touches
  costs one in-drive retry (transient latency) but the read still
  returns correct data: the early-warning signal a scrubber rescues;
- ``break_reads(blocks)`` / ``break_writes(blocks)`` — sticky hard
  failures at those locations, forever: the case bad-block remapping
  exists for;
- ``rot(blocks)`` — silent corruption: the first timed read of the
  block returns flipped bits *without any error*, which only a
  checksum can catch.  A rewrite before the read lands fresh data and
  cancels the decay.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Optional, Set

#: Decision kinds.
OK = "ok"
TRANSIENT = "transient"
HARD = "hard"
TORN = "torn"


@dataclass(frozen=True)
class FaultDecision:
    """What happens to one media request.

    ``failures`` is how many transient attempts fail before one
    succeeds (only for ``transient``).  ``torn_blocks`` is how many
    blocks of a multi-block write land before the failure (only for
    ``torn``; clamped to the extent length by the proxy).
    """

    kind: str = OK
    failures: int = 0
    torn_blocks: int = 0


@dataclass
class FaultStats:
    """Counters the proxy keeps; reports read them."""

    reads: int = 0
    writes: int = 0
    media_writes: int = 0        # individual blocks that landed
    transient_faults: int = 0    # attempts that failed transiently
    hard_read_faults: int = 0
    hard_write_faults: int = 0
    torn_writes: int = 0
    power_cuts: int = 0
    weak_reads: int = 0          # reads that touched weak locations
    rot_corruptions: int = 0     # blocks silently corrupted on read


class FaultSchedule:
    """Seeded, per-request fault decisions.

    ``transient_rate``/``hard_rate``/``torn_rate`` are per-request
    probabilities.  ``max_transient_failures`` bounds the failure burst
    a transient fault produces, so a retry policy with a higher attempt
    budget always gets through.
    """

    def __init__(
        self,
        seed: int = 0,
        transient_rate: float = 0.0,
        hard_rate: float = 0.0,
        torn_rate: float = 0.0,
        max_transient_failures: int = 2,
        power_cut_after_write: Optional[int] = None,
    ) -> None:
        if not 0 <= transient_rate <= 1 or not 0 <= hard_rate <= 1 \
                or not 0 <= torn_rate <= 1:
            raise ValueError("fault rates must be in [0, 1]")
        if max_transient_failures < 1:
            raise ValueError("max_transient_failures must be >= 1")
        self.seed = seed
        self.transient_rate = transient_rate
        self.hard_rate = hard_rate
        self.torn_rate = torn_rate
        self.max_transient_failures = max_transient_failures
        #: Power is cut immediately after this many media block-writes
        #: have landed (None = never).
        self.power_cut_after_write = power_cut_after_write
        #: Every request of the kind at index >= the mark fails hard
        #: (None = never).  Setting the mark to 0 mid-run breaks the
        #: drive "from now on": past requests already consumed their
        #: indices, so only future decisions are affected — the arming
        #: primitive the cluster chaos harness uses to kill a shard
        #: mid-traffic.
        self.read_fail_from: Optional[int] = None
        self.write_fail_from: Optional[int] = None
        #: Location-based media decay (see the module docstring).
        self.weak_read_blocks: Set[int] = set()
        self.bad_read_blocks: Set[int] = set()
        self.bad_write_blocks: Set[int] = set()
        self.rot_blocks: Set[int] = set()

    # -- explicit injections --------------------------------------------------

    def fail_reads_from(self, index: int = 0) -> "FaultSchedule":
        """Fail every read whose index is >= ``index``, forever."""
        self.read_fail_from = index
        return self

    def fail_writes_from(self, index: int = 0) -> "FaultSchedule":
        """Fail every write whose index is >= ``index``, forever."""
        self.write_fail_from = index
        return self

    # -- location-based media decay -------------------------------------------

    def weaken_reads(self, blocks: Iterable[int]) -> "FaultSchedule":
        """Make reads of ``blocks`` need an in-drive retry each."""
        self.weak_read_blocks.update(blocks)
        return self

    def break_reads(self, blocks: Iterable[int]) -> "FaultSchedule":
        """Make every read touching ``blocks`` fail hard, forever."""
        self.bad_read_blocks.update(blocks)
        return self

    def break_writes(self, blocks: Iterable[int]) -> "FaultSchedule":
        """Make every write touching ``blocks`` fail hard, forever."""
        self.bad_write_blocks.update(blocks)
        return self

    def rot(self, blocks: Iterable[int]) -> "FaultSchedule":
        """Schedule silent corruption of ``blocks`` on their next read."""
        self.rot_blocks.update(blocks)
        return self

    def corrupt(self, bno: int, data: bytes) -> bytes:
        """Deterministically flip bits of block ``bno``'s content."""
        rng = random.Random("rot:%d:%d" % (self.seed, bno))
        rotted = bytearray(data)
        rotted[rng.randrange(len(rotted))] ^= rng.randrange(1, 256)
        return bytes(rotted)

    # -- decisions ------------------------------------------------------------

    def decide(self, op: str, index: int) -> FaultDecision:
        """The fate of the ``index``-th request of kind ``op``.

        Seeding per ``(seed, op, index)`` (str seeds are hashed with a
        stable algorithm in CPython) makes decisions order-independent:
        interleaving reads differently does not perturb write faults.
        """
        mark = self.read_fail_from if op == "read" else self.write_fail_from
        if mark is not None and index >= mark:
            return FaultDecision(HARD)
        if not (self.transient_rate or self.hard_rate or self.torn_rate):
            return FaultDecision()
        rng = random.Random("faults:%d:%s:%d" % (self.seed, op, index))
        roll = rng.random()
        if roll < self.hard_rate:
            return FaultDecision(HARD)
        roll -= self.hard_rate
        if op == "write" and roll < self.torn_rate:
            return FaultDecision(TORN, torn_blocks=rng.randrange(0, 64))
        if op == "write":
            roll -= self.torn_rate
        if roll < self.transient_rate:
            return FaultDecision(
                TRANSIENT,
                failures=rng.randint(1, self.max_transient_failures))
        return FaultDecision()


#: The drive's retry rule for transient faults, shared by the device
#: proxy (lock-step) and the disk queue (replay): attempts per request
#: before the fault is reported as hard, and the backoff before the
#: first retry, doubling per retry.
RETRY_ATTEMPTS = 4
RETRY_BACKOFF = 0.002
#: Time a definitively failed request still occupies the drive before
#: the error is reported.
ERROR_LATENCY = 0.001


def retry_delay(retries: int) -> float:
    """The backoff before retry number ``retries + 1``."""
    return RETRY_BACKOFF * (2 ** retries)


__all__ = [
    "FaultDecision",
    "FaultSchedule",
    "FaultStats",
    "OK",
    "TRANSIENT",
    "HARD",
    "TORN",
]
