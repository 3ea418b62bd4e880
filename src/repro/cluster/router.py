"""Namespace routing: which shard owns a top-level directory subtree.

The cluster's namespace is partitioned at the *top-level component*:
``/logs/2026/08/a.txt`` lives wholly on whichever shard owns ``logs``.
Placing whole subtrees (rather than single files) keeps directory
locality — the property the paper's grouping argument rests on — intact
within a shard, and keeps the router off the data path: one dictionary
lookup per operation, never a disk access.

Two pluggable policies:

- :class:`HashRouter` — consistent hashing over a ring of virtual
  nodes.  Placement is a pure function of the name and the shard
  count, so any node (or a future client library) can compute it
  without coordination, and it is trivially stable across restarts.
- :class:`UtilizationRouter` — utilization-aware placement in the CFS
  style: a *new* top-level directory goes to the shard with the least
  routed load at that moment.  Under skewed (Zipfian) directory
  popularity this online-greedy rule evens out per-shard load far
  better than hashing, at the cost of keeping an assignment table.

Both are deterministic: hashes come from :func:`zlib.crc32` (never the
salted builtin ``hash``), and ties break toward the lowest shard id.
Assignments are first-touch-sticky — ``place`` returns the recorded
owner forever after — and :meth:`Router.adopt` rebuilds the table from
a mounted cluster's root listings, so a shard-count-preserving restart
reproduces the exact same mapping (pinned by the placement-determinism
tests).
"""

from __future__ import annotations

import bisect
import zlib
from typing import Callable, Dict, FrozenSet, List, Optional

from repro.errors import DeviceDegraded, InvalidArgument

ROUTER_KINDS = ("hash", "util")

#: Virtual nodes per shard on the consistent-hash ring.  Enough that
#: the ring's arc lengths even out (the classic variance argument);
#: small enough that building the ring is negligible.
VNODES = 64

#: Spill threshold of the utilization router: a DEGRADED shard receives
#: a new placement only when the least-loaded healthy shard carries
#: more than this many times the degraded shard's load (+1, so a
#: completely idle cluster still prefers healthy shards).
DEGRADED_PRESSURE = 4.0

#: Simulated CPU seconds one routing decision costs (a CRC over a short
#: name plus a dictionary probe).  Charged by the cluster per routed
#: operation so router overhead shows up in simulated time, not just as
#: a counter.
ROUTE_CPU_SECONDS = 1.5e-6


#: No shards excluded (the default for ``_pick``).
_NO_EXCLUDE: FrozenSet[int] = frozenset()


class Router:
    """Base class: first-touch-sticky placement of top-level names.

    Health awareness: :meth:`set_health` wires a callable returning a
    shard's :class:`~repro.resilience.health.HealthState` *ordinal*
    (0 HEALTHY .. 3 FAILED).  New placements never land on READ_ONLY
    or FAILED shards, prefer HEALTHY over DEGRADED, and raise
    :class:`~repro.errors.DeviceDegraded` when no shard can accept.
    *Existing* assignments stay sticky regardless of health — ownership
    is recorded in the namespace itself, and moving it is evacuation's
    job (:mod:`repro.cluster.evacuate`), not the router's.  Without a
    health hook every shard reads as HEALTHY and placement is exactly
    the pre-health behavior (pinned by the determinism tests).
    """

    kind = "base"

    def __init__(self, n_shards: int) -> None:
        if n_shards < 1:
            raise InvalidArgument("need at least one shard, got %d" % n_shards)
        self.n_shards = n_shards
        self.assignments: Dict[str, int] = {}
        self._health: Optional[Callable[[int], int]] = None
        #: Placements diverted by health (the pick differed from what a
        #: health-blind pick would have chosen).
        self.skips = 0

    def set_health(self, ordinal_of: Callable[[int], int]) -> None:
        """Wire the per-shard health ordinal hook (None detaches)."""
        self._health = ordinal_of

    def _ordinal(self, sid: int) -> int:
        return self._health(sid) if self._health is not None else 0

    def place(self, top: str) -> int:
        """The shard owning ``top``, assigning it on first touch."""
        sid = self.assignments.get(top)
        if sid is None:
            sid = self._pick(top)
            self.assignments[top] = sid
            self._placed(sid)
        return sid

    def _placed(self, sid: int) -> None:
        """First-touch hook: a new name was just assigned to ``sid``."""

    def adopt(self, top: str, sid: int) -> None:
        """Record an existing placement (rebuild from mounted shards)."""
        if not 0 <= sid < self.n_shards:
            raise InvalidArgument(
                "shard %d out of range for %d shards" % (sid, self.n_shards))
        self.assignments[top] = sid

    def reassign(self, top: str, sid: int) -> None:
        """Move an existing assignment (evacuation adoption update)."""
        if not 0 <= sid < self.n_shards:
            raise InvalidArgument(
                "shard %d out of range for %d shards" % (sid, self.n_shards))
        if self.assignments.get(top) != sid:
            self.assignments[top] = sid
            self._placed(sid)

    def pick_spare(self, top: str, exclude=()) -> int:
        """A health-eligible destination for ``top`` outside ``exclude``
        (evacuation target selection; does not record an assignment)."""
        return self._pick(top, frozenset(exclude))

    def probe(self, top: str) -> Optional[int]:
        """Where ``top`` lives, *without* placing it (None if unknown)."""
        return self.assignments.get(top)

    def charge(self, sid: int) -> None:
        """Account one routed operation against shard ``sid``."""

    def _pick(self, top: str, exclude: FrozenSet[int] = _NO_EXCLUDE) -> int:
        raise NotImplementedError


class HashRouter(Router):
    """Consistent hashing with virtual nodes (stateless placement)."""

    kind = "hash"

    def __init__(self, n_shards: int) -> None:
        super().__init__(n_shards)
        ring = sorted(
            (zlib.crc32(b"shard-%d/vnode-%d" % (sid, v)), sid)
            for sid in range(n_shards)
            for v in range(VNODES)
        )
        self._points: List[int] = [point for point, _ in ring]
        self._owners: List[int] = [sid for _, sid in ring]

    def _pick(self, top: str, exclude: FrozenSet[int] = _NO_EXCLUDE) -> int:
        """Walk the ring from the name's hash point.

        The first HEALTHY owner wins; a DEGRADED owner is remembered as
        the fallback and used only when the whole walk finds no healthy
        shard (for the ring there is no load signal, so "avoid DEGRADED
        under pressure" degenerates to healthy-first).  READ_ONLY and
        FAILED owners are skipped outright.
        """
        h = zlib.crc32(top.encode("utf-8"))
        index = bisect.bisect_left(self._points, h) % len(self._points)
        first = self._owners[index]
        fallback: Optional[int] = None
        seen: set = set()
        n = len(self._points)
        for off in range(n):
            sid = self._owners[(index + off) % n]
            if sid in seen or sid in exclude:
                continue
            seen.add(sid)
            ordinal = self._ordinal(sid)
            if ordinal == 0:
                if sid != first:
                    self.skips += 1
                return sid
            if ordinal == 1 and fallback is None:
                fallback = sid
        if fallback is not None:
            if fallback != first:
                self.skips += 1
            return fallback
        raise DeviceDegraded(
            "no shard can accept new placements (all READ_ONLY or FAILED)")

    def probe(self, top: str) -> Optional[int]:
        # Hash placement is a pure function of the name: probing is
        # exact even for names this router instance has never seen.
        sid = self.assignments.get(top)
        if sid is not None:
            return sid
        # Probe with health-blind ring lookup: exists() must not report
        # a phantom move just because the canonical owner is sick.
        h = zlib.crc32(top.encode("utf-8"))
        index = bisect.bisect_left(self._points, h) % len(self._points)
        return self._owners[index]


class UtilizationRouter(Router):
    """Least-loaded placement for new names (utilization-aware).

    Load is the count of operations routed to each shard so far (see
    :meth:`charge`); a popular directory therefore raises its shard's
    load and pushes subsequent new directories elsewhere — the online
    greedy balancer.  ``adopt`` counts one unit per adopted directory
    so a rebuilt router starts from a sane relative ordering.
    """

    kind = "util"

    def __init__(self, n_shards: int) -> None:
        super().__init__(n_shards)
        self.load: List[int] = [0] * n_shards

    def _pick(self, top: str, exclude: FrozenSet[int] = _NO_EXCLUDE) -> int:
        def least(candidates: List[int]) -> int:
            best = min(candidates, key=lambda s: (self.load[s], s))
            return best   # lowest sid wins ties

        usable = [s for s in range(self.n_shards)
                  if s not in exclude and self._ordinal(s) < 2]
        if not usable:
            raise DeviceDegraded(
                "no shard can accept new placements "
                "(all READ_ONLY or FAILED)")
        healthy = [s for s in usable if self._ordinal(s) == 0]
        degraded = [s for s in usable if self._ordinal(s) == 1]
        if healthy and degraded:
            h, d = least(healthy), least(degraded)
            # Avoid DEGRADED shards until the healthy ones are loaded
            # past the pressure threshold.
            if self.load[h] > DEGRADED_PRESSURE * (self.load[d] + 1):
                choice = d
            else:
                choice = h
        elif healthy:
            choice = least(healthy)
        else:
            choice = least(degraded)
        blind = least([s for s in range(self.n_shards) if s not in exclude])
        if choice != blind:
            self.skips += 1
        return choice

    def adopt(self, top: str, sid: int) -> None:
        fresh = top not in self.assignments
        super().adopt(top, sid)
        if fresh:
            self._placed(sid)

    def _placed(self, sid: int) -> None:
        # A directory is load the moment it exists (mirrors adopt, so a
        # rebuilt router starts from the same relative ordering).
        self.load[sid] += 1

    def charge(self, sid: int) -> None:
        self.load[sid] += 1


def make_router(kind: str, n_shards: int) -> Router:
    """Build the router for a ``--router`` CLI choice."""
    if kind == "hash":
        return HashRouter(n_shards)
    if kind == "util":
        return UtilizationRouter(n_shards)
    raise InvalidArgument(
        "unknown router %r; known: %s" % (kind, ", ".join(ROUTER_KINDS)))


__all__ = [
    "DEGRADED_PRESSURE",
    "HashRouter",
    "ROUTER_KINDS",
    "ROUTE_CPU_SECONDS",
    "Router",
    "UtilizationRouter",
    "VNODES",
    "make_router",
]
