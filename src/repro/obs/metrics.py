"""The metrics registry: named counters, gauges and fixed-bucket histograms.

The registry replaces the ad-hoc stat dicts that used to live in
``engine/``, ``cache/`` and ``disk/stats.py`` with one pull-based model:
instruments are created on first use (``registry.counter(name)`` is
idempotent), mutated in place by the instrumented code, and read out as
a deterministic snapshot.  Nothing here pushes anywhere; a snapshot is
a plain dict keyed by metric name, sorted, so two identical seeded runs
serialize byte-identically.

Naming convention (see ``docs/OBSERVABILITY.md``): dotted lowercase
paths, ``<layer>.<what>`` (``disk.reads``, ``cache.misses``) with an
optional instance segment for per-client metrics
(``engine.c00.queue_delay``).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Union

from repro.errors import InvalidArgument

Number = Union[int, float]


class Counter:
    """A cumulative value (int or float); supports diffable reads.

    Counters are conceptually monotone, but ``set`` exists so that
    legacy snapshot/delta APIs (``DiskStats.delta``) can be expressed as
    thin reads and writes of registry values.
    """

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value: Number = 0

    @property
    def value(self) -> Number:
        return self._value

    def inc(self, delta: Number = 1) -> None:
        self._value += delta

    def set(self, value: Number) -> None:
        self._value = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Counter(%r, %r)" % (self.name, self._value)


class Gauge:
    """A point-in-time value (queue depth, free blocks)."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value: Number = 0

    @property
    def value(self) -> Number:
        return self._value

    def set(self, value: Number) -> None:
        self._value = value

    def inc(self, delta: Number = 1) -> None:
        self._value += delta


class Histogram:
    """Fixed-bucket histogram with ``le`` (inclusive upper-bound) edges.

    ``buckets`` is a strictly increasing sequence of upper bounds; an
    observation lands in the first bucket whose bound is ``>= value``
    (boundary values belong to the bucket they name), or in the implicit
    overflow bucket past the last bound.
    """

    __slots__ = ("name", "bounds", "counts", "overflow", "total", "sum")

    def __init__(self, name: str, buckets: Sequence[Number]) -> None:
        bounds = list(buckets)
        if not bounds:
            raise InvalidArgument("histogram %r needs at least one bucket" % name)
        if any(b >= a for b, a in zip(bounds, bounds[1:])):
            raise InvalidArgument(
                "histogram %r bucket bounds must be strictly increasing" % name)
        self.name = name
        self.bounds: List[Number] = bounds
        self.counts: List[int] = [0] * len(bounds)
        self.overflow = 0
        self.total = 0
        self.sum: Number = 0

    def observe(self, value: Number) -> None:
        self.total += 1
        self.sum += value
        i = bisect_left(self.bounds, value)     # first bound >= value
        if i < len(self.counts):
            self.counts[i] += 1
        else:
            self.overflow += 1


class MetricsRegistry:
    """A namespace of instruments, created on first use.

    Re-requesting a name returns the same instrument; requesting a name
    already registered as a different kind is an error (it would split
    one logical metric across two objects).
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument accessors ------------------------------------------------

    def counter(self, name: str) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            self._check_free(name, "counter")
            inst = self._counters[name] = Counter(name)
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self._gauges.get(name)
        if inst is None:
            self._check_free(name, "gauge")
            inst = self._gauges[name] = Gauge(name)
        return inst

    def histogram(self, name: str,
                  buckets: Optional[Sequence[Number]] = None) -> Histogram:
        inst = self._histograms.get(name)
        if inst is None:
            if buckets is None:
                raise InvalidArgument(
                    "histogram %r does not exist yet; pass its buckets" % name)
            self._check_free(name, "histogram")
            inst = self._histograms[name] = Histogram(name, buckets)
        return inst

    def _check_free(self, name: str, kind: str) -> None:
        for other_kind, table in (("counter", self._counters),
                                  ("gauge", self._gauges),
                                  ("histogram", self._histograms)):
            if name in table:
                raise InvalidArgument(
                    "metric %r is already a %s, cannot re-register as a %s"
                    % (name, other_kind, kind))

    # -- pull API ------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """All current values, keyed and sorted by metric name.

        Counters and gauges map to their value; histograms map to a
        dict of ``buckets`` (bound -> count, overflow keyed ``"+inf"``),
        ``total`` and ``sum``.  The result is JSON-serializable.
        """
        out: Dict[str, object] = {}
        for name, c in self._counters.items():
            out[name] = c.value
        for name, g in self._gauges.items():
            out[name] = g.value
        for name, h in self._histograms.items():
            out[name] = {
                "buckets": {str(b): n for b, n in zip(h.bounds, h.counts)},
                "+inf": h.overflow,
                "total": h.total,
                "sum": h.sum,
            }
        return dict(sorted(out.items()))

    def names(self) -> List[str]:
        return sorted(list(self._counters) + list(self._gauges)
                      + list(self._histograms))

