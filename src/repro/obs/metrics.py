"""The metrics registry: what a stack counts, read out as one snapshot.

Counting and reading are separate.  Every layer counts in plain fields
of its own (``DiskStats``, ``ResilienceStats``, ``BufferCache.hits``)
and registers them once, at construction, with the registry of the
drive below it; :meth:`MetricsRegistry.snapshot` reads them.  Nothing
is pushed anywhere, so a count costs a field increment and needs no
tracer.  Histograms, which one field cannot hold, are instruments the
registry owns; so are the cluster-scope counters of ``Cluster.metrics``.
A snapshot is a plain dict keyed by metric name, sorted, so two
identical seeded runs serialize byte-identically.

Naming convention (see ``docs/OBSERVABILITY.md``, whose catalogue a
tier-1 test holds to the code): dotted lowercase paths,
``<layer>.<what>`` (``disk.reads``, ``cache.misses``) with an optional
instance segment for per-client metrics (``engine.c00.queue_delay``).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import fields
from functools import partial
from typing import (Callable, ClassVar, Dict, Iterable, List, Optional,
                    Sequence, Tuple, Type, TypeVar, Union)

from repro.errors import InvalidArgument

Number = Union[int, float]

S = TypeVar("S", bound="Stats")


class Stats:
    """Base of a dataclass of counters: the one snapshot, delta and sum.

    A numeric field is a counter; a dict field counts per key
    (``DiskStats.request_sizes``); a field named in ``HIGH_WATER`` is a
    level, which a delta keeps at its later value and a sum at its
    largest.
    """

    __slots__ = ()
    HIGH_WATER: ClassVar[Tuple[str, ...]] = ()

    def _values(self) -> List[Tuple[str, object]]:
        return [(f.name, getattr(self, f.name)) for f in fields(self)]

    def snapshot(self: S) -> S:
        """A copy, so a caller can diff before and after a window."""
        return type(self)(**{
            name: dict(value) if isinstance(value, dict) else value
            for name, value in self._values()})

    def delta(self: S, earlier: S) -> S:
        """What accumulated since ``earlier`` (a prior snapshot)."""
        out: Dict[str, object] = {}
        for name, value in self._values():
            before = getattr(earlier, name)
            if isinstance(value, dict):
                value = {key: count - before.get(key, 0)
                         for key, count in value.items()
                         if count != before.get(key, 0)}
            elif name not in self.HIGH_WATER:
                value = value - before
            out[name] = value
        return type(self)(**out)

    @classmethod
    def total(cls: Type[S], parts: Iterable[S]) -> S:
        """The sum of ``parts``, whose fields are all numeric (one
        window's queue deltas over several shards)."""
        out = cls()
        for part in parts:
            for name, value in part._values():
                mine = getattr(out, name)
                setattr(out, name, max(mine, value)
                        if name in cls.HIGH_WATER else mine + value)
        return out


class Counter:
    """A cumulative value (int or float)."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value: Number = 0

    @property
    def value(self) -> Number:
        return self._value

    def inc(self, delta: Number = 1) -> None:
        self._value += delta


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

    def observe(self, value: Number, n: int = 1) -> None:
        self.total += n
        self.sum += value * n
        i = bisect_left(self.bounds, value)     # first bound >= value
        if i < len(self.counts):
            self.counts[i] += n
        else:
            self.overflow += n

    @property
    def value(self) -> Dict[str, object]:
        """What a snapshot reports: ``buckets`` (bound -> count),
        ``"+inf"`` (the overflow), ``total`` and ``sum``."""
        return {"buckets": {str(b): n for b, n in zip(self.bounds, self.counts)},
                "+inf": self.overflow, "total": self.total, "sum": self.sum}


class MetricsRegistry:
    """A namespace of metrics: registered fields and owned instruments.

    Instruments are created on first use; re-requesting a name returns
    the same instrument, and requesting a name already taken by another
    kind is an error (it would split one logical metric across two
    objects).  A registered field name may be registered again: the
    newer owner replaces the older one.
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._fields: Dict[str, Callable[[], Number]] = {}

    # -- what the layers own ------------------------------------------------

    def register(self, prefix: str, source: object,
                 names: Optional[Sequence[str]] = None) -> None:
        """Read ``source``'s counters at every snapshot, as ``prefix.<name>``.

        ``names`` are the attributes to read; by default, every numeric
        field of the dataclass ``source``.  A name registered again
        reads the newer object, so two objects never merge their counts
        (a remount, a device re-attached over the same drive).
        """
        if names is None:
            names = [f.name for f in fields(source)
                     if isinstance(getattr(source, f.name), (int, float))]
        for name in names:
            self.read(prefix + "." + name, partial(getattr, source, name))

    def read(self, name: str, value: Callable[[], Number]) -> None:
        """Take ``name`` from ``value()`` at every snapshot: a state
        gauge, or a count (or histogram) its owner keeps in another form."""
        self._check_free(name, "field")
        self._fields[name] = value

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
                                  ("histogram", self._histograms),
                                  ("field", self._fields)):
            if other_kind != kind and name in table:
                raise InvalidArgument(
                    "metric %r is already a %s, cannot re-register as a %s"
                    % (name, other_kind, kind))

    # -- pull API ------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """All current values, keyed and sorted by metric name.

        Fields, counters and gauges map to their value; histograms map
        to a dict of ``buckets`` (bound -> count, overflow keyed
        ``"+inf"``), ``total`` and ``sum``.  The result is
        JSON-serializable.
        """
        out: Dict[str, object] = {}
        for name, read in self._fields.items():
            out[name] = read()
        for name, c in self._counters.items():
            out[name] = c.value
        for name, g in self._gauges.items():
            out[name] = g.value
        for name, h in self._histograms.items():
            out[name] = h.value
        return dict(sorted(out.items()))

    def names(self) -> List[str]:
        return sorted(list(self._fields) + list(self._counters)
                      + list(self._gauges) + list(self._histograms))
