"""Per-drive statistics, backed by the observability metrics registry.

Every experiment in the paper is ultimately explained by request counts
and where the time went (positioning vs. transfer), so the drive keeps
both.  The "order of magnitude fewer disk accesses" claim is checked
directly against these counters.

The counters live in a :class:`~repro.obs.metrics.MetricsRegistry`
under ``disk.*`` names, so ``repro trace`` can pull the same numbers as
a metrics snapshot; the attributes below (``stats.reads``,
``stats.seek_time``) are a read-only view of them.  The drive
increments the counters themselves (``stats.counters[name]``).
"""

from __future__ import annotations

from typing import Dict

from repro.obs.metrics import MetricsRegistry

#: Integer request/sector counters, in declaration order.
_COUNT_FIELDS = (
    "reads", "writes", "sectors_read", "sectors_written",
    "cache_hits", "write_absorbed",
)

#: Simulated-seconds accumulators.
_TIME_FIELDS = (
    "seek_time", "rotation_time", "transfer_time",
    "overhead_time", "bus_time", "stall_time",
)

_FIELDS = _COUNT_FIELDS + _TIME_FIELDS

#: Bucket bounds (sectors) for the request-size histogram the registry
#: keeps alongside the exact ``request_sizes`` dict: one block, the
#: paper's 16-block group span, and powers of two between and beyond.
REQUEST_SIZE_BUCKETS = (8, 16, 32, 64, 128, 256, 512)


def _registry_field(name: str):
    return property(lambda self: self.counters[name].value)


class DiskStats:
    """Counters accumulated by a :class:`~repro.disk.drive.SimulatedDisk`."""

    def __init__(self, registry: MetricsRegistry = None, **values: float) -> None:
        unknown = set(values) - set(_FIELDS)
        if unknown:
            raise TypeError("unknown DiskStats fields: %s" % ", ".join(sorted(unknown)))
        self.registry = registry if registry is not None else MetricsRegistry()
        # The Counter objects are resolved once here; the field
        # properties, record_request's aliases and the ones the drive
        # binds are the same live instruments.
        self.counters = {}
        for name in _FIELDS:
            counter = self.registry.counter("disk." + name)
            counter.set(values.get(name, 0))
            self.counters[name] = counter
        self._reads = self.counters["reads"]
        self._writes = self.counters["writes"]
        self._sectors_read = self.counters["sectors_read"]
        self._sectors_written = self.counters["sectors_written"]
        self._request_hist = self.registry.histogram(
            "disk.request_sectors", REQUEST_SIZE_BUCKETS)
        self.request_sizes: Dict[int, int] = {}

    @property
    def total_requests(self) -> int:
        return self.reads + self.writes

    @property
    def bytes_read(self) -> int:
        return self.sectors_read * 512

    @property
    def bytes_written(self) -> int:
        return self.sectors_written * 512

    def record_request(self, is_write: bool, nsectors: int) -> None:
        if is_write:
            self._writes.inc()
            self._sectors_written.inc(nsectors)
        else:
            self._reads.inc()
            self._sectors_read.inc(nsectors)
        self._request_hist.observe(nsectors)
        sizes = self.request_sizes
        sizes[nsectors] = sizes.get(nsectors, 0) + 1

    def snapshot(self) -> "DiskStats":
        """A copy, so callers can diff before/after a benchmark phase."""
        copy = DiskStats(**{name: getattr(self, name) for name in _FIELDS})
        copy.request_sizes = dict(self.request_sizes)
        return copy

    def delta(self, earlier: "DiskStats") -> "DiskStats":
        """Counters accumulated since ``earlier`` (a prior snapshot)."""
        out = DiskStats(**{
            name: getattr(self, name) - getattr(earlier, name)
            for name in _FIELDS
        })
        sizes: Dict[int, int] = {}
        for size, count in self.request_sizes.items():
            diff = count - earlier.request_sizes.get(size, 0)
            if diff:
                sizes[size] = diff
        out.request_sizes = sizes
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "DiskStats(%s)" % ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in _FIELDS)


for _name in _FIELDS:
    setattr(DiskStats, _name, _registry_field(_name))
del _name
