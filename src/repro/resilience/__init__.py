"""Self-healing storage: checksummed reads, remapping, scrubbing.

The package interposes :class:`ResilientBlockDevice` between the file
systems (or the buffer cache) and the — possibly fault-injecting —
device below it:

- :mod:`repro.resilience.checksums` — the one checksum (stdlib CRC-32)
  and the per-block sidecar codec;
- :mod:`repro.resilience.layout` — the reserved tail region (sidecar,
  spare pool, CRC-protected header with remap + lost tables);
- :mod:`repro.resilience.health` — the HEALTHY → DEGRADED → READ_ONLY
  → FAILED state machine;
- :mod:`repro.resilience.device` — the verified, self-healing device
  itself, its retry and failure budgets, plus the offline
  :class:`LogicalView` fsck uses;
- :mod:`repro.resilience.scrub` — the batched background scrubber.

See ``docs/RESILIENCE.md`` for the design and its invariants.
"""

from repro.resilience.checksums import (
    CRCS_PER_BLOCK,
    crc32,
    pack_crc_block,
    unpack_crc_block,
)
from repro.resilience.device import (
    LogicalView,
    ResilienceStats,
    ResilientBlockDevice,
    ZERO_CRC,
)
from repro.resilience.health import (
    HealthMonitor,
    HealthState,
    HealthTransition,
)
from repro.resilience.layout import (
    HEADER_VERSION,
    RESILIENCE_MAGIC,
    ResilienceGeometry,
    ResilienceHeader,
    compute_geometry,
    crc_blocks_for,
    try_unpack_header,
)
from repro.resilience.scrub import ScrubStats, Scrubber

__all__ = [
    "CRCS_PER_BLOCK",
    "HEADER_VERSION",
    "HealthMonitor",
    "HealthState",
    "HealthTransition",
    "LogicalView",
    "RESILIENCE_MAGIC",
    "ResilienceGeometry",
    "ResilienceHeader",
    "ResilienceStats",
    "ResilientBlockDevice",
    "ScrubStats",
    "Scrubber",
    "ZERO_CRC",
    "compute_geometry",
    "crc_blocks_for",
    "crc32",
    "pack_crc_block",
    "try_unpack_header",
    "unpack_crc_block",
]
