"""The paper's measured configuration grid.

Four file system configurations (conventional, embedded inodes only,
explicit grouping only, C-FFS) × two integrity modes (synchronous
metadata, soft-updates-emulated delayed metadata).  All are instances
of the C-FFS implementation with techniques toggled, exactly as the
paper measured "the same file system without these techniques".
"""

# reprolint: disable-file=L001 — this module is the stack *assembly*
# point (profile -> device -> file system) that the benchmarks, the
# engine, and the CLI all share.  The workload drivers themselves stay
# above vfs; nothing here performs I/O behind the cache's back.

from __future__ import annotations

from typing import Dict, Tuple

from repro.blockdev.device import BlockDevice
from repro.cache.policy import MetadataPolicy
from repro.core.filesystem import CFFS, CFFSConfig
from repro.disk.profiles import SEAGATE_ST31200
from repro.errors import InvalidArgument

# label -> (embedded_inodes, explicit_grouping)
CONFIG_GRID: Dict[str, Tuple[bool, bool]] = {
    "conventional": (False, False),
    "embedded": (True, False),
    "grouping": (False, True),
    "cffs": (True, True),
}


def config_for(
    label: str,
    policy: MetadataPolicy = MetadataPolicy.SYNC_METADATA,
    **overrides,
) -> CFFSConfig:
    # ``ffs`` names the paper's baseline, ``conventional``, not the
    # classic ``repro.ffs`` class; it is an alias rather than a grid
    # row so the artefact grid runs the baseline once.
    flags = CONFIG_GRID.get("conventional" if label == "ffs" else label)
    if flags is None:
        raise InvalidArgument(
            "unknown file system %r; known: ffs, %s"
            % (label, ", ".join(CONFIG_GRID)))
    embedded, grouping = flags
    return CFFSConfig(
        embedded_inodes=embedded,
        explicit_grouping=grouping,
        policy=policy,
        **overrides,
    )


def build_filesystem(
    label: str,
    policy: MetadataPolicy = MetadataPolicy.SYNC_METADATA,
    **overrides,
) -> CFFS:
    """A fresh file system of the given configuration on a fresh
    Seagate ST31200."""
    return CFFS.mkfs(BlockDevice(SEAGATE_ST31200),
                     config_for(label, policy, **overrides))
