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

from typing import Dict, List, Optional, Tuple

from repro.blockdev.device import BlockDevice
from repro.cache.policy import MetadataPolicy
from repro.core.filesystem import CFFS, CFFSConfig
from repro.disk.profiles import SEAGATE_ST31200, DriveProfile
from repro.errors import InvalidArgument

# label -> (embedded_inodes, explicit_grouping)
CONFIG_GRID: Dict[str, Tuple[bool, bool]] = {
    "conventional": (False, False),
    "embedded": (True, False),
    "grouping": (False, True),
    "cffs": (True, True),
}


def grid_labels() -> List[str]:
    return list(CONFIG_GRID.keys())


def config_for(
    label: str,
    policy: MetadataPolicy = MetadataPolicy.SYNC_METADATA,
    **overrides,
) -> CFFSConfig:
    if label not in CONFIG_GRID:
        # ``ffs`` is the alias ``engine.multiclient.resolve_label`` maps
        # to ``conventional`` before a user-typed label gets here.
        raise InvalidArgument(
            "unknown file system %r; known: ffs, %s"
            % (label, ", ".join(CONFIG_GRID)))
    embedded, grouping = CONFIG_GRID[label]
    return CFFSConfig(
        embedded_inodes=embedded,
        explicit_grouping=grouping,
        policy=policy,
        **overrides,
    )


def build_filesystem(
    label: str,
    policy: MetadataPolicy = MetadataPolicy.SYNC_METADATA,
    profile: Optional[DriveProfile] = None,
    **overrides,
) -> CFFS:
    """A fresh file system of the given configuration on a fresh disk."""
    device = BlockDevice(profile if profile is not None else SEAGATE_ST31200)
    return CFFS.mkfs(device, config_for(label, policy, **overrides))
