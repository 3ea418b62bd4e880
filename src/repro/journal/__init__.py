"""Crash consistency as a subsystem: write-ahead metadata journaling
and dependency-tracked soft updates.

Both mechanisms implement the buffer cache's *write pipeline* contract
(see :mod:`repro.cache.buffercache`) and are selected by
:class:`~repro.cache.policy.MetadataPolicy`:

- :class:`~repro.journal.wal.Journal` (``JOURNAL_METADATA``) — ordered
  metadata updates are batched into CRC-32-protected transactions
  appended to a reserved on-disk log region (group commit); mount-time
  replay of the committed tail recovers the volume orders of magnitude
  faster than a full fsck walk.
- :class:`~repro.journal.softdep.SoftDepTracker` (``DELAYED_METADATA``)
  — true soft updates [Ganger95]: every ordered update records an
  after-image and the updates it requires on disk first, and writeback
  rolls blocks back to their newest *safe* image (rolling them forward
  on a later pass) so no write that reaches the disk ever violates the
  ordering rules.

``docs/JOURNALING.md`` documents the on-disk log format, the
dependency rules, and the recovery protocol.
"""

from __future__ import annotations

from repro.cache.buffercache import BufferCache
from repro.cache.policy import MetadataPolicy
from repro.errors import JournalCorrupt
from repro.journal.recovery import (
    JournalScan,
    ReplayStats,
    describe_journal,
    replay_journal,
    scan_journal,
    timed_replay,
)
from repro.journal.softdep import SoftDepTracker
from repro.journal.wal import Journal, default_journal_blocks

__all__ = [
    "Journal",
    "JournalScan",
    "ReplayStats",
    "SoftDepTracker",
    "attach_pipeline",
    "default_journal_blocks",
    "describe_journal",
    "replay_journal",
    "scan_journal",
    "timed_replay",
]


def attach_pipeline(
    cache: BufferCache,
    policy: MetadataPolicy,
    journal_start: int = 0,
    journal_blocks: int = 0,
) -> None:
    """Install the write pipeline matching ``policy`` on ``cache``.

    ``SYNC_METADATA`` installs nothing (ordering is enforced by writing
    through).  ``JOURNAL_METADATA`` requires the volume to carry a log
    region (``journal_start``/``journal_blocks`` from the superblock).
    """
    if policy.is_softdep:
        tracker = cache.write_pipeline = SoftDepTracker()
        cache.device.disk.registry.register(
            "journal", tracker, ("deferred_writes", "rollbacks"))
    elif policy.is_journal:
        if not journal_start or not journal_blocks:
            raise JournalCorrupt(
                "volume has no journal region; re-mkfs with the journal "
                "policy to reserve one")
        cache.write_pipeline = Journal(
            cache.device, cache, journal_start, journal_blocks)
    else:
        cache.write_pipeline = None
