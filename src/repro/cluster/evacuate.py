"""Shard evacuation: move a sick shard's subtrees to healthy shards.

When a shard demotes to READ_ONLY its namespace is stuck: assignments
are first-touch-sticky, so every write into its subtrees keeps failing
forever.  Evacuation drains it — reads still work on a READ_ONLY shard
(that is the point of demoting instead of dying) — by copying each
placed top-level subtree to a healthy destination and flipping the
router assignment.  The shard is then retired (marked FAILED).

Crash safety reuses the cross-shard rename machinery from
:mod:`repro.cluster.intent` — the same CRC-sealed records under
``/.cluster``, the same targeted-durability writes — with one twist:
the *source cannot be written* (it is read-only), so the rename
protocol's "unlink the source" commit point is unavailable.  The commit
point moves to the destination instead::

    1. dst: write  /.cluster/evac-NNNNNN    {src shard, top, counts}
    2. dst: create the subtree's directories
    3. dst: write  every file copy (each individually durable)
    4. dst: write  /.cluster/adopt-<top>    {top, src shard}
    5. dst: unlink the evac intent          (may stay cached)
    6. router: reassign(top, dst)

The **adopt record** (step 4) is the commit: it is written only after
every copy in the subtree is durable, so at any media-write boundary

- adopt record durable  -> the destination owns a complete subtree
  (roll the intent forward, clear the stale source copy when the
  source becomes writable again);
- adopt record absent   -> the still-intact read-only source remains
  authoritative (roll back: remove the partial destination copy).

:func:`recover_shard_evacs` applies exactly that rule, and
adoption-aware assignment rebuild (:meth:`Cluster.rebuild_assignments`)
prefers a valid adopt record over a stale source-root listing — the
read-only source could never unlink its copy, so after a restart both
shards list the subtree and the adopt record breaks the tie.

Everything is deterministic: subtrees and files are walked in sorted
order, destinations come from the router's health-aware spare pick,
and all I/O runs lock-step on cluster time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.cluster.intent import (
    ADOPT,
    EVAC,
    Recovery,
    durable_write,
    encode_record,
    scan_records,
)
from repro.errors import DiskError, FileSystemError
from repro.resilience.checksums import crc32
from repro.vfs import FileKind


# -- namespace walking -----------------------------------------------------------


def subtree_manifest(fs, root: str) -> Tuple[List[str], List[str]]:
    """(directories, files) under ``root``, both sorted, root included
    in the directory list.  Deterministic: the evacuator's copy order.
    """
    dirs: List[str] = []
    files: List[str] = []
    stack = [root]
    while stack:
        path = stack.pop()
        dirs.append(path)
        children = []
        for name in sorted(fs.readdir(path)):
            child = "%s/%s" % (path.rstrip("/"), name)
            if fs.stat(child).kind is FileKind.DIRECTORY:
                children.append(child)
            else:
                files.append(child)
        stack.extend(reversed(children))
    return sorted(dirs), sorted(files)


def remove_tree(fs, root: str) -> None:
    """Remove ``root`` and everything under it (bottom-up)."""
    dirs, files = subtree_manifest(fs, root)
    for path in files:
        fs.unlink(path)
    for path in reversed(dirs):
        fs.rmdir(path)


def adopted_tops(fs) -> Dict[str, int]:
    """Valid adopt records on a shard: top -> source shard id."""
    return {values[0]: values[1] for _path, values in scan_records(fs, ADOPT)
            if values is not None}


# -- the evacuator ---------------------------------------------------------------


@dataclass
class EvacuatedTop:
    """One subtree moved off a sick shard."""

    top: str
    src: int
    dst: int
    files: int
    bytes: int
    #: Per-file CRC32 of the copied content, keyed by absolute path —
    #: the chaos harness re-reads through the facade and verifies.
    crcs: Dict[str, int] = field(default_factory=dict)


def evacuate_top(cluster, top: str, src_shard, dst_shard) -> EvacuatedTop:
    """Copy one subtree from ``src_shard`` to ``dst_shard`` (crash-safe).

    The source is only ever *read*; every destination step is ordered
    behind a durable evac intent and committed by a durable adopt
    record (see the module docstring for the recovery argument).
    """
    root = "/" + top
    dirs, files = subtree_manifest(src_shard.fs, root)
    sizes = {path: src_shard.fs.stat(path).size for path in files}
    report = EvacuatedTop(top=top, src=src_shard.sid, dst=dst_shard.sid,
                          files=len(files), bytes=sum(sizes.values()))
    ipath = EVAC.path(cluster.next_intent_seq())
    payload = encode_record(EVAC, src_shard.sid, top, report.files, report.bytes)
    cluster.lockstep(dst_shard, lambda f: durable_write(f, ipath, payload))
    for dpath in dirs:
        cluster.lockstep(dst_shard,
                         lambda f, p=dpath: None if f.exists(p)
                         else f.mkdir(p))
    for fpath in files:
        data = cluster.lockstep(src_shard,
                                lambda f, p=fpath: f.read_file(p))
        cluster.account(src_shard, bytes_read=len(data))
        report.crcs[fpath] = crc32(data)
        cluster.lockstep(dst_shard,
                         lambda f, p=fpath, d=data: durable_write(f, p, d))
        cluster.account(dst_shard, bytes_written=len(data))
        cluster.metrics.counter("cluster.evac.files").inc()
        cluster.metrics.counter("cluster.evac.bytes").inc(len(data))
    adopt = encode_record(ADOPT, top, src_shard.sid)
    cluster.lockstep(dst_shard,
                     lambda f: durable_write(f, ADOPT.path(top), adopt))
    # Clearing the intent may stay cached: a stale evac intent whose
    # adopt record is durable recovers by (idempotent) roll-forward.
    cluster.lockstep(dst_shard, lambda f: f.unlink(ipath))
    cluster.router.reassign(top, dst_shard.sid)
    cluster.metrics.counter("cluster.evac.subtrees").inc()
    return report


def evacuate_shard(cluster, sid: int) -> List[EvacuatedTop]:
    """Drain every subtree placed on shard ``sid``, then retire it.

    Destinations come from the router's health-aware spare pick (the
    sick shard is always excluded), so the drained load spreads over
    the surviving shards.  After the last subtree moves, the shard is
    marked FAILED — evacuated and retired.
    """
    from repro.resilience.health import HealthState

    src = cluster.shards[sid]
    tops = sorted(top for top, owner in cluster.router.assignments.items()
                  if owner == sid)
    reports: List[EvacuatedTop] = []
    for top in tops:
        dst = cluster.shards[cluster.router.pick_spare(top, exclude=(sid,))]
        reports.append(evacuate_top(cluster, top, src, dst))
    cluster.health.mark(sid, HealthState.FAILED, "evacuated; shard retired")
    return reports


# -- recovery --------------------------------------------------------------------


def recover_shard_evacs(dst_sid: int, filesystems) -> List[Tuple[int, str]]:
    """Apply the evacuation recovery rule on shard ``dst_sid``.

    Returns ``(src_shard, action)`` pairs with actions
    ``"evac_rolled_forward"`` (adopt record durable: the copy is
    complete and owned here), ``"evac_rolled_back"`` (no adopt record:
    remove the partial copy, the source is authoritative),
    ``"evac_discarded"`` (torn record), and ``"evac_source_cleared"``
    (the stale source copy of an adopted subtree was removed because
    the source is writable again — the move's deferred unlink).
    Idempotent: a second run over the converged state is a no-op.
    """
    recovery = Recovery(filesystems[dst_sid])
    fs = recovery.fs
    # A torn adopt record means the commit never landed, so the evac
    # intents for its subtree roll back below.
    adopted: Dict[str, int] = {
        top: src_sid
        for _path, (top, src_sid) in recovery.intact(ADOPT, "evac_discarded")}

    for path, (src_sid, top, _files, _bytes) in recovery.intact(
            EVAC, "evac_discarded"):
        if top in adopted:
            action = "evac_rolled_forward"
        else:
            root = "/" + top
            if fs.exists(root):
                remove_tree(fs, root)
            action = "evac_rolled_back"
        recovery.remove(path)
        recovery.outcomes.append((src_sid, action))

    # Deferred source unlink: an adopted subtree's stale source copy is
    # removed once the source shard accepts writes again (post-restart
    # remount); while it refuses, the adopt record keeps masking it.
    for top, src_sid in sorted(adopted.items()):
        src_fs = filesystems.get(src_sid)
        if src_fs is None:
            continue
        root = "/" + top
        if src_fs.exists(root):
            try:
                remove_tree(src_fs, root)
                src_fs.sync()
            except (DiskError, FileSystemError):
                continue   # still read-only/failed; keep the record
            recovery.outcomes.append((src_sid, "evac_source_cleared"))
        recovery.remove(ADOPT.path(top))
    return recovery.finish()


__all__ = [
    "EvacuatedTop",
    "adopted_tops",
    "evacuate_shard",
    "evacuate_top",
    "recover_shard_evacs",
    "remove_tree",
    "subtree_manifest",
]
