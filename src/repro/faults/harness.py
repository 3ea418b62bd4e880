"""Crash-point sweep: power-cut everywhere, repair, remount, verify.

The harness runs a small-file workload **once** over a journaling
:class:`~repro.faults.proxy.FaultyBlockDevice`, recording every media
block write in order plus a durability checkpoint — the set of files
the application had synced — after each ``sync``.  Then it sweeps the
crash points: for each prefix length *k* of the write journal it
materializes the disk image as a power cut would have left it
(:meth:`FaultyBlockDevice.image_at`), runs fsck in repair mode,
re-checks that the repaired image is pristine, remounts it with the
geometry taken from the superblock, and reads back every file of the
newest checkpoint that had fully reached the disk before the cut.

A crash point *recovers* iff repair converges (second check pristine),
the image remounts, and no synced-and-unmodified file lost a byte.
The paper's integrity argument — synchronous ordering writes, soft
updates, or write-ahead journaling, plus fsck (which replays the log
before its walk) — predicts 100% recovery at every point on both
formats; the sweep tests that prediction exhaustively.

Everything is deterministic: the workload is seeded, the journal is a
pure function of the seed, and crash images are replayed from it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

from repro.blockdev.device import BlockDevice
from repro.cache.policy import MetadataPolicy
from repro.disk.profiles import DriveProfile
from repro.errors import ReproError
from repro.faults.proxy import FaultyBlockDevice
from repro.faults.schedule import FaultSchedule
from repro.ffs.filesystem import FFS
from repro.fsck import FORMAT_LABELS, check_image, format_for, mount_image
from repro.resilience import ResilientBlockDevice

#: The sweep workload syncs after every this many files.
SYNC_EVERY = 5

#: Small drive (3200 blocks ≈ 13 MB) so a full sweep — one fsck +
#: remount per media write — stays fast.  Same geometry the test
#: suite uses.
FAULTSIM_PROFILE = DriveProfile(
    name="FaultSim 13MB",
    year=1996,
    rpm=5400.0,
    heads=4,
    zone_table=((100, 40), (100, 24)),
    single_cyl_seek_ms=1.0,
    avg_seek_ms=8.0,
    full_seek_ms=16.0,
    command_overhead_ms=1.0,
    bus_mb_per_s=10.0,
    cache_segments=2,
    readahead_sectors=32,
    write_cache=True,
    write_buffer_kb=128,
)

_FILE_SIZES = (512, 1024, 3000, 4096, 9000)  # all well under 12 blocks


@dataclass
class Checkpoint:
    """Durable state at one sync boundary: journal length + synced files."""

    journal_len: int
    files: Dict[str, bytes]


@dataclass
class CrashPoint:
    """Outcome of power-cutting after the k-th media block write."""

    k: int
    first_errors: int            # complaints before repair
    first_repairs: int
    fixes: int                   # repairs fsck applied
    pristine_after: bool         # second check came back clean
    remounted: bool
    files_checked: int
    intact: bool                 # every checked file byte-exact
    detail: str = ""             # first failure, when not recovered

    @property
    def recovered(self) -> bool:
        return self.pristine_after and self.remounted and self.intact


@dataclass
class SweepResult:
    """One crash-point sweep over one (format, policy) configuration."""

    label: str
    policy: str
    n_files: int
    seed: int
    journal_base: int            # media writes landed by mkfs + first sync
    total_writes: int
    stride: int
    resilient: bool = False
    points: List[CrashPoint] = field(default_factory=list)

    @property
    def n_points(self) -> int:
        return len(self.points)

    @property
    def n_recovered(self) -> int:
        return sum(1 for p in self.points if p.recovered)

    @property
    def all_recovered(self) -> bool:
        return self.n_recovered == self.n_points

    @property
    def total_fixes(self) -> int:
        return sum(p.fixes for p in self.points)

    def failures(self) -> List[CrashPoint]:
        return [p for p in self.points if not p.recovered]


def _content(seed: int, index: int, version: int) -> bytes:
    """Deterministic file body, unique per (file, version)."""
    rng = random.Random("faultsim:%d:%d:%d" % (seed, index, version))
    size = rng.choice(_FILE_SIZES)
    stamp = b"f%06d v%04d " % (index, version)
    block = bytes(rng.randrange(256) for _ in range(64))
    body = stamp + block * (size // len(block) + 1)
    return body[:size]


def _mkfs(label: str, policy: MetadataPolicy, device) -> object:
    fmt = format_for(label)
    # The static inode table is sized to the small groups.
    table = {"inodes_per_cg": 256} if fmt is FFS else {}
    return fmt.mkfs(device, fmt.Config(
        blocks_per_cg=512, policy=policy, cache_blocks=512, **table))


def workload_script(seed: int, n_files: int, sync_every: int, live
                    ) -> Iterator[Tuple[str, str, bytes]]:
    """The sweep and soak workload, as ``(op, path, body)`` steps.

    Creates ``n_files`` small files, overwriting every 7th earlier file
    and deleting every 11th as it goes — so crash windows cover create,
    overwrite and unlink paths — with a ``sync`` step every
    ``sync_every`` files.  Contents are unique per (file, version), so
    two checkpoints never agree on a path by accident.  ``live`` is the
    consumer's own record of the paths that currently exist: it decides
    which overwrites and deletes are still possible, and only the
    consumer knows which of its operations succeeded.
    """
    versions: Dict[int, int] = {}

    def path_of(index: int) -> str:
        return "/data/f%04d" % index

    for i in range(n_files):
        yield "write", path_of(i), _content(seed, i, 0)
        versions[i] = 0
        if i >= 3 and i % 7 == 0:
            target = i // 2
            if path_of(target) in live:
                versions[target] += 1
                yield ("write", path_of(target),
                       _content(seed, target, versions[target]))
        if i >= 3 and i % 11 == 0:
            target = i // 3
            if path_of(target) in live:
                yield "unlink", path_of(target), b""
        if (i + 1) % sync_every == 0:
            yield "sync", "", b""


def run_journaled_workload(
    label: str,
    policy: MetadataPolicy = MetadataPolicy.SYNC_METADATA,
    n_files: int = 50,
    seed: int = 1997,
    resilient: bool = False,
) -> Tuple[FaultyBlockDevice, List[Checkpoint]]:
    """Run the sweep workload once; returns the journaling device and
    the checkpoint list (first checkpoint = empty tree after mkfs).

    The workload is :func:`workload_script`; a checkpoint is taken at
    each of its syncs and after the closing one.

    With ``resilient=True`` the file system runs over a
    :class:`ResilientBlockDevice`, and a deterministic sprinkle of
    bad-write locations forces remaps mid-workload — so the journal
    contains spare-block and remap-header writes, and the sweep's crash
    windows land *between* them (the remap-write boundaries repair must
    survive).
    """
    if label not in FORMAT_LABELS:
        raise ReproError("unknown file system %r; known: %s"
                         % (label, ", ".join(FORMAT_LABELS)))
    schedule = FaultSchedule(seed=seed)
    device = FaultyBlockDevice(BlockDevice(FAULTSIM_PROFILE), schedule,
                               record_journal=True)
    target = device
    if resilient:
        target = ResilientBlockDevice.format(device, n_spares=8)
        # Break a deterministic sample of usable locations so the
        # workload's own writes trigger remaps (and journal them).
        rng = random.Random("faultsim-resilient:%d" % seed)
        schedule.break_writes(rng.sample(range(1, target.total_blocks), 48))
    fs = _mkfs(label, policy, target)
    fs.mkdir("/data")
    fs.sync()
    assert device.journal is not None
    live: Dict[str, bytes] = {}
    checkpoints = [Checkpoint(len(device.journal), {})]
    for op, path, body in workload_script(seed, n_files, SYNC_EVERY, live):
        if op == "write":
            fs.write_file(path, body)
            live[path] = body
        elif op == "unlink":
            fs.unlink(path)
            del live[path]
        else:
            fs.sync()
            checkpoints.append(Checkpoint(len(device.journal), dict(live)))
    fs.sync()
    checkpoints.append(Checkpoint(len(device.journal), dict(live)))
    return device, checkpoints


def _verify_point(device: FaultyBlockDevice, checkpoints: List[Checkpoint],
                  k: int) -> CrashPoint:
    """Repair, re-check, remount and read back one crash image."""
    image = device.image_at(k)
    first = check_image(image, repair=True)
    second = check_image(image)
    point = CrashPoint(
        k=k,
        first_errors=len(first.errors),
        first_repairs=len(first.repairs),
        fixes=len(first.fixed),
        pristine_after=second.pristine,
        remounted=False,
        files_checked=0,
        intact=False,
    )
    if not second.pristine:
        point.detail = ("image not pristine after repair: %s"
                        % "; ".join((second.errors + second.repairs)[:3]))
        return point

    try:
        fs = mount_image(image)
    except ReproError as exc:
        point.detail = "remount failed: %s" % exc
        return point
    point.remounted = True

    # The newest checkpoint fully on disk before the cut is the
    # durability contract; a file is *stable* if no later operation
    # touched it (its content matches the final checkpoint, and
    # versioned contents never repeat).  Stable synced files must
    # survive byte-exact.
    durable = checkpoints[0]
    for ck in checkpoints:
        if ck.journal_len <= k:
            durable = ck
    final = checkpoints[-1].files
    point.intact = True
    for path, body in sorted(durable.files.items()):
        if final.get(path) != body:
            continue  # modified or deleted after this sync; not owed
        point.files_checked += 1
        try:
            got = fs.read_file(path)
        except ReproError as exc:
            point.intact = False
            point.detail = "%s unreadable after recovery: %s" % (path, exc)
            break
        if got != body:
            point.intact = False
            point.detail = ("%s lost data: %d bytes expected, got %d (%s)"
                            % (path, len(body), len(got),
                               "content differs" if len(got) == len(body)
                               else "length differs"))
            break
    return point


def crash_point_sweep(
    label: str = "cffs",
    policy: MetadataPolicy = MetadataPolicy.SYNC_METADATA,
    n_files: int = 50,
    seed: int = 1997,
    stride: int = 1,
    resilient: bool = False,
) -> SweepResult:
    """Power-cut after every ``stride``-th media write; repair and verify.

    ``stride=1`` is the exhaustive sweep (one crash image per media
    block write the workload issued); larger strides subsample evenly
    but always include the final write.  Sweeping starts after mkfs's
    own writes — cutting mid-mkfs just leaves no file system, which is
    not a recovery claim worth testing.
    """
    if stride < 1:
        raise ReproError("stride must be >= 1, got %d" % stride)
    device, checkpoints = run_journaled_workload(
        label, policy, n_files=n_files, seed=seed, resilient=resilient)
    assert device.journal is not None
    total = len(device.journal)
    base = checkpoints[0].journal_len
    result = SweepResult(
        label=label, policy=policy.value, n_files=n_files, seed=seed,
        journal_base=base, total_writes=total, stride=stride,
        resilient=resilient)
    ks = list(range(base, total + 1, stride))
    if ks[-1] != total:
        ks.append(total)
    for k in ks:
        result.points.append(
            _verify_point(device, checkpoints, k))
    return result


def render_sweep(results: List[SweepResult]) -> str:
    """Human-readable sweep summary (the ``repro faultsim`` output)."""
    lines: List[str] = []
    for r in results:
        lines.append(
            "%-6s policy=%-8s  %d files, %d media writes, %d crash points "
            "(stride %d)%s" % (r.label, r.policy, r.n_files,
                               r.total_writes - r.journal_base,
                               r.n_points, r.stride,
                               "  [resilient]" if r.resilient else ""))
        lines.append(
            "       recovered %d/%d   fsck fixes applied: %d   %s"
            % (r.n_recovered, r.n_points, r.total_fixes,
               "OK" if r.all_recovered else "FAILURES"))
        for p in r.failures()[:5]:
            lines.append("       FAIL k=%d: %s" % (p.k, p.detail))
        extra = len(r.failures()) - 5
        if extra > 0:
            lines.append("       ... and %d more failures" % extra)
    return "\n".join(lines)


__all__ = [
    "FAULTSIM_PROFILE",
    "Checkpoint",
    "CrashPoint",
    "SweepResult",
    "crash_point_sweep",
    "render_sweep",
    "run_journaled_workload",
]
