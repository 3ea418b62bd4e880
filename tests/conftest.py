"""Shared fixtures: small simulated disks and file system factories.

Tests use a deliberately small drive (≈13 MB) and small cylinder
groups so mkfs and workloads run fast; the benchmark suite uses the
full ST31200 profile.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.blockdev.device import BlockDevice
from repro.cache.policy import MetadataPolicy
from repro.cluster import Cluster
from repro.core.filesystem import CFFS, CFFSConfig
from repro.core.layout import GDESC_SIZE, pack_gdesc
from repro.disk.profiles import DriveProfile
from repro.faults.proxy import FaultyBlockDevice
from repro.faults.schedule import HARD, TORN, TRANSIENT, FaultDecision, FaultSchedule
from repro.ffs.filesystem import FFS, FFSConfig
from repro.fsck import check_image, mount_image
from repro.lint import lint_modules, load_source

TEST_PROFILE = DriveProfile(
    name="TestDrive 13MB",
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

TEST_PROFILE_PLAIN = replace(
    TEST_PROFILE, name="TestDrive plain", write_cache=False, cache_segments=0,
    readahead_sectors=0)


class PinnedFaults(FaultSchedule):
    """A fault schedule that also pins faults to request indices: the
    ``index``-th read or write fails hard, or transiently ``failures``
    times, or (a write) lands only ``landed_blocks`` blocks.  A pinned
    fault wins over the seeded rates."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pinned = {}

    def fail_read(self, index, transient=False, failures=1):
        self.pinned[("read", index)] = FaultDecision(
            TRANSIENT if transient else HARD, failures=failures)
        return self

    def fail_write(self, index, transient=False, failures=1):
        self.pinned[("write", index)] = FaultDecision(
            TRANSIENT if transient else HARD, failures=failures)
        return self

    def tear_write(self, index, landed_blocks):
        self.pinned[("write", index)] = FaultDecision(
            TORN, torn_blocks=landed_blocks)
        return self

    def decide(self, op, index):
        pinned = self.pinned.get((op, index))
        return pinned if pinned is not None else super().decide(op, index)


def write_desc(fs, ext, desc):
    """Store a whole group descriptor of a C-FFS volume through its
    cache (the tests that damage descriptors use it)."""
    bno, off = fs.groups._desc_location(ext)
    fs.cache.get(bno).data[off:off + GDESC_SIZE] = pack_gdesc(
        desc["state"], desc["valid_mask"], desc["owner"], desc["slots"])
    fs.cache.mark_dirty(bno)


def queue_depth(queue):
    """Requests waiting in a disk queue (the one in service excluded)."""
    return len(queue._pending)


def free_blocks(alloc):
    """Free blocks an allocator counts over all its groups."""
    return sum(alloc.group(cgi).free_blocks for cgi in range(alloc.n_cgs))


def dirty_count(cache):
    """Blocks a buffer cache holds dirty."""
    return len(cache._dirty)


def lint_sources(sources, rule_ids=None):
    """Lint in-memory sources keyed by pseudo-path
    (``src/repro/ffs/filesystem.py``); module names derive from the keys
    exactly as ``repro lint`` derives them from files."""
    return lint_modules([load_source(text, path)
                         for path, text in sorted(sources.items())], rule_ids)


def sharded_pair():
    """Two CFFS shards on journaling fault proxies, under one cluster;
    returns the cluster and the two proxies."""
    filesystems = []
    devices = []
    for _ in range(2):
        device = FaultyBlockDevice(BlockDevice(TEST_PROFILE),
                                   record_journal=True)
        config = CFFSConfig(blocks_per_cg=512, cache_blocks=512,
                            policy=MetadataPolicy.SYNC_METADATA)
        filesystems.append(CFFS.mkfs(device, config))
        devices.append(device)
    return Cluster(filesystems=filesystems, router="util"), devices


def crash_sweep(devices, action):
    """Run ``action``, recording the global order of the media writes
    it makes on ``devices`` (journaling fault proxies, one per shard).

    Returns that order (the shard index of each write) and an iterator
    of ``(k, shards)`` for every prefix length ``k``: the shards as a
    power cut after the k-th write leaves them, each image repaired,
    re-checked (asserted pristine) and mounted."""
    base = [len(dev.journal) for dev in devices]
    order = []
    for sid, dev in enumerate(devices):
        dev.on_media_write = lambda bno, data, sid=sid: order.append(sid)
    action()
    for dev in devices:
        dev.on_media_write = None
    assert order, "the action wrote nothing"

    def points():
        for k in range(len(order) + 1):
            shards = []
            for sid, dev in enumerate(devices):
                image = dev.image_at(base[sid] + order[:k].count(sid))
                check_image(image, repair=True)
                report = check_image(image)
                assert report.pristine, (
                    "crash point %d/%d: shard %d unrepairable: %s"
                    % (k, len(order), sid, report.render()))
                shards.append(mount_image(image))
            yield k, shards

    return order, points()


def make_device(profile: DriveProfile = TEST_PROFILE) -> BlockDevice:
    return BlockDevice(profile)


def make_ffs(policy: MetadataPolicy = MetadataPolicy.SYNC_METADATA,
             cache_blocks: int = 512, **overrides) -> FFS:
    config = FFSConfig(
        blocks_per_cg=512, inodes_per_cg=256, policy=policy,
        cache_blocks=cache_blocks, **overrides,
    )
    return FFS.mkfs(make_device(), config)


def make_cffs(
    policy: MetadataPolicy = MetadataPolicy.SYNC_METADATA,
    embedded: bool = True,
    grouping: bool = True,
    cache_blocks: int = 512,
    **overrides,
) -> CFFS:
    config = CFFSConfig(
        blocks_per_cg=512,
        embedded_inodes=embedded,
        explicit_grouping=grouping,
        policy=policy,
        cache_blocks=cache_blocks,
        **overrides,
    )
    return CFFS.mkfs(make_device(), config)


def assert_dir_index_matches_blocks(fs) -> int:
    """``DirIndex.free`` is kept from what the directory edits return,
    never from a rescan: recompute it from the cached image of every
    scanned directory block and require equality.  Reads the cache's
    map directly so the check moves neither the LRU order nor a
    counter; an evicted block was checked while it was cached.  Returns
    the number of slots compared."""
    compared = 0
    for fid, index in fs._dir_index.items():
        for blk in range(index.scanned_blocks):
            buf = fs.cache._logical.get((fid, blk))
            if buf is None:
                continue
            for slot, free in fs.dirfmt.free_slots(buf.image, blk):
                assert index.free[slot] == free, (
                    "directory %d slot %r: index says %d free, block says %d"
                    % (fid, slot, index.free[slot], free))
                compared += 1
    return compared


@pytest.fixture
def device() -> BlockDevice:
    return make_device()


@pytest.fixture
def ffs() -> FFS:
    return make_ffs()


@pytest.fixture
def cffs() -> CFFS:
    return make_cffs()


@pytest.fixture(params=["ffs", "cffs", "cffs-conventional"])
def anyfs(request):
    """Every file system implementation, for shared-behaviour tests."""
    if request.param == "ffs":
        return make_ffs()
    if request.param == "cffs":
        return make_cffs()
    return make_cffs(embedded=False, grouping=False)
