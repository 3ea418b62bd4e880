"""mkfs, and a short script after it, pinned as a transcript per stack.

mkfs formats every cylinder group through the buffer cache, so over a
small cache it evicts (and writes back) part of its own metadata before
it syncs.  What it leaves behind is the starting state of every
benchmark and experiment: the drive's request stream, the image, the
simulated clock and what the cache holds.  This test records, after
mkfs and again after a short seeded script,

- every drive request as (op, LBA, sectors), in issue order;
- the device store's digest and the simulated clock;
- the cache's LRU order, each buffer with its dirty flag and an image
  digest, and the dirty set;
- the cache's hit, miss and eviction counts;

for the four C-FFS grid points and FFS under each metadata policy over
caches of 16, 576 and 4096 blocks on the test drive, and for the
default-geometry C-FFS, conventional and FFS volumes on the paper's
ST31200 over caches of 8, 16, 576 and 4096 blocks.  Eight blocks is
fewer than one C-FFS group's ten metadata blocks, so there mkfs evicts
blocks of the very group it is placing.
``tests/golden/mkfs_transcript.json`` holds one digest per stack and a
short readable head (request counts, clocks, the first requests).  A
change to how mkfs hands its blocks to the cache must leave all of it
unchanged.  Regeneration: see ``tests/golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.blockdev.device import BLOCK_SIZE, BlockDevice
from repro.cache.policy import MetadataPolicy
from repro.core.filesystem import CFFS, CFFSConfig
from repro.disk.profiles import SEAGATE_ST31200
from repro.ffs.filesystem import FFS, FFSConfig
from tests import golden
from tests.conftest import make_device

#: How many of mkfs's requests the golden spells out.
HEAD_REQUESTS = 4

POLICIES = {
    "sync": MetadataPolicy.SYNC_METADATA,
    "softdep": MetadataPolicy.DELAYED_METADATA,
    "journal": MetadataPolicy.JOURNAL_METADATA,
}

#: (embedded inodes, explicit grouping) of each C-FFS grid point.
GRID = {
    "conventional": (False, False),
    "ffs+embed": (True, False),
    "ffs+group": (False, True),
    "cffs": (True, True),
}

CACHES = (16, 576, 4096)
DEFAULT_CACHES = (8, *CACHES)


def _stack(make_device, cls, config):
    return lambda: (make_device(), cls, config)


def _config(kind, **fields):
    if kind == "FFS":
        return FFSConfig(**fields)
    embedded, grouping = GRID[kind]
    return CFFSConfig(embedded_inodes=embedded, explicit_grouping=grouping,
                      **fields)


def _class(kind):
    return FFS if kind == "FFS" else CFFS


# The test helpers' geometry on the test drive...
STACKS = {
    "%s/%s/%d" % (kind, policy, cache): _stack(
        make_device, _class(kind), _config(
            kind, blocks_per_cg=512, policy=POLICIES[policy],
            cache_blocks=cache,
            **({"inodes_per_cg": 256} if kind == "FFS" else {})))
    for kind in (*GRID, "FFS") for policy in POLICIES for cache in CACHES
}
# ...and the configuration ``fresh()`` formats, on the paper's drive.
STACKS.update(
    ("default/%s/%d" % (kind, cache), _stack(
        lambda: BlockDevice(SEAGATE_ST31200), _class(kind),
        _config(kind, cache_blocks=cache)))
    for kind in ("cffs", "conventional", "FFS") for cache in DEFAULT_CACHES)


def _recorded(requests, fn, op):
    def record(lba, nsectors):
        requests.append((op, lba, nsectors))
        return fn(lba, nsectors)
    return record


def _mkfs_recorded(stack):
    """The stack's freshly made file system, and the list that every
    drive request from its mkfs on lands in."""
    device, cls, config = STACKS[stack]()
    requests = []
    disk = device.disk
    disk.read = _recorded(requests, disk.read, "read")
    disk.write = _recorded(requests, disk.write, "write")
    return cls.mkfs(device, config), requests


def _state(fs, requests):
    cache = fs.cache
    return {
        "requests": [list(r) for r in requests],
        "device": cache.device.content_digest(),
        "clock": repr(cache.device.clock.now),
        "lru": [[bno, buf.dirty, hashlib.sha256(buf.image).hexdigest()[:16]]
                for bno, buf in cache._phys.items()],
        "dirty": sorted(cache._dirty),
        "counts": [cache.hits, cache.misses, cache.evictions],
    }


def script(fs, seed):
    """A short seeded mix: directories, files of a few sizes, reads,
    overwrites, removals, a rename, a cold pass and a sync."""
    rng = random.Random(seed)
    dirs = ["/a", "/a/b", "/c"]
    for path in dirs:
        fs.mkdir(path)
    names = []
    for i in range(24):
        path = "%s/f%02d" % (rng.choice(dirs), i)
        size = rng.choice((1, 700, BLOCK_SIZE, 3 * BLOCK_SIZE + 5))
        fs.write_file(path, bytes([i]) * size)
        names.append(path)
    for path in names[::3]:
        fs.read_file(path)
    for path in names[1::5]:
        fs.write_file(path, b"o" * 1500)
    for path in names[2::6]:
        fs.unlink(path)
    fs.rename(names[3], "/c/renamed")
    fs.drop_caches()
    for path in names[5::6]:
        fs.read_file(path)
    fs.sync()


def transcript(stack: str) -> dict:
    fs, requests = _mkfs_recorded(stack)
    after_mkfs = _state(fs, requests)
    mkfs_requests = len(requests)
    del requests[:]
    script(fs, 1997)
    after_script = _state(fs, requests)
    head = ["%s %d+%d" % tuple(r) for r in after_mkfs["requests"][:HEAD_REQUESTS]]
    return {
        "digest": hashlib.sha256(json.dumps(
            [after_mkfs, after_script]).encode("utf-8")).hexdigest(),
        "requests": [mkfs_requests, len(after_script["requests"])],
        "clock": [after_mkfs["clock"], after_script["clock"]],
        "evictions": [after_mkfs["counts"][2], after_script["counts"][2]],
        "head": head,
    }


ALL_STACKS = sorted(STACKS)


@pytest.mark.parametrize("stack", ALL_STACKS)
def test_mkfs_transcript(stack):
    golden.pin("mkfs_transcript.json", {stack: transcript(stack)})


def test_transcript_covers_evicting_mkfs():
    """The small caches must evict during mkfs itself, or the golden
    would not pin which victims mkfs writes back, and when."""
    pinned = golden.data("mkfs_transcript.json")
    evicting = [stack for stack in ALL_STACKS
                 if stack.endswith(("/8", "/16"))
                 and not stack.startswith("FFS/")]
    evicting += ["default/cffs/576", "default/conventional/576"]
    for stack in evicting:
        assert pinned[stack]["evictions"][0] > 0, stack
