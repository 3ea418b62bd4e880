"""Whole-file calls pinned as a transcript, step by step, per stack.

``write_file`` and ``read_file`` carry most operations of the benchmark
workloads (all of ``webserve-resilient``'s, half of ``postmark-journal``'s);
``stat``, ``exists`` and an explicit ``open`` / ``pread`` / ``close`` run
next to them.  A seeded script
(creates, rewrites longer and shorter, an empty rewrite over data, a
file that reaches an indirect block, the refusals: a missing name, a
directory, ``/``, a path through a file, and on the resilient stack a
block that fails its CRC) runs through FFS, C-FFS and the conventional
layout under synchronous and delayed metadata, and through C-FFS over
a :class:`ResilientBlockDevice`, each over a 16-block cache.

Recorded after every step: the result (a digest of the bytes read, the
value's ``repr``, or the exception class and text), the simulated clock
as ``float.hex``, the cache's hits, misses and evictions, and the
drive's requests and sectors.  One more traced pass per stack records
every span's layer, name, attributes, counters, parent and its start
and end as ``float.hex``.

``tests/golden/wholefile_transcript.json`` holds one digest per stack
and pass, the step / span count and a readable head.  A change to how
the whole-file helpers reach the file system must leave all of it
unchanged.  Regeneration: see ``tests/golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro import obs
from repro.blockdev.device import BLOCK_SIZE, BlockDevice
from repro.cache.policy import MetadataPolicy
from repro.core.filesystem import CFFS, CFFSConfig
from repro.errors import ReproError
from repro.ffs.layout import NDIRECT
from repro.resilience import ResilientBlockDevice
from tests import golden
from tests.conftest import TEST_PROFILE, make_cffs, make_ffs

CACHE_BLOCKS = 16
HEAD_STEPS = 4
SYNC = MetadataPolicy.SYNC_METADATA
DELAYED = MetadataPolicy.DELAYED_METADATA


def _resilient_cffs():
    device = ResilientBlockDevice.format(BlockDevice(TEST_PROFILE))
    return CFFS.mkfs(device, CFFSConfig(
        blocks_per_cg=512, cache_blocks=CACHE_BLOCKS, policy=SYNC))


STACKS = {
    "ffs/sync": lambda: make_ffs(SYNC, cache_blocks=CACHE_BLOCKS),
    "ffs/delayed": lambda: make_ffs(DELAYED, cache_blocks=CACHE_BLOCKS),
    "cffs/sync": lambda: make_cffs(SYNC, cache_blocks=CACHE_BLOCKS),
    "cffs/delayed": lambda: make_cffs(DELAYED, cache_blocks=CACHE_BLOCKS),
    "conventional/sync": lambda: make_cffs(
        SYNC, embedded=False, grouping=False, cache_blocks=CACHE_BLOCKS),
    "conventional/delayed": lambda: make_cffs(
        DELAYED, embedded=False, grouping=False, cache_blocks=CACHE_BLOCKS),
    "cffs/resilient": _resilient_cffs,
}


def _open_pread_close(path, offset, size):
    def run(fs):
        fd = fs.open(path)
        try:
            return fs.pread(fd, offset, size)
        finally:
            fs.close(fd)
    return run


def _poke(path, descriptor):
    """Overwrite, behind the checksums, the first data block of
    ``path`` (or the block holding its group descriptor) after a
    ``drop_caches``, so the next read of it fails verification."""
    def run(fs):
        fs.drop_caches()
        bno = fs._resolve(path).direct[0]
        if descriptor:
            bno = fs.groups._desc_location(fs.groups.extent_of_block(bno))[0]
        fs.cache.device.poke_block(bno, b"\xa5" * BLOCK_SIZE)
        return bno
    return run


def script(seed: int, resilient: bool):
    """``(label, fn(fs))`` steps: a fixed prologue through every branch
    of the whole-file helpers, then a seeded churn."""
    rng = random.Random(seed)
    ops = []

    def op(label, fn):
        ops.append((label, fn))

    def write(path, n, fill=b"w"):
        op("write_file %s %d" % (path, n),
           lambda fs: fs.write_file(path, fill * n))

    def read(path):
        op("read_file " + path, lambda fs: fs.read_file(path))

    def stat(path):
        op("stat " + path, lambda fs: fs.stat(path))

    def exists(path):
        op("exists " + path, lambda fs: fs.exists(path))

    big = (NDIRECT + 3) * BLOCK_SIZE + 123
    op("mkdir /d", lambda fs: fs.mkdir("/d"))
    op("mkdir /d/sub", lambda fs: fs.mkdir("/d/sub"))
    # Creates of every shape, then rewrites longer, shorter and empty.
    for path, n in (("/d/a", 100), ("/d/b", 5000), ("/d/e", 0),
                    ("/d/sub/c", BLOCK_SIZE)):
        write(path, n)
    for path in ("/d/a", "/d/b", "/d/e", "/d/sub/c"):
        read(path)
    write("/d/a", 9000, b"L")
    read("/d/a")
    write("/d/b", 1000, b"S")
    read("/d/b")
    stat("/d/b")
    write("/d/a", 0)
    read("/d/a")
    stat("/d/a")
    write("/d/e", 3000, b"E")
    read("/d/e")
    # A file that reaches an indirect block, then loses it.
    write("/d/big", big, b"B")
    read("/d/big")
    stat("/d/big")
    write("/d/big", big + BLOCK_SIZE, b"G")
    read("/d/big")
    write("/d/big", 2000, b"s")
    read("/d/big")
    stat("/d/big")
    # exists: present, missing, the root, a directory, through a file.
    for path in ("/d/a", "/d/missing", "/", "/d", "/d/a/x", "/nodir/x"):
        exists(path)
    op("open/pread/close /d/b", _open_pread_close("/d/b", 10, 100))
    op("open/pread/close past EOF", _open_pread_close("/d/b", 5000, 10))
    # Refusals: a missing name, a directory, '/', through a file.
    for path in ("/d/missing", "/d", "/", "/d/b/x", "/nodir/x", "d/a"):
        read(path)
        write(path, 10)
        stat(path)
    op("open a directory", lambda fs: fs.open("/d/sub"))
    # Unlink, then every call on the gone name.
    op("unlink /d/a", lambda fs: fs.unlink("/d/a"))
    read("/d/a")
    exists("/d/a")
    op("unlink /d/a again", lambda fs: fs.unlink("/d/a"))
    write("/d/a", 700, b"R")
    read("/d/a")

    # Seeded churn over three directories; the cache turns over.
    live = ["/d/a", "/d/b", "/d/e", "/d/sub/c", "/d/big"]
    dirs = ["/d", "/d/sub", "/w"]
    op("mkdir /w", lambda fs: fs.mkdir("/w"))
    for step in range(160):
        roll = rng.random()
        if roll < 0.3 or not live:
            path = "%s/f%03d" % (rng.choice(dirs), step)
            live.append(path)
            write(path, rng.randrange(0, 3 * BLOCK_SIZE), b"c")
        elif roll < 0.45:
            write(rng.choice(live), rng.randrange(0, 3 * BLOCK_SIZE), b"o")
        elif roll < 0.75:
            read(rng.choice(live))
        elif roll < 0.8:
            exists(rng.choice(live) if rng.random() < 0.5
                   else "%s/none%03d" % (rng.choice(dirs), step))
        elif roll < 0.85:
            stat(rng.choice(live))
        elif roll < 0.95:
            path = live.pop(rng.randrange(len(live)))
            op("unlink " + path, lambda fs, p=path: fs.unlink(p))
        else:
            op("drop_caches", lambda fs: fs.drop_caches())
    # Cold calls after a cache drop.
    op("drop_caches", lambda fs: fs.drop_caches())
    for path in live[:4]:
        read(path)
    exists(live[4])
    write(live[5], 5000, b"C")
    op("sync", lambda fs: fs.sync())

    if resilient:
        # A data block and a group descriptor that fail their CRC.
        write("/d/crc", 3000, b"X")
        op("poke data /d/crc", _poke("/d/crc", descriptor=False))
        read("/d/crc")
        stat("/d/crc")
        exists("/d/crc")
        write("/d/crc", 100, b"Y")
        write("/d/sub/grp", 5000, b"Z")
        op("poke descriptor /d/sub/grp", _poke("/d/sub/grp", descriptor=True))
        read("/d/sub/grp")
        stat("/d/sub/grp")
        exists("/d/sub/grp")
        write("/d/sub/grp", 100, b"V")
    return ops


def _result(value) -> str:
    if isinstance(value, bytes):
        return "bytes %d %s" % (
            len(value), hashlib.sha256(value).hexdigest()[:16])
    return repr(value)


def _outcome(fn, fs):
    try:
        return ["ok", _result(fn(fs))]
    except ReproError as exc:
        return [type(exc).__name__, str(exc)]


def _sha(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


def steps(stack: str) -> list:
    fs = STACKS[stack]()
    cache, disk = fs.cache, fs.cache.device.disk
    clock = fs.cache.device.clock
    out = []
    for label, fn in script(1997, stack.endswith("resilient")):
        outcome = _outcome(fn, fs)
        stats = disk.stats
        out.append([label, outcome, clock.now.hex(),
                    cache.hits, cache.misses, cache.evictions,
                    stats.total_requests,
                    stats.sectors_read + stats.sectors_written])
    return out


def spans(stack: str) -> list:
    fs = STACKS[stack]()
    tracer = obs.Tracer(clock=fs.cache.device.clock)
    obs.install(tracer)
    try:
        for _label, fn in script(2026, stack.endswith("resilient")):
            _outcome(fn, fs)
    finally:
        obs.uninstall()
    return [[sp.layer, sp.op, json.dumps(sp.attrs, sort_keys=True, default=repr),
             sorted(sp.counters.items()), sp.parent_id,
             sp.start.hex(), sp.end.hex()] for sp in tracer.spans]


def transcript(stack: str) -> dict:
    rows = steps(stack)
    traced = spans(stack)
    return {
        "digest": _sha(rows),
        "steps": len(rows),
        "head": [json.dumps(row) for row in rows[:HEAD_STEPS]],
        "last": json.dumps(rows[-1]),
        "span_digest": _sha(traced),
        "spans": len(traced),
    }


@pytest.mark.parametrize("stack", sorted(STACKS))
def test_wholefile_transcript(stack):
    golden.pin("wholefile_transcript.json", {stack: transcript(stack)})


def test_script_reaches_every_outcome():
    """The transcript is only an oracle if the paths it pins are taken."""
    fs = STACKS["cffs/resilient"]()
    outcomes = [_outcome(fn, fs) for _label, fn in script(1997, True)]
    kinds = {kind for kind, _text in outcomes}
    assert {"ok", "FileNotFound", "IsADirectory", "NotADirectory",
            "InvalidArgument", "ChecksumError"} <= kinds
    assert fs.cache.evictions > 100
    assert ["ok", "True"] in outcomes and ["ok", "False"] in outcomes
