"""Every buffer-cache call and every outcome, pinned per stack.

A seeded script of namespace and data operations runs through each of
the five on-disk configurations (four C-FFS grid points and the FFS
baseline) under each metadata policy, over a 16-block cache so that
evictions interleave with the operations.  The test records

- every :class:`BufferCache` call as (method, block, logical id), in
  call order, mkfs included;
- each operation's outcome: its return value, or its exception type and
  message;
- the simulated clock after each operation (disk time and CPU charges);

and compares one digest per stack with ``tests/golden/cache_traffic.json``.
A change to how the file systems find, add or remove a name must leave
all of it unchanged.  One more run per configuration under a tracer pins
the span export.  Regenerate with::

    REPRO_REGEN_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_cache_traffic.py

only from code whose behaviour is the accepted baseline.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random

import pytest

from repro import obs
from repro.blockdev.device import BLOCK_SIZE
from repro.cache.buffercache import BufferCache
from repro.cache.policy import MetadataPolicy
from repro.errors import ReproError
from tests.conftest import make_cffs, make_ffs

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "cache_traffic.json")
REGEN = os.environ.get("REPRO_REGEN_GOLDENS") == "1"

CACHE_BLOCKS = 16

STACKS = {
    "conventional": lambda policy: make_cffs(
        policy, embedded=False, grouping=False, cache_blocks=CACHE_BLOCKS),
    "ffs+embed": lambda policy: make_cffs(
        policy, embedded=True, grouping=False, cache_blocks=CACHE_BLOCKS),
    "ffs+group": lambda policy: make_cffs(
        policy, embedded=False, grouping=True, cache_blocks=CACHE_BLOCKS),
    "cffs": lambda policy: make_cffs(
        policy, embedded=True, grouping=True, cache_blocks=CACHE_BLOCKS),
    "FFS": lambda policy: make_ffs(policy, cache_blocks=CACHE_BLOCKS),
}

POLICIES = {
    "sync": MetadataPolicy.SYNC_METADATA,
    "softdep": MetadataPolicy.DELAYED_METADATA,
    "journal": MetadataPolicy.JOURNAL_METADATA,
}

#: The BufferCache entry points, each recorded as (method, block,
#: logical id): the position of the block argument (None: the method
#: takes none) and of the logical id (None: it takes none).  The block
#: argument of ``flush_blocks`` is recorded as a list.
_RECORDED = {
    "get": (0, 1), "peek": (0, None), "get_logical": (None, 0),
    "install": (0, 2), "create": (0, 1), "mark_dirty": (0, None),
    "write_sync": (0, None), "flush": (None, None),
    "flush_blocks": (0, None), "sync": (None, None),
    "invalidate_all": (None, None), "drop_logical": (None, 0),
    "forget": (0, None),
}


@contextlib.contextmanager
def recording(calls):
    """Append every BufferCache call made inside the block to ``calls``."""
    originals = {name: getattr(BufferCache, name) for name in _RECORDED}

    def wrap(name, fn):
        block_at, logical_at = _RECORDED[name]

        def wrapper(self, *args, **kwargs):
            if name == "flush_blocks":
                args = (list(args[0]),)
            block = args[block_at] if block_at is not None else None
            logical = kwargs.get("logical")
            if logical_at is not None and len(args) > logical_at:
                logical = args[logical_at]
            calls.append((name, block, logical))
            return fn(self, *args, **kwargs)
        return wrapper

    try:
        for name, fn in originals.items():
            setattr(BufferCache, name, wrap(name, fn))
        yield calls
    finally:
        for name, fn in originals.items():
            setattr(BufferCache, name, fn)


def _name(rng: random.Random, prefix: str, lo: int = 4, hi: int = 60) -> str:
    # Long enough that a directory spans several sectors and blocks;
    # some non-ASCII; every name within 255 UTF-8 bytes.
    name = prefix + "".join(rng.choice("abcdefghé€")
                            for _ in range(rng.randrange(lo, hi)))
    assert len(name.encode("utf-8")) <= 255
    return name


def script(seed: int):
    """``(label, fn(fs))`` operations: a fixed prologue that reaches
    every path the resolve code takes, then a seeded churn."""
    rng = random.Random(seed)
    ops = []

    def op(label, fn):
        ops.append((label, fn))

    def write(path, data):
        def run(fs):
            fd = fs.open(path, create=True)
            try:
                return fs.pwrite(fd, 0, data)
            finally:
                fs.close(fd)
        return run

    def append(path, data):
        def run(fs):
            fd = fs.open(path)
            try:
                return fs.pwrite(fd, fs.stat(path).size, data)
            finally:
                fs.close(fd)
        return run

    # Create in new directories and in existing ones.
    op("mkdir /a", lambda fs: fs.mkdir("/a"))
    op("mkdir /a/b", lambda fs: fs.mkdir("/a/b"))
    op("mkdir /a/b/c", lambda fs: fs.mkdir("/a/b/c"))
    op("mkdir /e", lambda fs: fs.mkdir("/e"))
    op("mkdir /a again", lambda fs: fs.mkdir("/a"))
    names = []
    for i in range(40):
        parent = ("/a", "/a/b", "/a/b/c", "/e")[i % 4]
        path = "%s/%s" % (parent, _name(rng, "f%02d" % i))
        names.append(path)
        size = rng.choice((0, 100, 3000, BLOCK_SIZE, 2 * BLOCK_SIZE + 17))
        op("write_file " + path,
           lambda fs, p=path, n=size: fs.write_file(p, b"w" * n))
    op("create existing", lambda fs: fs.create(names[0]))
    # Open of a missing file, with and without create.
    op("open missing", lambda fs: fs.open("/a/b/missing"))
    op("open missing create", write("/a/b/opened", b"o" * 700))
    op("open missing dir", lambda fs: fs.open("/nodir/x", create=True))
    # Read, overwrite and append.
    for path in names[:8]:
        op("read_file " + path, lambda fs, p=path: fs.read_file(p))
        op("overwrite " + path, write(path, b"O" * 1500))
        op("append " + path, append(path, b"A" * 2500))
        op("pread " + path, lambda fs, p=path: fs.read_file(p)[1000:1100])
    op("truncate", lambda fs: fs.truncate(names[1], 10))
    op("open a directory", lambda fs: fs.open("/a/b"))
    # Stat, a path through a file, '.', '..' and relative paths.
    op("stat root", lambda fs: fs.stat("/"))
    op("stat dir", lambda fs: fs.stat("/a/b/c"))
    op("stat file", lambda fs: fs.stat(names[2]))
    op("stat missing", lambda fs: fs.stat("/a/b/c/nothing"))
    op("through a file", lambda fs: fs.stat(names[3] + "/child"))
    op("create through a file", lambda fs: fs.create(names[3] + "/child"))
    op("dot", lambda fs: fs.stat("/a/./b"))
    op("dotdot", lambda fs: fs.stat("/a/b/../b"))
    op("relative", lambda fs: fs.stat("a/b"))
    op("slashes", lambda fs: fs.stat("//a///b/"))
    op("readdir", lambda fs: sorted(fs.readdir("/a")))
    op("readdir a file", lambda fs: fs.readdir(names[0]))
    op("exists", lambda fs: fs.exists(names[5]))
    # Unlink, and the wrong kind of removal either way.
    op("unlink", lambda fs: fs.unlink(names[4]))
    op("unlink again", lambda fs: fs.unlink(names[4]))
    op("unlink a directory", lambda fs: fs.unlink("/a/b/c"))
    op("rmdir a file", lambda fs: fs.rmdir(names[6]))
    # rmdir of an empty and of a non-empty directory.
    op("mkdir empty", lambda fs: fs.mkdir("/a/empty"))
    op("rmdir empty", lambda fs: fs.rmdir("/a/empty"))
    op("rmdir non-empty", lambda fs: fs.rmdir("/a/b"))
    op("rmdir missing", lambda fs: fs.rmdir("/a/empty"))
    # Hard links (an embedded inode moves out on the second name).
    op("link", lambda fs: fs.link(names[7], "/e/hard"))
    op("link onto existing", lambda fs: fs.link(names[7], names[8]))
    op("link a directory", lambda fs: fs.link("/a/b", "/e/dirlink"))
    # Rename within a directory, across directories, onto an existing
    # name, and the refusals.
    op("rename within", lambda fs: fs.rename(names[8], "/a/renamed"))
    op("rename across", lambda fs: fs.rename(names[9], "/e/moved"))
    op("rename onto existing", lambda fs: fs.rename(names[10], names[14]))
    op("rename onto itself", lambda fs: fs.rename(names[12], names[12]))
    op("rename a hard link onto its twin",
       lambda fs: fs.rename("/e/hard", names[7]))
    op("rename dir across", lambda fs: fs.rename("/a/b/c", "/e/c"))
    op("rename dir onto file", lambda fs: fs.rename("/e/c", names[11]))
    op("rename into own subtree", lambda fs: fs.rename("/a", "/a/b/x"))
    op("rename missing", lambda fs: fs.rename("/a/nothing", "/a/else"))
    op("fsync", lambda fs: _fsync(fs, names[13]))
    op("evict", lambda fs: fs.evict_file_data(names[15]))
    # A directory of many blocks, so that a cold lookup stops part-way.
    op("mkdir /w", lambda fs: fs.mkdir("/w"))
    wide = ["/w/" + _name(rng, "w%03d" % i, 90, 110) for i in range(120)]
    for path in wide:
        op("create " + path, lambda fs, p=path: fs.create(p))
    op("mkdir /e/empty", lambda fs: fs.mkdir("/e/empty"))
    # Lookups on a cold index.
    op("drop_caches", lambda fs: fs.drop_caches())
    for path in names[16:24] + ["/e/c/" + names[18].rsplit("/", 1)[1]]:
        op("cold stat " + path, lambda fs, p=path: fs.stat(p))
    op("cold missing", lambda fs: fs.stat("/e/absent"))
    for path in wide[:3] + wide[60:62]:
        op("cold stat " + path, lambda fs, p=path: fs.stat(p))
    op("drop_caches again", lambda fs: fs.drop_caches())
    op("cold unlink", lambda fs: fs.unlink(names[-1]))
    op("cold rename", lambda fs: fs.rename(names[-3], "/a/cold"))
    op("cold rmdir non-empty", lambda fs: fs.rmdir("/e/c"))
    op("cold wide unlink", lambda fs: fs.unlink(wide[5]))
    op("cold wide rename", lambda fs: fs.rename(wide[40], "/w/renamed"))
    op("drop_caches for create", lambda fs: fs.drop_caches())
    op("cold open create", write(wide[5], b"again"))
    op("cold rename onto existing", lambda fs: fs.rename(wide[7], wide[90]))
    op("drop_caches for open", lambda fs: fs.drop_caches())
    op("cold open existing", write(wide[100], b"x" * 5000))
    op("cold rmdir empty", lambda fs: fs.rmdir("/e/empty"))

    # Seeded churn over what is left.  It stops short of step 294, where
    # conventional/softdep hits the defect ROADMAP lists under *Known
    # defects* (a directory block edited but not yet dirty is evicted by
    # the directory's own inode store, and ``mark_dirty`` then raises
    # KeyError).
    live = [p for p in names[16:-3] if "/c/" not in p] + wide[10:30]
    dirs = ["/a", "/a/b", "/e", "/w"]
    for step in range(280):
        roll = rng.random()
        if roll < 0.3 or not live:
            path = "%s/%s" % (rng.choice(dirs), _name(rng, "g%03d" % step))
            live.append(path)
            op("create " + path, write(path, b"c" * rng.randrange(1, 9000)))
        elif roll < 0.5:
            path = live.pop(rng.randrange(len(live)))
            op("unlink " + path, lambda fs, p=path: fs.unlink(p))
        elif roll < 0.6:
            old = live.pop(rng.randrange(len(live)))
            new = "%s/%s" % (rng.choice(dirs), _name(rng, "r%03d" % step))
            live.append(new)
            op("rename %s %s" % (old, new),
               lambda fs, o=old, n=new: fs.rename(o, n))
        elif roll < 0.75:
            path = rng.choice(live)
            op("read " + path, lambda fs, p=path: fs.read_file(p))
        elif roll < 0.85:
            path = rng.choice(live)
            op("append " + path, append(path, b"+" * rng.randrange(1, 5000)))
        elif roll < 0.9:
            op("missing", lambda fs, d=rng.choice(dirs): fs.stat(d + "/zz"))
        elif roll < 0.95:
            d = "%s/%s" % (rng.choice(dirs), _name(rng, "d%03d" % step))
            dirs.append(d)
            op("mkdir " + d, lambda fs, p=d: fs.mkdir(p))
        else:
            op("drop_caches", lambda fs: fs.drop_caches())
    op("sync", lambda fs: fs.sync())
    return ops


def _fsync(fs, path):
    fd = fs.open(path)
    try:
        return fs.fsync(fd)
    finally:
        fs.close(fd)


def _outcome(fn, fs):
    try:
        return ["ok", repr(fn(fs))]
    except ReproError as exc:
        return [type(exc).__name__, str(exc)]


def _sha(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()


def run_stack(stack: str, policy: str) -> dict:
    calls = []
    outcomes = []
    with recording(calls):
        fs = STACKS[stack](POLICIES[policy])
        clock = fs.cache.device.clock
        for label, fn in script(1997):
            outcomes.append([label, _outcome(fn, fs), repr(clock.now)])
    image = fs.cache.device.content_digest()
    return {"cache_calls": len(calls),
            "digest": _sha(json.dumps([calls, outcomes, image]))}


def traced_spans(stack: str) -> str:
    fs = STACKS[stack](MetadataPolicy.SYNC_METADATA)
    tracer = obs.Tracer(clock=fs.cache.device.clock)
    obs.install(tracer)
    try:
        for _label, fn in script(2026):
            _outcome(fn, fs)
    finally:
        obs.uninstall()
    return _sha(obs.export_jsonl(tracer))


def capture() -> dict:
    out = {"%s/%s" % (stack, policy): run_stack(stack, policy)
           for stack in STACKS for policy in POLICIES}
    out.update(("%s/spans" % stack, traced_spans(stack)) for stack in STACKS)
    return out


def _load() -> dict:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def test_regen_golden():
    """Regeneration entry point (no-op unless REPRO_REGEN_GOLDENS=1)."""
    if not REGEN:
        pytest.skip("set REPRO_REGEN_GOLDENS=1 to regenerate")
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(capture(), handle, indent=2, sort_keys=True)
        handle.write("\n")


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("stack", sorted(STACKS))
def test_cache_traffic_and_outcomes(stack, policy):
    if REGEN:
        pytest.skip("regenerating")
    assert run_stack(stack, policy) == _load()["%s/%s" % (stack, policy)]


@pytest.mark.parametrize("stack", sorted(STACKS))
def test_spans(stack):
    if REGEN:
        pytest.skip("regenerating")
    assert traced_spans(stack) == _load()["%s/spans" % stack]


def test_script_reaches_every_outcome():
    """The script is only an oracle if the paths it pins are taken."""
    calls = []
    fs = STACKS["cffs"](MetadataPolicy.SYNC_METADATA)
    with recording(calls):
        outcomes = [_outcome(fn, fs)[0] for _label, fn in script(1997)]
    assert {"ok", "FileNotFound", "FileExists", "NotADirectory",
            "IsADirectory", "DirectoryNotEmpty",
            "InvalidArgument"} <= set(outcomes)
    assert fs.cache.evictions > 100
    assert {name for name, _bno, _logical in calls} >= {
        "get", "peek", "install", "create", "mark_dirty", "write_sync",
        "flush_blocks", "sync", "invalidate_all", "drop_logical", "forget"}
