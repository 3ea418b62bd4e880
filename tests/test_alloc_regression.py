"""Allocation-regression tests for the production-shaped hot paths.

The perf overhaul's allocation claims, pinned with tracemalloc: with
no tracer installed (the NULL_SPAN disabled-observability path) the
cache hit loop and the vfs read path retain *no objects per block* —
net retained allocations inside ``src/repro`` stay under one small
fixed budget no matter how many blocks the loop touches.  A regression
here means some layer started keeping per-op state (or started taking
the kwargs-building observability path with observability off).

tracemalloc tracks live objects, so transient per-call garbage (the
returned read bytes, unpacked tuples) does not count — exactly the
contract: steady-state loops must not *accumulate*.

The last group pins, in bytes, that a block version is one object:
what the cache holds *is* what the device stores and what a fault
recorder keeps, until somebody edits it.
"""

from __future__ import annotations

import gc
import os
import random
import tracemalloc

import pytest

from repro import obs
from repro.blockdev.device import BLOCK_SIZE, BlockDevice
from repro.cache.buffercache import BufferCache
from repro.core.filesystem import CFFS, CFFSConfig
from repro.core.layout import EXT_GROUPED
from repro.disk.drive import SimulatedDisk
from repro.disk.profiles import HP_C3653, SEAGATE_ST31200
from repro.ffs.filesystem import FFS, FFSConfig
from tests.conftest import make_cffs, make_device, make_ffs, read_desc

#: Net retained allocations allowed inside src/repro for a whole
#: measured loop (thousands of block touches).  Small and fixed: one
#: retained object per block would exceed it 100x over.
BUDGET_OBJECTS = 32

_REPRO_ONLY = [
    tracemalloc.Filter(True, "*" + os.sep + "repro" + os.sep + "*"),
]

#: The buffer cache fills to its capacity and stops: its buffers are
#: bounded by configuration, not by the operation count.
_OUTSIDE_CACHE = _REPRO_ONLY + [
    tracemalloc.Filter(
        False, "*" + os.sep + "repro" + os.sep + "cache" + os.sep + "*"),
]


def _retained_in_repro(fn, filters=_REPRO_ONLY) -> int:
    """Net live-object growth attributed to repro source files.

    The warm-up run (lazy tables, struct caches, interned state) is
    traced too: an object it made and the measured run replaces — a
    rewritten block of the device's store, a re-parsed directory block
    — then counts as freed, not as one more.
    """
    tracemalloc.start()
    try:
        fn()
        gc.collect()
        before = tracemalloc.take_snapshot()
        fn()
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    before = before.filter_traces(filters)
    after = after.filter_traces(filters)
    return sum(s.count_diff for s in after.compare_to(before, "filename"))


def test_cache_hit_loop_allocates_nothing_per_block():
    """4096 cache hits retain ~nothing: the per-block path is clean."""
    assert not obs.enabled()
    cache = BufferCache(make_device(), capacity_blocks=64)
    bnos = list(range(1, 17))
    for bno in bnos:  # populate (misses, device reads)
        cache.get(bno)

    def hot_loop():
        get = cache.get
        for _ in range(256):
            for bno in bnos:  # 16 x 256 = 4096 hits
                get(bno)

    assert _retained_in_repro(hot_loop) <= BUDGET_OBJECTS


def test_disabled_observability_read_path_allocates_nothing_per_block():
    """With no tracer, vfs pread over warm blocks retains ~nothing.

    This is the NULL_SPAN path: every span site the overhaul guarded
    with ``obs.enabled()`` must skip kwargs building entirely, and the
    copy-free read pipeline must not accumulate buffers.
    """
    assert not obs.enabled()
    fs = make_cffs()
    n_blocks = 8
    fs.write_file("/hot", bytes(range(256)) * (n_blocks * BLOCK_SIZE // 256))
    fs.sync()
    fd = fs.open("/hot")
    try:
        def hot_loop():
            pread = fs.pread
            for _ in range(128):
                for idx in range(n_blocks):  # 8 x 128 = 1024 block reads
                    pread(fd, idx * BLOCK_SIZE, BLOCK_SIZE)

        assert _retained_in_repro(hot_loop) <= BUDGET_OBJECTS
    finally:
        fs.close(fd)


def test_budget_is_per_loop_not_per_block():
    """Doubling the block count must not move the retained count.

    This is the actual regression shape: a per-block leak scales with
    the loop; the honest fixed overhead (counter ints, clock floats)
    does not.
    """
    assert not obs.enabled()
    cache = BufferCache(make_device(), capacity_blocks=64)
    for bno in range(1, 33):
        cache.get(bno)

    def loop(n):
        def run():
            get = cache.get
            for _ in range(64):
                for bno in range(1, n + 1):
                    get(bno)
        return run

    small = _retained_in_repro(loop(16))
    large = _retained_in_repro(loop(32))
    assert small <= BUDGET_OBJECTS and large <= BUDGET_OBJECTS
    # No per-block term: twice the blocks, same (tiny) retention.
    assert abs(large - small) <= BUDGET_OBJECTS


def test_span_names_are_interned_not_rebuilt():
    """Reading ``span.name`` must not allocate a fresh string per read.

    Span names draw from a small fixed (layer, op) vocabulary, so every
    read of a given name must return the *same interned object* — and a
    whole loop of name reads across many spans must retain nothing
    beyond the one-time cache fill (warmed up before measuring).
    """
    from repro.obs.tracer import Tracer

    tracer = Tracer()
    layers_ops = [("vfs", "create"), ("cache", "flush"), ("disk", "read"),
                  ("fs", "lookup")]
    spans = [tracer.span(layer, op) for layer, op in layers_ops for _ in range(4)]

    # Identity, not mere equality: one object per distinct (layer, op).
    for i, span in enumerate(spans):
        assert span.name is spans[(i // 4) * 4].name
        assert span.name == "%s.%s" % (span.layer, span.op)

    def hot_loop():
        for _ in range(1024):
            for span in spans:  # 16 x 1024 name reads
                span.name

    assert _retained_in_repro(hot_loop) <= BUDGET_OBJECTS


def test_engine_replay_retains_one_record_per_operation():
    """With no tracer, the engine keeps an ``OpRecord`` per operation
    and nothing else: no per-request state, no observability leftovers.

    Two clients replay cached reads, overwrites and a sync (so the disk
    queue runs: writes, a flush barrier) through ``run_phase``.  What a
    request costs — its ``QueuedRequest``, the heap entry, the resume
    callback — is transient; what an operation keeps is its record and
    the floats in it.  Asserted as in
    ``test_budget_is_per_loop_not_per_block``: double the loop, bound
    the growth.
    """
    from repro.engine import Engine

    assert not obs.enabled()
    fs = make_cffs()
    engine = Engine(fs)
    clients = [engine.add_client(), engine.add_client()]
    payload = b"x" * BLOCK_SIZE

    def setup(f):
        for client in clients:
            f.mkdir("/%s" % client.name)
            for i in range(8):
                f.write_file("/%s/f%d" % (client.name, i), payload)
        f.sync()

    engine.run_sync(setup)

    def script(client, n_ops):
        ops = []
        for i in range(n_ops):
            path = "/%s/f%d" % (client.name, i % 8)
            if i % 16 == 15:
                ops.append(("sync", lambda f: f.sync()))
            elif i % 2:
                ops.append(("write", lambda f, p=path: f.write_file(p, payload)))
            else:
                ops.append(("read", lambda f, p=path: f.read_file(p)))
        return ops

    def loop(n_ops):
        def run():
            engine.run_phase({c: script(c, n_ops) for c in clients}, "hot")
        return run

    #: A slotted OpRecord is one block plus the floats only it holds
    #: (its cpu_seconds, its end time): 3.0 measured on python 3.11
    #: (4.0 when it was a dict-backed dataclass copied from a tally).
    #: One more object kept per *request* (~1.6 an operation) exceeds it.
    per_op = 4
    before = engine.queue.stats.completed
    small = _retained_in_repro(loop(128))
    large = _retained_in_repro(loop(256))
    assert engine.queue.stats.completed > before   # the queue really ran
    extra_ops = len(clients) * (256 - 128)
    assert large - small <= extra_ops * per_op + BUDGET_OBJECTS
    assert large <= len(clients) * 256 * per_op + BUDGET_OBJECTS


def test_create_delete_churn_retains_nothing_per_file():
    """Files that are gone leave nothing behind, evictions included.

    Create N one-block files on C-FFS through a 32-block cache (so
    dirty groups leave by eviction, not only by sync), sync, unlink them
    all, sync.  Inodes, names, group slots, buffers and allocator state
    of a deleted file must all be released: N against 2N files, and the
    growth per extra file is bounded by nothing but the fixed budget.
    """
    assert not obs.enabled()
    fs = CFFS.mkfs(make_device(),
                   CFFSConfig(blocks_per_cg=512, cache_blocks=32))
    fs.mkdir("/d")
    payload = b"p" * 3000

    def churn(n_files):
        def run():
            for i in range(n_files):
                fs.write_file("/d/f%d" % i, payload)
            fs.sync()
            for i in range(n_files):
                fs.unlink("/d/f%d" % i)
            fs.sync()
        return run

    # Every code path once before anything is traced: on python 3.9 and
    # 3.10 the interpreter keeps up to ~130 objects of its own from the
    # first few hundred operations of a process (36 and 97 retained
    # without this line, against 10 and 12 on 3.11-3.13).
    churn(400)()
    before = fs.cache.evictions
    small = _retained_in_repro(churn(200))
    large = _retained_in_repro(churn(400))
    assert fs.cache.evictions - before > 1000    # the cache really evicted
    #: Measured at the parent of PR 18 on python 3.9 to 3.13: 11 to 13
    #: objects after 200 files, 12 to 16 after 400 (mostly the
    #: ``logical`` key of each cached directory block).  One object kept
    #: per file would add 200.
    assert small <= BUDGET_OBJECTS and large <= BUDGET_OBJECTS


def test_cluster_traffic_retains_one_record_bundle_per_operation():
    """Outside the cache, a cluster replay keeps per operation its
    ``OpRecord``, a third of a client, and the in-memory state of the
    files the operation made — and nothing per request, route or event.

    ``run_cluster_traffic`` on two shards at 40 and at 80 clients of
    three operations each; both clusters stay alive so what is measured
    is what a finished run holds.
    """
    from repro.cluster import Cluster, TrafficConfig, run_cluster_traffic

    assert not obs.enabled()
    held = []

    def traffic(n_clients):
        def run():
            cfg = TrafficConfig(shards=2, clients=n_clients, ops_per_client=3,
                                dirs=16, file_size=4096, seed=1997)
            cluster = Cluster(n_shards=cfg.shards, label=cfg.label,
                              policy=cfg.policy, scheduler=cfg.scheduler,
                              router=cfg.router)
            run_cluster_traffic(cfg, cluster)
            held.append(cluster)
        return run

    #: Objects per extra operation, measured on python 3.11 once the
    #: record became one slotted object made by the client: 12.0 =
    #: cluster 4.4 (the OpRecord, a third of a ClusterClient) + engine
    #: 2.8 (the floats replay adds into it) + clock 0.4 + 4.4 of
    #: file-system state (core 2.4, ffs 1.6, vfs 0.4).  At the parent
    #: of PR 18 it was 12.3 (11.2 on python 3.10, 11.3 on 3.13), when
    #: the budget was 14.
    per_op = 13
    small = _retained_in_repro(traffic(40), _OUTSIDE_CACHE)
    large = _retained_in_repro(traffic(80), _OUTSIDE_CACHE)
    extra_ops = (80 - 40) * 3
    assert large - small <= extra_ops * per_op
    assert sum(len(c.records) for c in held[-1].clients) == 80 * 3
    # After sync_concurrent() a cached block is the device's object, not
    # a second 4 KB beside it (at the parent of PR 19: every one of them).
    for shard in held[-1].shards:
        cached = shard.fs.cache._phys
        second = sum(len(buf.image) for bno, buf in cached.items()
                     if buf.image is not shard.device.peek_block(bno))
        assert len(cached) > 1000
        assert second * 16 <= len(cached) * BLOCK_SIZE


def test_descriptor_transitions_read_the_head_and_get_the_block_once():
    """A slot taken, a slot freed and "is this block grouped?" each cost
    one ``cache.get`` and build no decoded descriptor: the peak of
    traced memory over 1000 rounds stays where one round puts it."""
    fs = make_cffs()
    fs.mkdir("/d")
    fs.write_file("/d/f", b"x" * 100)
    bno = fs._resolve("/d/f").direct[0]
    groups = fs.groups
    ext = groups.extent_of_block(bno)
    desc = read_desc(groups, ext)
    assert (desc["state"], desc["valid_mask"]) == (EXT_GROUPED, 0b1)
    gets = [0]
    cache_get = fs.cache.get

    def counting_get(bno, logical=None):
        gets[0] += 1
        return cache_get(bno, logical)

    fs.cache.get = counting_get

    def rounds(n):
        take, free, grouped = groups.take_slot, groups.free_slot, fs._block_is_grouped
        for _ in range(n):
            assert free(take(ext, 7, 0)) is False   # slot 1 and back
            assert grouped(bno)

    rounds(10)
    gets[0] = 0
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        rounds(1000)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert gets[0] == 3 * 1000
    #: Measured: 0.8 KB (the head's 3-tuple, ints, frames).  At the
    #: parent of PR 20, which decoded every descriptor into a dict, a
    #: list and 16 tuples and encoded all of it back: 8 KB and 5 gets a
    #: round.
    assert peak <= 3 * 1024


def _peak_of(fn) -> int:
    """Traced-memory peak of ``fn()`` above what was live before it.
    No ``gc.collect()`` first: it empties the interpreter's free lists,
    and refilling them (80 lists, 4.6 KB) would count as the loop's."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_embedded_inode_is_packed_and_unpacked_in_its_block():
    """A warm inode store packs the record straight into the cached
    directory block, and a cold fetch reads the node from it: neither
    builds a 96-byte copy, a field dict or an argument tuple, so the
    peak of traced memory over 1000 rounds stays where one round puts
    it."""
    fs = make_cffs()
    fs.mkdir("/d")
    fs.write_file("/d/f", b"x" * 100)
    dirh = fs._resolve("/d")
    node = fs._resolve("/d/f")
    info = fs._dir_index[dirh.fileid].names["f"]

    def store(n):
        for _ in range(n):
            fs._istore(node, sync_op=False)

    def fetch(n):
        for _ in range(n):
            del fs._icache[node.fileid]
            fs._node_at(dirh, info)

    store(100)
    fetch(100)
    hits = fs.cache.hits
    #: Measured: 144 B (the logical id, frames).  Packing a ``bytes``
    #: and copying it in, as the store did before: 624 B.
    assert _peak_of(lambda: store(1000)) <= 384
    #: Measured: 1 012 B, nearly all of it the node that stays cached
    #: (its pointer list and ints) and the unpacked tuple.  Slicing the
    #: record out and going through a field dict, as the fetch did
    #: before: 1 397 B.
    assert _peak_of(lambda: fetch(1000)) <= 1200
    assert fs.cache.hits - hits == 2000
    assert fs._icache[node.fileid].fileid == node.fileid


@pytest.mark.parametrize("levels", [1, 2], ids=["indirect", "dindirect"])
def test_block_map_lookup_decodes_one_pointer_per_level(levels):
    """A lookup through indirect blocks gets each once and decodes the
    one pointer it follows: the peak of traced memory over 1000 lookups
    stays where one lookup puts it."""
    from repro.ffs import mapping
    from repro.ffs.layout import NDIRECT, PTRS_PER_INDIRECT

    class Inode:
        def __init__(self):
            self.direct = [0] * NDIRECT
            self.indirect = self.dindirect = 0

    idx = NDIRECT + 700 if levels == 1 else (
        NDIRECT + PTRS_PER_INDIRECT + 5 * PTRS_PER_INDIRECT + 9)
    cache = BufferCache(make_device(), capacity_blocks=64)
    inode = Inode()
    fresh = iter(range(5000, 5010))
    bno, _ = mapping.bmap_ensure(cache, inode, idx, fresh.__next__, fresh.__next__)
    lookup = mapping.bmap_lookup
    for _ in range(10):
        lookup(cache, inode, idx)
    hits = cache.hits
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        for _ in range(1000):
            assert lookup(cache, inode, idx) == bno
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert cache.hits - hits == 1000 * levels
    #: Measured: 380 B at both levels.  Decoding the whole block, as
    #: the lookup did before, builds a 1024-tuple: 8.4 KB.
    assert peak <= 1024


@pytest.mark.parametrize("make_fs", [make_cffs, make_ffs], ids=["cffs", "ffs"])
def test_warm_resolve_allocates_nothing_per_component(make_fs):
    """Opening a file three directories deep on a warm index touches no
    cache buffer, keeps nothing, and allocates only what one path's
    components and one descriptor need: the peak of traced memory over
    1000 opens stays where one open puts it."""
    assert not obs.enabled()
    fs = make_fs()
    for path in ("/a", "/a/b", "/a/b/c"):
        fs.mkdir(path)
    fs.write_file("/a/b/c/f", b"x" * 100)

    def rounds(n):
        open_, close = fs.open, fs.close
        for _ in range(n):
            close(open_("/a/b/c/f"))

    rounds(10)
    touched = fs.cache.hits + fs.cache.misses
    assert _retained_in_repro(lambda: rounds(1000)) <= BUDGET_OBJECTS
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        rounds(1000)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert fs.cache.hits + fs.cache.misses == touched
    #: Measured: 968 B on both formats (the path's component list and
    #: strings, the descriptor record, frames); 992 B before the resolve
    #: path stopped re-finding names.
    assert peak <= 1536


# -- one image per block version ----------------------------------------------------


def _retained_by_mkfs(cls, config) -> int:
    """Traced memory a fresh ST31200 volume keeps once mkfs returns
    (the device is built before tracing starts)."""
    device = BlockDevice(SEAGATE_ST31200)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fs = cls.mkfs(device, config)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert fs.sb["n_cgs"] > 100
    return retained


def test_mkfs_shares_one_image_per_kind_of_group_block():
    """Every cylinder group's fresh bitmap, descriptor and zeroed table
    blocks share three images, in the cache and in the device's store,
    so what mkfs keeps is the buffers, not one image per block.
    Measured: 320 KB for C-FFS's 1 122 buffers and 101 KB for FFS's 227.
    Building each group's own bitmap and descriptor, as mkfs did
    before: 1 211 KB and 988 KB."""
    assert _retained_by_mkfs(CFFS, CFFSConfig()) <= 400 * 1024
    assert _retained_by_mkfs(FFS, FFSConfig()) <= 150 * 1024


def test_read_fill_holds_the_devices_bytes_not_copies_of_them():
    """Filling a 256-block cache from a written device costs the cache
    its bookkeeping and nothing per byte of data."""
    device = make_device()
    bnos = range(1, 257)
    for bno in bnos:
        device.poke_block(bno, bytes([bno % 251]) * BLOCK_SIZE)
    tracemalloc.start()
    try:
        cache = BufferCache(device, capacity_blocks=256)
        for bno in bnos:
            cache.get(bno)
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    in_cache = snapshot.filter_traces([tracemalloc.Filter(
        True, "*" + os.sep + "repro" + os.sep + "cache" + os.sep + "*")])
    retained = sum(stat.size for stat in in_cache.statistics("filename"))
    #: Measured: 149 B a block (the Buffer, its OrderedDict slot);
    #: 4302 B at the parent of PR 19, which copied every block.
    assert 0 < retained <= 256 * 512
    for bno in bnos:
        assert cache.peek(bno).image is device.peek_block(bno)


def test_written_blocks_are_one_object_in_cache_device_and_recorder():
    """Whole-block and 3.5 KB files, then sync(): every data block in
    the cache is the object the device stores, and every landed write
    the recorder kept is the object the device stored."""
    from repro.faults import FaultyBlockDevice
    from repro.ffs import mapping

    device = FaultyBlockDevice(make_device(), record_journal=True)
    fs = CFFS.mkfs(device, CFFSConfig(blocks_per_cg=512, cache_blocks=512))
    fs.mkdir("/d")
    sizes = {"/d/whole%d" % i: 2 * BLOCK_SIZE for i in range(8)}
    sizes.update(("/d/small%d" % i, 3584) for i in range(24))
    for k, (path, size) in enumerate(sorted(sizes.items())):
        fs.write_file(path, bytes([k + 1]) * size)
    fs.sync()
    data_blocks = [bno for path in sizes for _idx, bno in
                   mapping.enumerate_blocks(fs.cache, fs._resolve(path))]
    assert len(data_blocks) == 8 * 2 + 24
    for bno in data_blocks:
        assert fs.cache.peek(bno).image is device.peek_block(bno)
    last = dict(device.journal)     # the newest landed write of each block
    assert set(data_blocks) <= set(last)
    for bno, image in last.items():
        assert image is device.peek_block(bno)
    for path, size in sizes.items():
        assert fs.read_file(path) == bytes([sorted(sizes).index(path) + 1]) * size


#: Bytes a drive may keep after 10 000 requests and a flush: its fixed
#: state (read-ahead segments, the emptied write buffer's tables, the
#: stats' floats) re-made, and no more.  One 28-byte int per request
#: would be 280 000.
DRIVE_BUDGET_BYTES = 4096


def _mixed_requests(total_sectors, count=10000, seed=1997):
    """``count`` reads and writes: runs of sequential blocks, rewrites
    of recent ones and random seeks, with idle gaps of several sizes."""
    rng = random.Random(seed)
    out, recent = [], [0]
    for _ in range(count):
        n = rng.choice((8, 8, 8, 16, 32, 128))
        roll = rng.random()
        if roll < 0.4:
            lba = recent[-1] + 8
        elif roll < 0.7:
            lba = rng.choice(recent)
        else:
            lba = rng.randrange(0, total_sectors - 256, 8)
        lba = min(lba, total_sectors - n)
        recent = (recent + [lba])[-16:]
        out.append((rng.random() < 0.6, lba, n,
                    rng.choice((0.0, 0.0, 1e-4, 2e-3, 2e-2))))
    return out


@pytest.mark.parametrize("profile", [SEAGATE_ST31200, HP_C3653],
                         ids=["write-behind", "write-through"])
def test_drive_retains_nothing_per_request_but_request_sizes(profile):
    """10 000 mixed requests through a drive, then a flush: what the
    drive holds afterwards is bounded by its configuration, not by the
    request count.  ``request_sizes`` keeps one entry per distinct size,
    and the script uses four."""
    assert not obs.enabled()
    disk = SimulatedDisk(profile)
    requests = _mixed_requests(disk.total_sectors)
    _disk = tracemalloc.Filter(
        True, "*" + os.sep + "repro" + os.sep + "disk" + os.sep + "*")
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.take_snapshot()
        for is_write, lba, n, gap in requests:
            disk.clock.advance(gap)
            (disk.write if is_write else disk.read)(lba, n)
        disk.flush_write_buffer()
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    grown = sum(stat.size_diff for stat in after.filter_traces([_disk])
                .compare_to(before.filter_traces([_disk]), "filename"))
    assert disk.stats.total_requests == 10000
    assert len(disk.stats.request_sizes) == 4
    assert grown <= DRIVE_BUDGET_BYTES, grown
