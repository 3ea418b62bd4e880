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
"""

from __future__ import annotations

import gc
import os
import tracemalloc

from repro import obs
from repro.blockdev.device import BLOCK_SIZE
from repro.cache.buffercache import BufferCache
from tests.conftest import make_cffs, make_device

#: Net retained allocations allowed inside src/repro for a whole
#: measured loop (thousands of block touches).  Small and fixed: one
#: retained object per block would exceed it 100x over.
BUDGET_OBJECTS = 32

_REPRO_ONLY = [
    tracemalloc.Filter(True, "*" + os.sep + "repro" + os.sep + "*"),
]


def _retained_in_repro(fn) -> int:
    """Net live-object growth attributed to repro source files."""
    fn()  # warmup: lazy tables, struct caches, interned state
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        fn()
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    before = before.filter_traces(_REPRO_ONLY)
    after = after.filter_traces(_REPRO_ONLY)
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

    #: An OpRecord is two blocks (object and attribute values) plus the
    #: floats only it holds (its cpu_seconds, its end time): 4.1 measured.
    #: One more object kept per *request* (~1.6 an operation) exceeds it.
    per_op = 5
    before = engine.queue.stats.completed
    small = _retained_in_repro(loop(128))
    large = _retained_in_repro(loop(256))
    assert engine.queue.stats.completed > before   # the queue really ran
    extra_ops = len(clients) * (256 - 128)
    assert large - small <= extra_ops * per_op + BUDGET_OBJECTS
    assert large <= len(clients) * 256 * per_op + BUDGET_OBJECTS
