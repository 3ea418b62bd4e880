"""The per-layer trace: spans recorded from outside the program.

Nothing under ``src/`` is edited.  For the duration of a traced run the
public entry points of every layer are replaced, on their classes, by
wrappers that record one span per call; :func:`tracing` installs them
and puts the originals back.  A span is ``(layer, name, start, end,
parent, op_id)`` on the host clock (``time.perf_counter_ns``); the
``op_id`` is the user operation that caused it, set by the two
``workloads``-layer entry points in :mod:`benchmarks.perf.workloads`.

A layer's *self time* is the time its spans were open minus the part of
it their child spans covered.  A full-size run makes over a million
spans, so self time, call counts and the boundary counts are folded
into per-layer totals as each span closes; whole span trees are kept
only for the first :data:`KEEP_OPS` operations and written out when the
run ends.

Scripted (engine / cluster) operations are captured at once and their
disk requests replayed later through a queue.  A replayed request
submitted for a client carries that client's current ``op_id``; one
the queue dispatches after another request completes is started by the
event loop, not by an operation, and carries ``op_id`` 0.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.blockdev.device import BlockDevice
from repro.cache.buffercache import BufferCache
from repro.cluster.core import Cluster
from repro.cluster.facade import ClusterFS
from repro.core.filesystem import CFFS
from repro.disk.drive import SimulatedDisk
from repro.engine import client as engine_client
from repro.engine.client import Engine
from repro.engine.diskqueue import DiskQueue
from repro.engine.eventloop import EventLoop
from repro.faults.proxy import FaultyBlockDevice
from repro.ffs.filesystem import FFS
from repro.journal.wal import Journal
from repro.resilience.device import ResilientBlockDevice
from repro.vfs.interface import FileSystem

from benchmarks.perf.workloads import Workload

#: Operations whose full span trees are kept and written out.
KEEP_OPS = 1000

#: Outside-in order of the layers (the order every table prints in).
LAYERS = ("workloads", "cluster", "engine", "vfs", "core", "ffs", "cache",
          "journal", "resilience", "blockdev", "disk")

_VFS = ("create", "mkdir", "unlink", "rmdir", "link", "rename", "open",
        "close", "read", "write", "pread", "pwrite", "truncate", "stat",
        "readdir", "write_file", "read_file", "sync", "fsync",
        "evict_file_data", "drop_caches")

# The per-format hooks vfs/interface.py declares, less the two trivial
# accessors (_root_handle, _kind_of: a wrapper would cost more than the
# call), plus the two other ways control enters a format: fsync's
# metadata hook and the cache's gather-companions callback.
_FORMAT = ("_lookup", "_create_file", "_make_directory", "_unlink", "_rmdir",
           "_link", "_rename", "_read", "_write", "_truncate", "_stat_handle",
           "_readdir", "_write_back_metadata", "_drop_private_caches",
           "_fsync_metadata", "_flush_companions")

_CACHE = ("get", "install", "create", "mark_dirty", "write_sync", "flush",
          "flush_blocks", "sync")

# The write-pipeline contract, plus the three ways work enters the log
# besides it (note) or is counted on it (commit, checkpoint).
_JOURNAL = ("prepare", "committed", "ready", "pre_flush", "post_flush",
            "forgotten", "note", "commit", "checkpoint")

_DEVICE = ("read_block", "read_extent", "read_batch", "write_block",
           "write_extent", "write_batch", "flush")

_FACADE = ("create", "mkdir", "unlink", "rmdir", "link", "rename", "open",
           "close", "read", "write", "pread", "pwrite", "fsync", "write_file",
           "read_file", "truncate", "stat", "exists", "readdir", "sync",
           "drop_caches", "evict_file_data")

#: Blocks moved by one device call, from its arguments and result.
_BLOCKS: Dict[str, Callable] = {
    "read_block": lambda args, result: 1,
    "read_extent": lambda args, result: args[2],
    "read_batch": lambda args, result: len(result),
    "write_block": lambda args, result: 1,
    "write_extent": lambda args, result: len(args[2]),
    "write_batch": lambda args, result: len(args[1]),
}


class Tracer:
    """Open-span stack plus the running per-layer totals."""

    def __init__(self) -> None:
        self.on = False
        self.stack: List[list] = []         # [layer, child ns, span id]
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.entries: Dict[str, int] = defaultdict(int)
        self.spans: Dict[Tuple[str, str], int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.op_id = 0
        self.client_op: Dict[int, int] = {}
        self.kept: List[tuple] = []
        self.next_id = 0

    def layer_seconds(self) -> Dict[str, float]:
        return {layer: self.self_ns[layer] / 1e9 for layer in LAYERS}

    def trees(self) -> List[dict]:
        """Kept spans grouped by operation: the first KEEP_OPS trees."""
        by_op: Dict[int, List[list]] = defaultdict(list)
        for sid, layer, name, start, end, parent, op_id in self.kept:
            by_op[op_id].append([sid, layer, name, start, end, parent])
        return [{"op_id": op_id, "spans": sorted(by_op[op_id])}
                for op_id in sorted(by_op)]


def _probe(tracer: Tracer, layer: str, name: str, fn: Callable,
           enter: Optional[Callable] = None,
           measure: Optional[Callable] = None) -> Callable:
    """``fn`` wrapped to record a span of ``layer`` on every call.

    ``enter(tracer, args, kwargs)`` may name the operation the call
    belongs to; ``measure(tracer, parent_layer, args, result)`` counts
    what crossed the boundary.
    """
    key = (layer, name)
    clock = time.perf_counter_ns

    def wrapper(*args, **kwargs):
        if not tracer.on:
            return fn(*args, **kwargs)
        stack = tracer.stack
        parent = stack[-1] if stack else None
        parent_layer = parent[0] if parent is not None else None
        if parent_layer != layer:
            tracer.entries[layer] += 1
        tracer.spans[key] += 1
        outer_op = tracer.op_id
        if enter is not None:
            tracer.op_id = enter(tracer, args, kwargs)
        op_id = tracer.op_id
        sid = -1
        if 0 < op_id <= KEEP_OPS:
            sid = tracer.next_id
            tracer.next_id += 1
        frame = [layer, 0, sid]
        stack.append(frame)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = clock()
            stack.pop()
            took = end - start
            tracer.self_ns[layer] += took - frame[1]
            if parent is not None:
                parent[1] += took
            if sid >= 0:
                tracer.kept.append((
                    sid, layer, name, start, end,
                    parent[2] if parent is not None else -1, op_id))
            tracer.op_id = outer_op
        if measure is not None:
            measure(tracer, parent_layer, args, result)
        return result

    return wrapper


# -- what is counted at the boundaries --------------------------------------------


def _enter_op(tracer: Tracer, args, kwargs) -> int:
    return args[1]                       # Workload.op(self, op_id, ...)


def _enter_call(tracer: Tracer, args, kwargs) -> int:
    tracer.client_op[args[2]] = args[1]  # Workload.call(self, op_id, cid, ...)
    return args[1]


def _enter_submit(tracer: Tracer, args, kwargs) -> int:
    # DiskQueue.submit(self, op, lba, nsectors, client=0, on_complete=None)
    client = args[4] if len(args) > 4 else kwargs.get("client", 0)
    return tracer.client_op.get(client, 0)


def _measure_device(layer: str, method: str) -> Optional[Callable]:
    blocks = _BLOCKS.get(method)
    if blocks is None:
        return None
    is_write = method.startswith("write")

    def measure(tracer: Tracer, parent_layer, args, result) -> None:
        if parent_layer == layer:
            return  # an inner call of a batch: already counted
        n = blocks(args, result)
        tracer.counts[layer + ".data_calls"] += 1
        tracer.counts[layer + ".blocks"] += n
        if is_write and parent_layer == "cache":
            tracer.counts["cache.flushes"] += 1
            tracer.counts["cache.flush_blocks"] += n

    return measure


def _measure_commit(tracer: Tracer, parent_layer, args, result) -> None:
    if result:
        tracer.counts["journal.commits"] += 1
        tracer.counts["journal.commit_blocks"] += result


# -- installation -----------------------------------------------------------------


def _targets(tracer: Tracer) -> Iterator[Tuple[type, str, Callable]]:
    """(class, attribute, wrapper) for every traced entry point."""

    def plain(cls: type, layer: str, names, **hooks):
        for name in names:
            yield cls, name, _probe(tracer, layer, name,
                                    getattr(cls, name), **hooks)

    yield Workload, "op", _probe(
        tracer, "workloads", "op", Workload.op, enter=_enter_op)
    yield Workload, "call", _probe(
        tracer, "workloads", "call", Workload.call, enter=_enter_call)
    yield from plain(FileSystem, "vfs", _VFS)
    # Hooks go on the concrete class, so what BlockFileSystem implements
    # for both formats is charged to whichever format is mounted.
    yield from plain(CFFS, "core", _FORMAT)
    yield from plain(FFS, "ffs", _FORMAT)
    yield from plain(BufferCache, "cache", _CACHE)
    for name in _JOURNAL:
        yield Journal, name, _probe(
            tracer, "journal", name, getattr(Journal, name),
            measure=_measure_commit if name == "commit" else None)
    # A fault-injecting proxy with an empty schedule *is* the block
    # device of its stack (it drives the drive itself on writes); the
    # engine's capture device stands in for it during capture.
    for cls, layer in ((ResilientBlockDevice, "resilience"),
                       (BlockDevice, "blockdev"),
                       (FaultyBlockDevice, "blockdev"),
                       (engine_client._CaptureDevice, "engine")):
        for name in _DEVICE:
            label = "capture." + name if layer == "engine" else name
            yield cls, name, _probe(
                tracer, layer, label, getattr(cls, name),
                measure=(_measure_device(layer, name)
                         if layer != "engine" else None))
    yield from plain(SimulatedDisk, "disk",
                     ("read", "write", "flush_write_buffer"))
    yield from plain(Engine, "engine", ("run_phase", "run_sync", "capture"))
    yield DiskQueue, "submit", _probe(
        tracer, "engine", "submit", DiskQueue.submit, enter=_enter_submit)
    yield from plain(EventLoop, "engine", ("run",))
    # _step is where the shared event loop calls back into the cluster;
    # unwrapped, every client generator would be charged to the engine.
    yield from plain(Cluster, "cluster",
                     ("route", "run_phase", "sync_concurrent", "lockstep",
                      "rename_legs", "_step"))
    yield from plain(ClusterFS, "cluster", _FACADE)


@contextlib.contextmanager
def tracing(tracer: Tracer) -> Iterator[Tracer]:
    """Install the wrappers for the with-block; spans are recorded
    while ``tracer.on`` is true."""
    undo: List[Tuple[type, str, object]] = []
    missing = object()
    try:
        for cls, name, wrapper in _targets(tracer):
            undo.append((cls, name, vars(cls).get(name, missing)))
            setattr(cls, name, wrapper)
        yield tracer
    finally:
        for cls, name, original in reversed(undo):
            if original is missing:
                delattr(cls, name)
            else:
                setattr(cls, name, original)
