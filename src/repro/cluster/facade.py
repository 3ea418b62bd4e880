"""ClusterFS: the whole cluster behind one FileSystem-shaped surface.

Existing workloads and scripts drive the :class:`~repro.vfs.interface.
FileSystem` public API; this facade presents the same surface over N
shards so they run against the cluster *unmodified* (lock-step).  Every
path is routed by its top-level component; file descriptors are facade-
local and map to ``(shard, inner fd)``; whole-cluster operations
(``sync``, ``drop_caches``, root ``readdir``) fan out.

Semantics at the shard boundary follow what real multi-volume systems
do:

- ``link`` across shards raises (hard links cannot span volumes —
  EXDEV);
- ``rename`` across shards is supported for regular files via the
  crash-safe copy-then-unlink protocol (:mod:`repro.cluster.intent`);
  renaming a *directory* across shards raises, as ``rename(2)`` does.

The reserved per-shard ``/.cluster`` directory (intent files) is
invisible here: it never appears in root listings and cannot be
addressed through the facade.

Fault tolerance: every shard call is one cluster op through
:meth:`~repro.cluster.core.Cluster.call`, the per-op loop the replay
clients use too (:meth:`~repro.cluster.core.Cluster.run_op`) —
transient and hard media errors are retried with deterministic
exponential backoff on cluster time, every failure is classified into
the per-shard health state, and a write to an owner that is not
writable (READ_ONLY or FAILED, also when this very call's fault
demoted it) is refused with :class:`~repro.errors.ReadOnlyFileSystem`.
The probes (``exists``, ``stat("/")``, the root ``readdir``) are cluster
ops as well.  A sick shard's subtrees move only by evacuation
(:meth:`Cluster.evacuate_unhealthy`).  Errors that escape carry shard
context — the message gains an ``s<k>:`` prefix and the exception grows
a ``shard`` attribute — so a caller can tell *which* shard of the
cluster failed.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.cluster.intent import CLUSTER_DIR
from repro.errors import FileNotFound, InvalidArgument
from repro.vfs import FileKind

_RESERVED_TOP = CLUSTER_DIR.strip("/")


def split_top(path: str) -> Tuple[str, str]:
    """(top-level component, remainder) of an absolute path."""
    if not path.startswith("/"):
        raise InvalidArgument("path must be absolute: %r" % path)
    parts = [p for p in path.split("/") if p]
    if not parts:
        raise InvalidArgument("the cluster root itself cannot be the target")
    if parts[0] == _RESERVED_TOP:
        raise InvalidArgument(
            "%r is reserved for cluster metadata" % CLUSTER_DIR)
    return parts[0], "/".join(parts[1:])


class ClusterFS:
    """Route-and-delegate implementation of the FileSystem surface."""

    def __init__(self, cluster) -> None:
        self._cluster = cluster
        self._fds: Dict[int, Tuple[object, int]] = {}
        self._next_fd = 3   # 0-2 reserved, as in the real API

    # -- routing helpers -------------------------------------------------------

    def _owner(self, path: str):
        """The shard owning ``path`` (placing its top-level name)."""
        top, _ = split_top(path)
        return self._cluster.route(top)

    def _shard_call(self, shard, fn, op: str = "read"):
        """Run ``fn`` on ``shard`` as one cluster op (``op``: its path)."""
        return self._cluster.call(op, [(shard, fn)])

    def _call(self, path: str, fn):
        """Run a read ``fn`` on the shard owning ``path``."""
        return self._shard_call(self._owner(path), fn)

    def _mutate(self, path: str, fn):
        """Run a write ``fn`` on the shard owning ``path``."""
        return self._shard_call(self._owner(path), fn, op="write")

    def _shard_fd(self, fd: int) -> Tuple[object, int]:
        entry = self._fds.get(fd)
        if entry is None:
            raise InvalidArgument("bad file descriptor %d" % fd)
        return entry

    # -- namespace operations --------------------------------------------------

    def create(self, path: str) -> None:
        self._mutate(path, lambda f: f.create(path))

    def mkdir(self, path: str) -> None:
        self._mutate(path, lambda f: f.mkdir(path))

    def unlink(self, path: str) -> None:
        self._mutate(path, lambda f: f.unlink(path))

    def rmdir(self, path: str) -> None:
        self._mutate(path, lambda f: f.rmdir(path))

    def link(self, existing: str, new: str) -> None:
        src = self._owner(existing)
        dst = self._owner(new)
        if src is not dst:
            raise InvalidArgument(
                "hard link across shards (%s -> %s): links cannot span "
                "volumes" % (src.name, dst.name))
        self._shard_call(src, lambda f: f.link(existing, new), op="write")

    def rename(self, old: str, new: str) -> None:
        src = self._owner(old)
        dst = self._owner(new)
        if src is not dst:
            kind = self._shard_call(src, lambda f: f.stat(old)).kind
            if kind is not FileKind.FILE:
                raise InvalidArgument(
                    "cross-shard rename supports regular files only: "
                    "%r is a %s" % (old, kind.name.lower()))
            if self._shard_call(dst, lambda f: f.exists(new)):
                raise InvalidArgument(
                    "cross-shard rename target %r already exists" % new)
        # Every leg is on the write path: a rename mutates its source,
        # so a source that cannot unlink is refused before any copy.  A
        # mid-protocol failure recovers via the intent record.
        for shard, fn in self._cluster.rename_legs(src, old, dst, new):
            self._shard_call(shard, fn, op="write")

    # -- file-descriptor operations --------------------------------------------

    def open(self, path: str, create: bool = False) -> int:
        shard = self._owner(path)
        inner = self._shard_call(shard, lambda f: f.open(path, create),
                                 op="write" if create else "read")
        fd = self._next_fd
        self._next_fd += 1
        self._fds[fd] = (shard, inner)
        return fd

    def close(self, fd: int) -> None:
        shard, inner = self._shard_fd(fd)
        self._shard_call(shard, lambda f: f.close(inner))
        del self._fds[fd]

    def read(self, fd: int, size: int) -> bytes:
        shard, inner = self._shard_fd(fd)
        data = self._shard_call(shard, lambda f: f.read(inner, size))
        self._cluster.account(shard, bytes_read=len(data))
        return data

    def write(self, fd: int, data: bytes) -> int:
        shard, inner = self._shard_fd(fd)
        self._cluster.account(shard, bytes_written=len(data))
        return self._shard_call(
            shard, lambda f: f.write(inner, data), op="write")

    def pread(self, fd: int, offset: int, size: int) -> bytes:
        shard, inner = self._shard_fd(fd)
        data = self._shard_call(
            shard, lambda f: f.pread(inner, offset, size))
        self._cluster.account(shard, bytes_read=len(data))
        return data

    def pwrite(self, fd: int, offset: int, data: bytes) -> int:
        shard, inner = self._shard_fd(fd)
        self._cluster.account(shard, bytes_written=len(data))
        return self._shard_call(
            shard, lambda f: f.pwrite(inner, offset, data), op="write")

    def fsync(self, fd: int) -> int:
        shard, inner = self._shard_fd(fd)
        return self._shard_call(
            shard, lambda f: f.fsync(inner), op="write")

    # -- whole-file helpers ----------------------------------------------------

    def write_file(self, path: str, data: bytes) -> None:
        shard = self._owner(path)
        self._shard_call(shard, lambda f: f.write_file(path, data),
                         op="write")
        self._cluster.account(shard, bytes_written=len(data))

    def read_file(self, path: str) -> bytes:
        shard = self._owner(path)
        data = self._shard_call(shard, lambda f: f.read_file(path))
        self._cluster.account(shard, bytes_read=len(data))
        return data

    def truncate(self, path: str, size: int = 0) -> None:
        self._mutate(path, lambda f: f.truncate(path, size))

    # -- inspection ------------------------------------------------------------

    def stat(self, path: str):
        if path == "/":
            return self._shard_call(self._cluster.shards[0],
                                    lambda f: f.stat("/"))
        return self._call(path, lambda f: f.stat(path))

    def exists(self, path: str) -> bool:
        if path == "/":
            return True
        top, _ = split_top(path)
        # Probe without placing: an exists() miss must not burn a
        # placement (or the utilization router would count phantom
        # directories).
        sid = self._cluster.router.probe(top)
        if sid is None:
            return False
        return bool(self._shard_call(self._cluster.shards[sid],
                                     lambda f: f.exists(path)))

    def readdir(self, path: str) -> List[str]:
        cluster = self._cluster
        if path == "/":
            merged = set()
            for shard in cluster.shards:
                if not cluster.health.readable(shard.sid):
                    # A FAILED shard's subtrees were (or are being)
                    # evacuated; the survivors list them.
                    continue
                merged.update(self._shard_call(shard,
                                               lambda f: f.readdir("/")))
            merged.discard(_RESERVED_TOP)
            return sorted(merged)
        return self._call(path, lambda f: f.readdir(path))

    # -- durability and caching ------------------------------------------------

    def sync(self) -> int:
        return self._cluster.sync_all()

    def drop_caches(self) -> None:
        self._cluster.drop_caches_all()

    def evict_file_data(self, path: str) -> int:
        return self._call(path, lambda f: f.evict_file_data(path))


# FileNotFound is intentionally re-exported: facade callers catch the
# same error taxonomy the per-shard file systems raise.
__all__ = ["ClusterFS", "FileNotFound", "split_top"]
