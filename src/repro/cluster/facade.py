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

Fault tolerance (PR 10): every shard call runs under the cluster's
retry rule (:func:`~repro.cluster.health.next_delay`) — transient and hard
media errors are retried with deterministic exponential backoff on
cluster time, every failure is classified into the per-shard health
state, and a write refused by a READ_ONLY (or newly FAILED) owner is
*redirected*: the subtree is evacuated to a health-picked spare on the
spot and the write retried there (see :meth:`Cluster.redirect`).
Errors that escape carry shard context — the message gains an ``s<k>:``
prefix and the exception grows a ``shard`` attribute — so a caller can
tell *which* shard of the cluster failed.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.cluster.health import (
    RETRY,
    RETRYABLE,
    SHARD_DOWN,
    next_delay,
    settle,
)
from repro.cluster.intent import CLUSTER_DIR
from repro.errors import (
    FileNotFound,
    InvalidArgument,
    ReadOnlyFileSystem,
    ReproError,
)
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

    @staticmethod
    def _annotate(shard, exc: ReproError) -> None:
        """Attach shard context to ``exc`` and re-raise it."""
        if getattr(exc, "shard", None) is None:
            exc.shard = shard.sid
            exc.args = ("%s: %s" % (shard.name, exc),)
        raise exc

    def _refuse_write(self, shard) -> None:
        """Raise the annotated ReadOnlyFileSystem of a demoted shard."""
        self._annotate(shard, ReadOnlyFileSystem(
            "shard refuses writes (health %s)"
            % self._cluster.health.state(shard.sid).name))

    def _shard_call(self, shard, fn, op: str = "read"):
        """Run ``fn`` on ``shard`` under the cluster retry rule.

        Retryable faults back the clock off deterministically and try
        again (bounded by attempts and per-op simulated-time timeout);
        every fault is classified into the shard's health state first.
        Whatever escapes carries the shard's name in its message.
        """
        cluster = self._cluster
        if op == "write" and not cluster.health.writable(shard.sid):
            # Enforce the advisory health state on the write path: a
            # demoted shard must not keep absorbing writes into a
            # cache that can never flush.  _routed_mutate turns this
            # into a redirect; descriptor-pinned writes surface it.
            self._refuse_write(shard)
        start = cluster.now
        attempts = 0
        while True:
            try:
                result = cluster.lockstep(shard, fn)
            except ReproError as exc:
                # Whatever the class — media fault, shard down, or a
                # plain ENOENT — an escaping error names its shard.
                if cluster.health.classify(shard.sid, exc, op) is not RETRY:
                    self._annotate(shard, exc)
                attempts += 1
                delay = next_delay(attempts, cluster.now - start,
                                   cluster.metrics)
                if delay is None:
                    self._annotate(shard, exc)
                if op == "write" and not cluster.health.writable(shard.sid):
                    # The fault just demoted the shard: the same refusal
                    # as above, instead of a retry into its cache.
                    self._refuse_write(shard)
                cluster.backoff(delay)
            else:
                settle(attempts, cluster.metrics)
                return result

    def _routed_mutate(self, top: str, fn):
        """(shard, result) of a write-path call with health redirect.

        Two roads lead to the redirect: the owner refuses outright
        (READ_ONLY/FAILED classes, also when a media fault of this very
        call demoted it), or hard media faults burn the whole retry
        budget *and* demote the owner below writable along the way.
        Either way the subtree is evacuated to a spare on the spot and
        the write retried there, exactly once.
        """
        cluster = self._cluster
        shard = cluster.route(top)
        try:
            return shard, self._shard_call(shard, fn, op="write")
        except RETRYABLE + SHARD_DOWN:
            # A shard-down error always leaves the owner unwritable; a
            # media fault only when the budget ran out along the way.
            if cluster.health.writable(shard.sid):
                raise
            dst = cluster.redirect(top)
            if dst is None:
                raise
            return dst, self._shard_call(dst, fn, op="write")

    def _call(self, path: str, fn):
        """Run a read ``fn`` on the shard owning ``path``."""
        return self._shard_call(self._owner(path), fn)

    def _mutate(self, path: str, fn):
        top, _ = split_top(path)
        return self._routed_mutate(top, fn)[1]

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
        cluster = self._cluster
        src = self._owner(old)
        dst = self._owner(new)
        if src is dst:
            cluster.metrics.counter("cluster.rename.local").inc()
            self._shard_call(src, lambda f: f.rename(old, new), op="write")
            return
        kind = self._shard_call(src, lambda f: f.stat(old)).kind
        if kind is not FileKind.FILE:
            raise InvalidArgument(
                "cross-shard rename supports regular files only: %r is a %s"
                % (old, kind.name.lower()))
        if self._shard_call(dst, lambda f: f.exists(new)):
            raise InvalidArgument(
                "cross-shard rename target %r already exists" % new)
        legs = cluster.rename_legs(src, old, dst, new)
        # First leg reads the source; the rest write.  No redirect: the
        # rename protocol carries its own crash-safety story, and a
        # mid-protocol failure recovers via the intent record.
        for index, (shard, fn) in enumerate(legs):
            self._shard_call(shard, fn,
                             op="read" if index == 0 else "write")

    # -- file-descriptor operations --------------------------------------------

    def open(self, path: str, create: bool = False) -> int:
        top, _ = split_top(path)
        if create:
            shard, inner = self._routed_mutate(
                top, lambda f: f.open(path, create))
        else:
            shard = self._cluster.route(top)
            inner = self._shard_call(shard, lambda f: f.open(path, create))
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
        # Descriptor writes are pinned to their shard (the open file
        # lives there): retry yes, redirect no.
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
        top, _ = split_top(path)
        shard, _result = self._routed_mutate(
            top, lambda f: f.write_file(path, data))
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
            return self._cluster.lockstep(
                self._cluster.shards[0], lambda f: f.stat("/"))
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
        shard = self._cluster.shards[sid]
        return bool(self._cluster.lockstep(shard, lambda f: f.exists(path)))

    def readdir(self, path: str) -> List[str]:
        cluster = self._cluster
        if path == "/":
            merged = set()
            for shard in cluster.shards:
                if not cluster.health.readable(shard.sid):
                    # A FAILED shard's subtrees were (or are being)
                    # evacuated; the survivors list them.
                    continue
                merged.update(cluster.lockstep(shard,
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
