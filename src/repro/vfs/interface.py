"""The file system interface shared by FFS and C-FFS.

The base class owns everything that is identical across the paper's
four configurations — path walking, descriptor bookkeeping, the public
POSIX-flavoured API and its CPU cost charging — and delegates the
per-format work to a small set of internal inode operations.
"""

from __future__ import annotations

import abc
from typing import Any, List, Optional

from repro import obs
from repro.clock import CpuModel
from repro.cache.buffercache import BufferCache
from repro.errors import (
    FileNotFound,
    InvalidArgument,
    IsADirectory,
    NotADirectory,
)
from repro.vfs.fdtable import FdTable, OpenFile
from repro.vfs.path import basename_of, split_path
from repro.vfs.stat import FileKind, StatResult

Handle = Any  # per-implementation in-memory inode object, with ``is_dir``


class FileSystem(abc.ABC):
    """Abstract file system over a shared buffer cache.

    Subclasses implement the ``_``-prefixed inode operations; everything
    public here is the API used by workloads, examples and benchmarks.
    """

    #: human-readable configuration name ("ffs", "cffs", ...)
    name: str = "abstract"

    def __init__(self, cache: BufferCache, cpu: CpuModel) -> None:
        self.cache = cache
        self.cpu = cpu
        self.fds = FdTable()

    # ------------------------------------------------------------------ public

    def create(self, path: str) -> None:
        """Create an empty regular file."""
        if obs.enabled():
            with obs.span("vfs", "create", path=path):
                self._create(path)
            return
        self._create(path)

    def _create(self, path: str) -> None:
        self.cpu.charge_syscall()
        parents, name = basename_of(path)
        dirh = self._walk(parents)
        self._create_file(dirh, name)

    def mkdir(self, path: str) -> None:
        """Create an empty directory."""
        with obs.span("vfs", "mkdir", path=path):
            self.cpu.charge_syscall()
            parents, name = basename_of(path)
            dirh = self._walk(parents)
            self._make_directory(dirh, name)

    def unlink(self, path: str) -> None:
        """Remove a file name (and the file, when its last link drops)."""
        if obs.enabled():
            with obs.span("vfs", "unlink", path=path):
                self._unlink_path(path)
            return
        self._unlink_path(path)

    def _unlink_path(self, path: str) -> None:
        self.cpu.charge_syscall()
        parents, name = basename_of(path)
        dirh = self._walk(parents)
        self._unlink(dirh, name)

    def rmdir(self, path: str) -> None:
        """Remove an empty directory."""
        with obs.span("vfs", "rmdir", path=path):
            self.cpu.charge_syscall()
            parents, name = basename_of(path)
            dirh = self._walk(parents)
            self._rmdir(dirh, name)

    def link(self, existing: str, new: str) -> None:
        """Create a hard link (C-FFS externalizes the inode here)."""
        with obs.span("vfs", "link", path=existing, new=new):
            self.cpu.charge_syscall()
            handle = self._resolve(existing)
            if self._kind_of(handle) is FileKind.DIRECTORY:
                raise IsADirectory("cannot hard-link a directory: %r" % existing)
            parents, name = basename_of(new)
            dirh = self._walk(parents)
            self._link(handle, dirh, name)

    def rename(self, old: str, new: str) -> None:
        """Atomically move a name (files and directories)."""
        with obs.span("vfs", "rename", path=old, new=new):
            self.cpu.charge_syscall()
            old_parents, old_name = basename_of(old)
            new_parents, new_name = basename_of(new)
            # A directory must never move into its own subtree (a cycle
            # would orphan everything under it).
            old_prefix = old_parents + [old_name]
            if new_parents[:len(old_prefix)] == old_prefix:
                raise InvalidArgument(
                    "cannot move %r into its own subtree %r" % (old, new)
                )
            src_dir = self._walk(old_parents)
            dst_dir = self._walk(new_parents)
            self._rename(src_dir, old_name, dst_dir, new_name)

    def open(self, path: str, create: bool = False) -> int:
        """Open a regular file, optionally creating it; returns an fd."""
        if obs.enabled():
            with obs.span("vfs", "open", path=path, create=create):
                return self._open(path, create)
        return self._open(path, create)

    def _open(self, path: str, create: bool) -> int:
        self.cpu.charge_syscall()
        parents, name = basename_of(path)
        dirh = self._walk(parents)
        handle = self._lookup(dirh, name)
        if handle is None:
            if not create:
                raise self._not_found(dirh, name)
            handle = self._create_file(dirh, name)
        if handle.is_dir:
            raise IsADirectory("cannot open a directory for file I/O: %r" % path)
        return self.fds.allocate(OpenFile(handle, path))

    def close(self, fd: int) -> None:
        self.cpu.charge_syscall()
        self.fds.release(fd)

    def read(self, fd: int, size: int) -> bytes:
        """Read from the descriptor's current offset."""
        if obs.enabled():
            with obs.span("vfs", "read", size=size) as sp:
                return self._read_fd(fd, size, sp)
        return self._read_fd(fd, size, obs.NULL_SPAN)

    def _read_fd(self, fd: int, size: int, sp) -> bytes:
        self.cpu.charge_syscall()
        record = self.fds.lookup(fd)
        data = self._read(record.handle, record.offset, size)
        record.offset += len(data)
        self.cpu.charge_copy(len(data))
        sp.incr("bytes", len(data))
        return data

    def write(self, fd: int, data: bytes) -> int:
        """Write at the descriptor's current offset."""
        if obs.enabled():
            with obs.span("vfs", "write", size=len(data)) as sp:
                return self._write_fd(fd, data, sp)
        return self._write_fd(fd, data, obs.NULL_SPAN)

    def _write_fd(self, fd: int, data: bytes, sp) -> int:
        self.cpu.charge_syscall()
        record = self.fds.lookup(fd)
        written = self._write(record.handle, record.offset, data)
        record.offset += written
        self.cpu.charge_copy(written)
        sp.incr("bytes", written)
        return written

    def pread(self, fd: int, offset: int, size: int) -> bytes:
        if obs.enabled():
            with obs.span("vfs", "pread", offset=offset, size=size) as sp:
                return self._pread_fd(fd, offset, size, sp)
        return self._pread_fd(fd, offset, size, obs.NULL_SPAN)

    def _pread_fd(self, fd: int, offset: int, size: int, sp) -> bytes:
        self.cpu.charge_syscall()
        record = self.fds.lookup(fd)
        data = self._read(record.handle, offset, size)
        self.cpu.charge_copy(len(data))
        sp.incr("bytes", len(data))
        return data

    def pwrite(self, fd: int, offset: int, data: bytes) -> int:
        if obs.enabled():
            with obs.span("vfs", "pwrite", offset=offset,
                          size=len(data)) as sp:
                return self._pwrite_fd(fd, offset, data, sp)
        return self._pwrite_fd(fd, offset, data, obs.NULL_SPAN)

    def _pwrite_fd(self, fd: int, offset: int, data: bytes, sp) -> int:
        self.cpu.charge_syscall()
        record = self.fds.lookup(fd)
        written = self._write(record.handle, offset, data)
        self.cpu.charge_copy(written)
        sp.incr("bytes", written)
        return written

    def truncate(self, path: str, size: int = 0) -> None:
        with obs.span("vfs", "truncate", path=path, size=size):
            self.cpu.charge_syscall()
            handle = self._resolve(path)
            if self._kind_of(handle) is FileKind.DIRECTORY:
                raise IsADirectory("cannot truncate a directory: %r" % path)
            self._truncate(handle, size)

    def stat(self, path: str) -> StatResult:
        if obs.enabled():
            with obs.span("vfs", "stat", path=path):
                self.cpu.charge_syscall()
                return self._stat_handle(self._resolve(path))
        self.cpu.charge_syscall()
        return self._stat_handle(self._resolve(path))

    def exists(self, path: str) -> bool:
        try:
            self.stat(path)
            return True
        except FileNotFound:
            return False

    def readdir(self, path: str) -> List[str]:
        """Names in a directory (no '.' / '..' entries)."""
        with obs.span("vfs", "readdir", path=path):
            self.cpu.charge_syscall()
            handle = self._resolve(path)
            if self._kind_of(handle) is not FileKind.DIRECTORY:
                raise NotADirectory("%r is not a directory" % path)
            return self._readdir(handle)

    # Whole-file helpers used heavily by workloads.

    def write_file(self, path: str, data: bytes) -> None:
        """Create or replace ``path`` with exactly ``data``."""
        fd = self.open(path, create=True)
        try:
            handle = self.fds.lookup(fd).handle
            if data:
                self.pwrite(fd, 0, data)
            if handle.size > len(data):
                self._truncate(handle, len(data))
        finally:
            self.close(fd)

    def read_file(self, path: str) -> bytes:
        fd = self.open(path)
        try:
            size = self._stat_handle(self.fds.lookup(fd).handle).size
            return self.pread(fd, 0, size)
        finally:
            self.close(fd)

    def sync(self) -> int:
        """Flush all dirty state to disk; returns disk requests issued."""
        with obs.span("vfs", "sync") as sp:
            self.cpu.charge_syscall()
            self._write_back_metadata()
            nreq = self.cache.sync()
            sp.incr("requests", nreq)
            return nreq

    def fsync(self, fd: int) -> int:
        """Flush one open file's dirty data and metadata to disk.

        Returns the number of disk requests issued.  Dirty blocks of
        the file are gathered into batched writes (groups and clusters
        coalesce exactly as they would on eviction).
        """
        # Deliberate wart: both formats share ffs.mapping as the
        # block-walker; the import is local so vfs stays format-free
        # at module load.
        # reprolint: disable=L001 -- shared block-walker import, local so vfs stays format-free at module load
        from repro.ffs import mapping

        with obs.span("vfs", "fsync") as sp:
            self.cpu.charge_syscall()
            handle = self.fds.lookup(fd).handle
            nreq = self.cache.flush_blocks(
                bno for _idx, bno in mapping.enumerate_blocks(self.cache, handle)
            )
            # Persist the inode (and, per-format, whatever metadata chain
            # it depends on) even under delayed-metadata policy.
            nreq += self._fsync_metadata(handle)  # type: ignore[attr-defined]
            # fsync is the one place the barrier must reach the platter:
            # the cache has already issued its writes, and only the device
            # can drain its write-behind buffer.
            self.cache.device.flush()  # reprolint: disable=L001 -- fsync barrier must reach the platter; only the device can drain write-behind
            sp.incr("requests", nreq)
            return nreq

    def evict_file_data(self, path: str) -> int:
        """Drop a file's cached data blocks (fadvise(DONTNEED)-style).

        Dirty blocks are flushed first, as one batched write; metadata
        (directories, inodes) stays cached.  Returns the number of
        blocks dropped.  Workloads use this to model data-cache
        turnover without losing the hot name/metadata state a busy
        system retains.
        """
        # reprolint: disable=L001 -- same shared block-walker wart as fsync.
        from repro.ffs import mapping

        self.cpu.charge_syscall()
        handle = self._resolve(path)
        fid = self._file_id(handle)
        blocks = list(mapping.enumerate_blocks(self.cache, handle))
        # One coalesced write (and one ``committed``) for the whole file.
        self.cache.flush_blocks(bno for _idx, bno in blocks)
        dropped = 0
        for idx, bno in blocks:
            buf = self.cache.peek(bno)
            if buf is None or buf.dirty:
                continue  # dirty still: the write pipeline deferred it
            self.cache.drop_logical((fid, idx))
            self.cache.forget(bno)
            dropped += 1
        return dropped

    def drop_caches(self) -> None:
        """Flush, then forget all cached state (cold-cache phase barrier)."""
        self.sync()
        self._drop_private_caches()
        self.cache.invalidate_all()

    # ---------------------------------------------------------------- internals

    def _walk(self, components: List[str]) -> Handle:
        """Resolve directory components from the root."""
        handle = self._root_handle()
        lookup = self._lookup
        for name in components:
            if not handle.is_dir:
                raise NotADirectory("path component %r is not a directory" % name)
            child = lookup(handle, name)
            if child is None:
                raise self._not_found(handle, name)
            handle = child
        if not handle.is_dir:
            raise NotADirectory("final path component is not a directory")
        return handle

    def _resolve(self, path: str) -> Handle:
        parts = split_path(path)
        if not parts:
            return self._root_handle()
        name = parts.pop()
        dirh = self._walk(parts)
        handle = self._lookup(dirh, name)
        if handle is None:
            raise self._not_found(dirh, name)
        return handle

    def _not_found(self, dirh: Handle, name: str) -> FileNotFound:
        return FileNotFound(
            "no entry %r in directory %d" % (name, self._file_id(dirh)))

    # -- abstract per-format operations --------------------------------------

    @abc.abstractmethod
    def _root_handle(self) -> Handle: ...

    @abc.abstractmethod
    def _kind_of(self, handle: Handle) -> FileKind: ...

    @abc.abstractmethod
    def _file_id(self, handle: Handle) -> int:
        """Stable identity used for the cache's logical index."""

    @abc.abstractmethod
    def _lookup(self, dirh: Handle, name: str) -> Optional[Handle]:
        """The node ``name`` names in directory ``dirh``; None if the
        directory has no such entry."""

    @abc.abstractmethod
    def _create_file(self, dirh: Handle, name: str) -> Handle: ...

    @abc.abstractmethod
    def _make_directory(self, dirh: Handle, name: str) -> Handle: ...

    @abc.abstractmethod
    def _unlink(self, dirh: Handle, name: str) -> None: ...

    @abc.abstractmethod
    def _rmdir(self, dirh: Handle, name: str) -> None: ...

    @abc.abstractmethod
    def _link(self, handle: Handle, dirh: Handle, name: str) -> None: ...

    @abc.abstractmethod
    def _rename(self, src_dir: Handle, old: str, dst_dir: Handle, new: str) -> None: ...

    @abc.abstractmethod
    def _read(self, handle: Handle, offset: int, size: int) -> bytes: ...

    @abc.abstractmethod
    def _write(self, handle: Handle, offset: int, data: bytes) -> int: ...

    @abc.abstractmethod
    def _truncate(self, handle: Handle, size: int) -> None: ...

    @abc.abstractmethod
    def _stat_handle(self, handle: Handle) -> StatResult: ...

    @abc.abstractmethod
    def _readdir(self, dirh: Handle) -> List[str]: ...

    @abc.abstractmethod
    def _write_back_metadata(self) -> None:
        """Push in-memory metadata mirrors into cache buffers pre-sync."""

    @abc.abstractmethod
    def _drop_private_caches(self) -> None:
        """Forget in-memory metadata mirrors (icache, name indexes)."""

    # -- introspection used by experiments ------------------------------------

    def free_blocks(self) -> int:
        raise NotImplementedError

    def total_data_blocks(self) -> int:
        raise NotImplementedError
