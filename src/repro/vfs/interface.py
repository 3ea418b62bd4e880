"""The file system interface shared by FFS and C-FFS.

The base class owns everything that is identical across the paper's
four configurations — path walking, descriptor bookkeeping, the public
POSIX-flavoured API and its CPU cost charging — and delegates the
per-format work to a small set of internal inode operations.

Path walking remembers directories: a parent path whose walk from the
root made no buffer-cache ``get`` (every lookup on it answered from the
in-memory name index and inode cache) maps to its directory handle, and
the next path under it goes straight to the final lookup.  A walk that
read any block through the cache is never remembered, so every cache
call, disk request and simulated-clock charge stays what the full walk
would have made.  rmdir, rename and drop_caches forget the whole memo;
nothing else replaces a directory's handle.

The whole-file helpers (``write_file``, ``read_file``) and ``exists``
take no descriptor and build no ``StatResult``: they resolve the file
once, through the helper ``open`` uses, and read or write that handle
through the bodies ``pread`` and ``pwrite`` share.  They charge the
same syscalls and copy, and make the same cache calls in the same
order, as the open / pread or pwrite / close (or stat) sequence they
stand for, and open that sequence's ``vfs`` spans when traced.  Traced
or not, they use no descriptor number.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, List, Optional, Tuple

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
from repro.vfs.path import MAX_NAME_LEN, basename_of
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
        # Parent-path string -> directory handle (see _parent).
        self._dirs: Dict[str, Handle] = {}

    # ------------------------------------------------------------------ public

    @obs.traced("vfs", "create", lambda self, path: {"path": path})
    def create(self, path: str) -> None:
        """Create an empty regular file."""
        self.cpu.charge_syscall()
        dirh, name = self._parent(path)
        self._create_file(dirh, name)

    @obs.traced("vfs", "mkdir", lambda self, path: {"path": path})
    def mkdir(self, path: str) -> None:
        """Create an empty directory."""
        self.cpu.charge_syscall()
        dirh, name = self._parent(path)
        self._make_directory(dirh, name)

    @obs.traced("vfs", "unlink", lambda self, path: {"path": path})
    def unlink(self, path: str) -> None:
        """Remove a file name (and the file, when its last link drops)."""
        self.cpu.charge_syscall()
        dirh, name = self._parent(path)
        self._unlink(dirh, name)

    @obs.traced("vfs", "rmdir", lambda self, path: {"path": path})
    def rmdir(self, path: str) -> None:
        """Remove an empty directory."""
        self.cpu.charge_syscall()
        dirh, name = self._parent(path)
        self._dirs.clear()
        self._rmdir(dirh, name)

    @obs.traced("vfs", "link",
                lambda self, existing, new: {"path": existing, "new": new})
    def link(self, existing: str, new: str) -> None:
        """Create a hard link (C-FFS externalizes the inode here)."""
        self.cpu.charge_syscall()
        handle = self._resolve(existing)
        if self._kind_of(handle) is FileKind.DIRECTORY:
            raise IsADirectory("cannot hard-link a directory: %r" % existing)
        dirh, name = self._parent(new)
        self._link(handle, dirh, name)

    @obs.traced("vfs", "rename", lambda self, old, new: {"path": old, "new": new})
    def rename(self, old: str, new: str) -> None:
        """Atomically move a name (files and directories)."""
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
        self._dirs.clear()
        self._rename(src_dir, old_name, dst_dir, new_name)

    def open(self, path: str, create: bool = False) -> int:
        """Open a regular file, optionally creating it; returns an fd."""
        return self.fds.allocate(OpenFile(self._open_handle(path, create), path))

    @obs.traced("vfs", "open",
                lambda self, path, create: {"path": path, "create": create})
    def _open_handle(self, path: str, create: bool) -> Handle:
        """What ``open`` resolves, its syscall charged: the regular file
        ``path`` names, created first when ``create`` asks for it.
        ``open`` and the whole-file helpers share it."""
        self.cpu.charge_syscall()
        dirh, name = self._parent(path)
        handle = self._lookup(dirh, name)
        if handle is None:
            if not create:
                raise self._not_found(dirh, name)
            handle = self._create_file(dirh, name)
        if handle.is_dir:
            raise IsADirectory("cannot open a directory for file I/O: %r" % path)
        return handle

    def close(self, fd: int) -> None:
        self.cpu.charge_syscall()
        self.fds.release(fd)

    @obs.traced("vfs", "read", lambda self, fd, size: {"size": size})
    def read(self, fd: int, size: int) -> bytes:
        """Read from the descriptor's current offset."""
        self.cpu.charge_syscall()
        record = self.fds.lookup(fd)
        data = self._read(record.handle, record.offset, size)
        record.offset += len(data)
        self.cpu.charge_copy(len(data))
        obs.incr("bytes", len(data))
        return data

    @obs.traced("vfs", "write", lambda self, fd, data: {"size": len(data)})
    def write(self, fd: int, data: bytes) -> int:
        """Write at the descriptor's current offset."""
        self.cpu.charge_syscall()
        record = self.fds.lookup(fd)
        written = self._write(record.handle, record.offset, data)
        record.offset += written
        self.cpu.charge_copy(written)
        obs.incr("bytes", written)
        return written

    @obs.traced("vfs", "pread",
                lambda self, fd, offset, size: {"offset": offset, "size": size})
    def pread(self, fd: int, offset: int, size: int) -> bytes:
        self.cpu.charge_syscall()
        return self._pread_handle(self.fds.lookup(fd).handle, offset, size)

    def _pread_handle(self, handle: Handle, offset: int, size: int) -> bytes:
        """``pread`` on a resolved file, its syscall already charged."""
        data = self._read(handle, offset, size)
        self.cpu.charge_copy(len(data))
        obs.incr("bytes", len(data))
        return data

    @obs.traced("vfs", "pwrite", lambda self, fd, offset, data: {
        "offset": offset, "size": len(data)})
    def pwrite(self, fd: int, offset: int, data: bytes) -> int:
        self.cpu.charge_syscall()
        return self._pwrite_handle(self.fds.lookup(fd).handle, offset, data)

    def _pwrite_handle(self, handle: Handle, offset: int, data: bytes,
                       truncating: bool = False) -> int:
        """``pwrite`` on a resolved file, its syscall already charged
        (``truncating``: see :meth:`_write`)."""
        written = self._write(handle, offset, data, truncating)
        self.cpu.charge_copy(written)
        obs.incr("bytes", written)
        return written

    @obs.traced("vfs", "truncate",
                lambda self, path, size: {"path": path, "size": size})
    def truncate(self, path: str, size: int = 0) -> None:
        self.cpu.charge_syscall()
        handle = self._resolve(path)
        if self._kind_of(handle) is FileKind.DIRECTORY:
            raise IsADirectory("cannot truncate a directory: %r" % path)
        self._truncate(handle, size)

    @obs.traced("vfs", "stat", lambda self, path: {"path": path})
    def stat(self, path: str) -> StatResult:
        self.cpu.charge_syscall()
        return self._stat_handle(self._resolve(path))

    def exists(self, path: str) -> bool:
        """Whether ``path`` names anything: ``stat`` without its result.
        A path through a regular file names nothing."""
        try:
            self._stat_touch(path)
        except (FileNotFound, NotADirectory):
            return False
        return True

    @obs.traced("vfs", "stat", lambda self, path: {"path": path})
    def _stat_touch(self, path: str) -> None:
        """What ``stat`` charges and reads, its result never built."""
        self.cpu.charge_syscall()
        self._data_grouped(self._resolve(path))

    @obs.traced("vfs", "readdir", lambda self, path: {"path": path})
    def readdir(self, path: str) -> List[str]:
        """Names in a directory (no '.' / '..' entries)."""
        self.cpu.charge_syscall()
        handle = self._resolve(path)
        if self._kind_of(handle) is not FileKind.DIRECTORY:
            raise NotADirectory("%r is not a directory" % path)
        return self._readdir(handle)

    # Whole-file helpers used heavily by workloads; they take no
    # descriptor (see the module docstring).  The last charge stands
    # for the close.

    def write_file(self, path: str, data: bytes) -> None:
        """Create or replace ``path`` with exactly ``data``."""
        handle = self._open_handle(path, True)
        shorter = handle.size > len(data)
        try:
            if data:
                self._pwrite_whole(handle, data, shorter)
            if shorter:
                self._truncate(handle, len(data))
        finally:
            self.cpu.charge_syscall()

    @obs.traced("vfs", "pwrite", lambda self, handle, data, truncating: {
        "offset": 0, "size": len(data)})
    def _pwrite_whole(self, handle: Handle, data: bytes,
                      truncating: bool) -> None:
        """``write_file``'s ``pwrite`` of the whole file."""
        self.cpu.charge_syscall()
        self._pwrite_handle(handle, 0, data, truncating)

    def read_file(self, path: str) -> bytes:
        """The whole content of the regular file ``path``."""
        handle = self._open_handle(path, False)
        try:
            # stat's cache touch, which sizing the read once made.
            self._data_grouped(handle)
            return self._pread_whole(handle, handle.size)
        finally:
            self.cpu.charge_syscall()

    @obs.traced("vfs", "pread",
                lambda self, handle, size: {"offset": 0, "size": size})
    def _pread_whole(self, handle: Handle, size: int) -> bytes:
        """``read_file``'s ``pread`` of the whole file."""
        self.cpu.charge_syscall()
        return self._pread_handle(handle, 0, size)

    @obs.traced("vfs", "sync")
    def sync(self) -> int:
        """Flush all dirty state to disk; returns disk requests issued."""
        self.cpu.charge_syscall()
        self._write_back_metadata()
        nreq = self.cache.sync()
        obs.incr("requests", nreq)
        return nreq

    @obs.traced("vfs", "fsync")
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
        obs.incr("requests", nreq)
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
        self._dirs.clear()
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

    def _parent(self, path: str) -> Tuple[Handle, str]:
        """The directory that holds ``path``'s final name, and the name.

        Answered from ``_dirs`` unless the final name needs split_path's
        closer checks (empty, '.', '..', non-ASCII or too long); a walk
        is remembered only if it made no cache call."""
        head, slash, tail = path.rpartition("/")
        dirh = self._dirs.get(head) if slash else None
        if (dirh is not None and tail and tail != "." and tail != ".."
                and tail.isascii() and len(tail) <= MAX_NAME_LEN):
            return dirh, tail
        parents, name = basename_of(path)
        cache = self.cache
        calls = cache.hits + cache.misses
        dirh = self._walk(parents)
        if name == tail and cache.hits + cache.misses == calls:
            self._dirs[head] = dirh
        return dirh, name

    def _resolve(self, path: str) -> Handle:
        if path and not path.strip("/"):
            return self._root_handle()
        dirh, name = self._parent(path)
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
    def _write(self, handle: Handle, offset: int, data: bytes,
               truncating: bool = False) -> int:
        """Write ``data`` at ``offset``; ``truncating`` says the caller
        cuts the file to the write's end next, so no byte past it
        survives and a last, partly covered block needs no read."""

    @abc.abstractmethod
    def _truncate(self, handle: Handle, size: int) -> None: ...

    @abc.abstractmethod
    def _stat_handle(self, handle: Handle) -> StatResult:
        """``stat``'s result; calls :meth:`_data_grouped` once."""

    def _data_grouped(self, handle: Handle) -> bool:
        """Whether the file's data sits in an explicit group.  The
        formats without groups answer False from memory; C-FFS reads
        the group descriptor through the cache, and ``read_file`` and
        ``exists`` call this for that read alone, so that they touch
        the cache exactly as ``stat`` does."""
        return False

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
