"""The file-system skeleton shared by the FFS baseline and C-FFS.

The paper compares C-FFS to "the same file system without the
techniques", so everything that is not one of the techniques lives here
once: the volume lifecycle (mkfs geometry and journal carve, mount with
journal replay, superblock + replica store), the in-memory directory
index and the scan / grow / readdir paths over it, conventional block
placement, same-file flush clustering, and the file data paths (block
mapping via :mod:`repro.ffs.mapping`, whole-block writes that avoid
read-modify-write, batched miss reads, truncation).  What differs per
format is the on-disk codec, *inode placement* (where the inode lives
and how it is persisted), explicit grouping, and the ordering sequences
of the namespace operations — those are the hooks listed on
:class:`BlockFileSystem` (see also the table in docs/ARCHITECTURE.md §4).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.blockdev.device import BLOCK_SIZE, BlockDevice
from repro.cache.buffercache import BufferCache
from repro.cache.policy import MetadataPolicy
from repro.clock import CpuModel
from repro.errors import CorruptFileSystem, InvalidArgument
from repro.ffs import layout, mapping
from repro.ffs.alloc import GroupedAllocator
from repro.ffs.cylgroup import cg_base
from repro.ffs.dirindex import DirIndex
from repro.journal import (Journal, attach_pipeline, default_journal_blocks,
                           timed_replay)
from repro.vfs.interface import FileSystem
from repro.vfs.stat import FileKind, StatResult

Handle = Any

#: Ordering token returned by :meth:`BlockFileSystem._meta_write` under
#: soft updates (None under the other policies — the tokens thread
#: through either way so call sites are policy-agnostic).
OrderToken = Any


@dataclass
class VolumeConfig:
    """The tunables both formats share."""

    blocks_per_cg: int = 2048          # 8 MB cylinder groups
    small_file_spread: int = 6         # rotational spreading of new files
    policy: MetadataPolicy = MetadataPolicy.SYNC_METADATA
    cache_blocks: int = 4096           # 16 MB buffer cache


class BlockFileSystem(FileSystem):
    """The skeleton: volume lifecycle, directory index, conventional
    placement, flush clustering, data paths, per-policy metadata writes.

    A format supplies, besides the abstract methods below, the class
    attributes ``Config`` (its :class:`VolumeConfig`), ``MAGIC``,
    ``SB_LABEL`` (how error messages name its superblock),
    ``unpack_superblock`` and ``dirfmt`` — the directory-block codec
    module, of which the skeleton uses ``scan_block(block, blk)`` (the
    index entries and the free slots of one block) and ``init_block()``.
    """

    def __init__(self, device: BlockDevice, config: VolumeConfig) -> None:
        super().__init__(BufferCache(device, config.cache_blocks),
                         CpuModel(device.clock))
        self.device = device
        self.config = config
        self.policy = config.policy
        # Spread of a new file's first block under conventional placement.
        self.file_spread = config.small_file_spread
        self.sb: Dict[str, Any] = {}
        self.alloc: GroupedAllocator = None  # type: ignore[assignment]
        self._icache: Dict[int, Any] = {}
        self._dir_index: Dict[int, DirIndex] = {}
        self.cache.flush_companions = self._flush_companions

    # -- volume lifecycle -----------------------------------------------------------

    @classmethod
    def mkfs(cls, device: BlockDevice, config: Optional[VolumeConfig] = None):
        """Initialize a fresh file system and return it mounted."""
        config = config if config is not None else cls.Config()
        fs = cls(device, config)
        total = device.total_blocks
        # A journal policy carves its log region out of the post-cg tail
        # (just before the superblock replica); other policies keep the
        # historical layout byte-for-byte.
        jb = default_journal_blocks(total) if config.policy.is_journal else 0
        if jb:
            n_cgs = (total - 2 - jb) // config.blocks_per_cg
        else:
            n_cgs = (total - 1) // config.blocks_per_cg
        if n_cgs < 1:
            raise InvalidArgument("device too small for one cylinder group")
        journal_start = cg_base(n_cgs, config.blocks_per_cg) if jb else 0
        fs.sb = {
            "magic": cls.MAGIC,
            "version": 1,
            "total_blocks": total,
            "n_cgs": n_cgs,
            "blocks_per_cg": config.blocks_per_cg,
            **fs._superblock_fields(n_cgs),
            "journal_start": journal_start,
            "journal_blocks": jb,
        }
        fs._build_allocator()
        if jb:
            Journal.format(device, journal_start, jb)
        attach_pipeline(fs.cache, config.policy, journal_start, jb)
        fs._init_volume(n_cgs)
        fs._write_back_metadata()
        fs.cache.sync()
        return fs

    @classmethod
    def mount(cls, device: BlockDevice):
        """Mount an existing file system (reads and validates block 0).

        The geometry (and, for C-FFS, the technique flags) is derived
        from the superblock, so any valid image mounts."""
        probe = cls.unpack_superblock(device.peek_block(0))
        if probe["magic"] != cls.MAGIC:
            raise CorruptFileSystem(
                "bad %s magic 0x%x" % (cls.SB_LABEL, probe["magic"]))
        config = cls._config_from_superblock(probe)
        # Replay the journal (if the volume carries one) before the first
        # cache fill, so the cache only ever sees post-replay state.
        # This IS the fast remount path: a sequential log read plus one
        # batched home write, instead of a full fsck walk.
        if probe["journal_start"]:
            timed_replay(device, probe["journal_start"], probe["journal_blocks"])
        fs = cls(device, config)
        raw = bytes(fs.cache.get(0).image)
        sb = cls.unpack_superblock(raw)
        if sb["magic"] != cls.MAGIC:
            raise CorruptFileSystem(
                "bad %s magic 0x%x" % (cls.SB_LABEL, sb["magic"]))
        fs._check_geometry(sb)
        fs.sb = sb
        fs._build_allocator()
        attach_pipeline(fs.cache, config.policy,
                        sb["journal_start"], sb["journal_blocks"])
        fs._load_root(raw)
        return fs

    @classmethod
    def fresh(cls, config: Optional[VolumeConfig] = None):
        """Convenience factory: a fresh volume on a fresh simulated disk,
        the paper's experimental platform (the Seagate ST31200)."""
        # The factory assembles the whole stack (disk + device + fs);
        # the file system proper never touches repro.disk.
        # reprolint: disable=L001 -- factory-only import of the disk profile; the fs layer itself stays above the device seam
        from repro.disk.profiles import SEAGATE_ST31200

        return cls.mkfs(BlockDevice(SEAGATE_ST31200), config)

    @abc.abstractmethod
    def _superblock_fields(self, n_cgs: int) -> dict:
        """The format's own fields of a fresh superblock (mkfs adds the
        geometry and journal fields around them)."""

    @abc.abstractmethod
    def _init_volume(self, n_cgs: int) -> None:
        """mkfs: write the cylinder-group metadata and the root directory."""

    @classmethod
    @abc.abstractmethod
    def _config_from_superblock(cls, sb: dict) -> VolumeConfig:
        """The configuration an image was made with."""

    @abc.abstractmethod
    def _check_geometry(self, sb: dict) -> None:
        """mount: raise CorruptFileSystem if ``sb`` disagrees with the config."""

    @abc.abstractmethod
    def _build_allocator(self) -> None:
        """Build the allocation tables from ``self.sb``."""

    @abc.abstractmethod
    def _pack_superblock(self) -> bytes:
        """The current superblock image."""

    def _load_root(self, raw_sb: bytes) -> None:
        """mount: adopt a root inode stored in the superblock, if any."""

    def _store_superblock(self, sync_op: bool = False,
                          requires: Tuple = ()) -> OrderToken:
        buf = self.cache.get(0)
        buf.data[:] = self._pack_superblock()
        token = None
        if sync_op:
            token = self._meta_write(0, requires)
        else:
            self.cache.mark_dirty(0)
        rb = layout.replica_block(
            self.sb["total_blocks"], self.sb["n_cgs"], self.sb["blocks_per_cg"])
        if rb is not None:
            # Replica in the post-cg tail: lets fsck recover a smashed
            # superblock (and with it C-FFS's embedded root inode).
            # Delayed write, refreshed with every store.
            rbuf = self.cache.peek(rb)
            if rbuf is None:
                rbuf = self.cache.create(rb)
            rbuf.data[:] = buf.image
            self.cache.mark_dirty(rb)
        return token

    def _write_back_metadata(self) -> None:
        self._store_superblock()
        self.alloc.store_descriptors()

    def _drop_private_caches(self) -> None:
        self._icache.clear()
        self._dir_index.clear()
        self.alloc.drop_mirrors()

    def cg_base(self, cgi: int) -> int:
        return cg_base(cgi, self.sb["blocks_per_cg"])

    def _next_gen(self) -> int:
        gen = self.sb["next_gen"]
        self.sb["next_gen"] = (gen + 1) & 0xFFFF
        return gen or 1

    def _kind_of(self, handle: Handle) -> FileKind:
        return FileKind.DIRECTORY if handle.is_dir else FileKind.FILE

    def _stat_handle(self, handle: Handle, embedded: bool = False) -> StatResult:
        return StatResult(
            kind=self._kind_of(handle), size=handle.size, nlink=handle.nlink,
            nblocks=handle.nblocks, file_id=self._file_id(handle),
            embedded=embedded, grouped=self._data_grouped(handle))

    def free_blocks(self) -> int:
        return self.sb["free_blocks"]

    # -- per-policy metadata write ------------------------------------------------

    def _meta_write(self, bno: int, requires: Tuple = ()) -> OrderToken:
        """Write a metadata block per the configured integrity mode.

        ``requires`` names ordering tokens (earlier :meth:`_meta_write`
        / :meth:`_istore` results) that must reach the disk before this
        update.  Under soft updates the dependency is recorded and this
        update's own token returned; under the journal policy the block
        joins the open transaction (ordering holds because the whole
        transaction commits atomically); under synchronous metadata the
        write-through order *is* the call order.
        """
        if self.policy.is_sync:
            self.cache.write_sync(bno)
            return None
        self.cache.mark_dirty(bno)
        pipe = self.cache.write_pipeline
        if pipe is None:
            return None
        if self.policy.is_journal:
            pipe.note(bno)
            return None
        return pipe.record(bno, bytes(self.cache.peek(bno).image), requires)

    def _gate_freed_blocks(self, freed: List[int], token: OrderToken) -> None:
        """Forbid reuse writes into freed blocks until the write that
        cleared the pointers to them (``token``) is durable."""
        pipe = self.cache.write_pipeline
        if token is None or pipe is None or not self.policy.is_softdep:
            return
        for bno in freed:
            pipe.gate(bno, (token,))

    # -- placement / persistence ----------------------------------------------------

    def _alloc_data_block(self, handle: Handle, idx: int) -> int:
        """Allocate the disk block for file block ``idx`` of ``handle``
        (conventional placement unless the format overrides it)."""
        return self._alloc_conventional(handle, idx)

    def _alloc_conventional(self, handle: Handle, idx: int) -> int:
        """FFS placement: directories dense near the cylinder-group
        metadata (away from the file-data pattern), a file's first block
        rotationally spread, later blocks right after their predecessor."""
        alloc_block = self.alloc.alloc_block
        pref_cg = self._home_cg(handle)
        if handle.is_dir:
            return alloc_block(pref_cg, pref_offset=self.sb["data_start"])
        if idx == 0:
            return alloc_block(pref_cg, spread=self.file_spread)
        prev = mapping.bmap_lookup(self.cache, handle, idx - 1)
        if prev and self._may_follow(prev):
            prev_cg = self.alloc.cg_of_block(prev)
            return alloc_block(
                prev_cg, pref_offset=prev - self.cg_base(prev_cg) + 1)
        return alloc_block(pref_cg)

    def _may_follow(self, prev_bno: int) -> bool:
        """May a file's next block be placed right after ``prev_bno``?"""
        return True

    @abc.abstractmethod
    def _home_cg(self, handle: Handle) -> int:
        """The cylinder group ``handle``'s blocks should land in."""

    @abc.abstractmethod
    def _alloc_meta_block(self, handle: Handle) -> int:
        """Allocate an indirect block for ``handle``."""

    @abc.abstractmethod
    def _free_file_block(self, handle: Handle, bno: int) -> None:
        """Return a data/indirect block of ``handle`` to the allocator."""

    @abc.abstractmethod
    def _istore(self, handle: Handle, sync_op: bool = False,
                requires: Tuple = ()) -> OrderToken:
        """Persist the handle's inode.  ``sync_op`` marks updates that
        carry ordering requirements (create/delete); size/mtime updates
        pass False and are always delayed.  ``requires``/return value
        thread soft-updates ordering tokens (see :meth:`_meta_write`)."""

    @abc.abstractmethod
    def _metadata_block_of(self, handle: Handle) -> int:
        """The disk block holding the handle's on-disk inode (used by
        fsync to force it out even under delayed-metadata policy)."""

    def _fsync_metadata(self, handle: Handle) -> int:
        """Force the handle's inode to disk (fsync's metadata half).

        The default persists the inode's own block — classic POSIX
        fsync, which does *not* guarantee the directory entry.  C-FFS
        overrides this to walk the embedding chain, because its names
        and inodes are physically inseparable.  (Inode buffers are
        written through on every mutation, so flushing the block
        suffices; a clean inode costs nothing.)
        """
        bno = self._metadata_block_of(handle)
        nreq = self.cache.flush_blocks([bno])
        if self.cache.write_pipeline is not None:
            buf = self.cache.peek(bno)
            if buf is not None and buf.dirty:
                # The pipeline deferred the inode behind its ordering
                # dependencies; fsync must stay a durability barrier,
                # so sync the dependency graph to completion.
                nreq += self.cache.sync()
        return nreq

    def _fetch_data_blocks(self, handle: Handle, pairs: List[Tuple[int, int]]) -> None:
        """Ensure the given (file idx, disk block) pairs are cached.

        Subclasses may override to fetch more than asked (C-FFS reads
        whole groups).  The default batches the misses through the
        device so physically adjacent blocks coalesce.
        """
        fid = self._file_id(handle)
        missing = [(idx, bno) for idx, bno in pairs if self.cache.peek(bno) is None]
        if not missing:
            return
        if len(missing) == 1:
            idx, bno = missing[0]
            self.cache.get(bno, logical=(fid, idx))
            return
        # Prefetch clustering issues one batched request on purpose —
        # per-block cache.get() calls would serialize the seeks this
        # path exists to avoid.  The blocks are installed in the cache
        # immediately below, so the cache stays authoritative.
        data = self.cache.device.read_batch([bno for _, bno in missing])  # reprolint: disable=L001 -- clustered prefetch is a sanctioned boundary read; blocks install into the cache immediately below
        self.cache.install([(bno, data[bno], (fid, idx)) for idx, bno in missing])

    def _flush_companions(self, victim_bno: int) -> List[int]:
        """The cache's gather hook: cluster contiguous dirty blocks of
        the victim's file.  It runs inside an eviction, so it is pure —
        no device I/O, and only cache lookups that can neither insert
        nor evict."""
        buf = self.cache.peek(victim_bno)
        if buf is None or buf.logical is None:
            return [victim_bno]
        fid, idx = buf.logical
        companions = [victim_bno]
        for direction in (1, -1):
            step = 1
            while step <= 64:
                sibling = self.cache.get_logical((fid, idx + direction * step))
                if (
                    sibling is None
                    or not sibling.dirty
                    or sibling.bno != victim_bno + direction * step
                ):
                    break
                companions.append(sibling.bno)
                step += 1
        return companions

    # -- directories ------------------------------------------------------------------

    def _index_for(self, dirh: Handle) -> DirIndex:
        fid = self._file_id(dirh)
        index = self._dir_index.get(fid)
        if index is None:
            index = self._dir_index[fid] = DirIndex()
        return index

    def _scan_until(self, dirh: Handle, index: DirIndex,
                    name: Optional[str] = None) -> None:
        """Scan directory blocks into the index, stopping early once
        ``name`` is found; ``name=None`` scans to the end."""
        nblocks = dirh.size // BLOCK_SIZE
        fid = self._file_id(dirh)
        dirfmt = self.dirfmt
        entries_seen = 0
        while index.scanned_blocks < nblocks:
            blk = index.scanned_blocks
            # The scan only reads scalars out of the block, so it walks
            # the cached image without a snapshot.
            data = self.cache.get(self._dir_block_bno(dirh, blk),
                                  logical=(fid, blk)).image
            entries, slots = dirfmt.scan_block(data, blk)
            index.names.update(entries)
            entries_seen += len(entries)
            for slot, free in slots:
                index.set_free(slot, free)
            index.scanned_blocks += 1
            if name is not None and name in index.names:
                break
        if index.scanned_blocks >= nblocks:
            index.complete = True
        self.cpu.charge_dirent_scan(entries_seen)

    def _find_entry(self, dirh: Handle, name: str) -> Optional[tuple]:
        """The index entry for ``name``, scanning as far as needed."""
        index = self._index_for(dirh)
        entry = index.names.get(name)
        if entry is None and not index.complete:
            self._scan_until(dirh, index, name)
            entry = index.names.get(name)
        return entry

    def _complete_index(self, dirh: Handle) -> DirIndex:
        """The fully-scanned index (needed for absence checks)."""
        index = self._index_for(dirh)
        if not index.complete:
            self._scan_until(dirh, index)
        return index

    def _dir_block_bno(self, dirh: Handle, blk: int) -> int:
        bno = mapping.bmap_lookup(self.cache, dirh, blk)
        if bno == 0:
            raise CorruptFileSystem(
                "directory %d has a hole at block %d" % (self._file_id(dirh), blk)
            )
        return bno

    def _grow_directory(self, dirh: Handle) -> int:
        """Append an empty block to the directory; returns its index."""
        blk = dirh.size // BLOCK_SIZE
        fid = self._file_id(dirh)
        bno, created = mapping.bmap_ensure(
            self.cache, dirh, blk,
            alloc_data=lambda: self._alloc_data_block(dirh, blk),
            alloc_meta=lambda: self._alloc_meta_block(dirh),
        )
        image = self.dirfmt.init_block()
        self.cache.create(bno, logical=(fid, blk), image=image)
        # Ordering: the initialized directory block reaches disk before
        # the inode's grown size exposes it to the lookup path.
        init_token = self._meta_write(bno)
        if created:
            dirh.nblocks += 1
        dirh.size += BLOCK_SIZE
        self._istore(dirh, sync_op=True, requires=(init_token,))
        index = self._dir_index.get(fid)
        if index is not None:
            for slot, free in self.dirfmt.scan_block(image, blk)[1]:
                index.set_free(slot, free)
            if index.complete:
                index.scanned_blocks = blk + 1
        return blk

    def _readdir(self, dirh: Handle) -> List[str]:
        names: List[str] = []
        fid = self._file_id(dirh)
        for blk in range(dirh.size // BLOCK_SIZE):
            data = self.cache.get(self._dir_block_bno(dirh, blk),
                                  logical=(fid, blk)).image
            names.extend(name for name, _ in self.dirfmt.scan_block(data, blk)[0])
        self.cpu.charge_dirent_scan(len(names))
        return names

    # -- data paths -----------------------------------------------------------------

    def _read(self, handle: Handle, offset: int, size: int) -> bytes:
        if offset < 0 or size < 0:
            raise InvalidArgument("negative read offset or size")
        file_size = handle.size
        if offset >= file_size or size == 0:
            return b""
        size = min(size, file_size - offset)
        first = offset // BLOCK_SIZE
        last = (offset + size - 1) // BLOCK_SIZE

        located: List[Tuple[int, int]] = []
        holes = set()
        for idx in range(first, last + 1):
            bno = mapping.bmap_lookup(self.cache, handle, idx)
            if bno == 0:
                holes.add(idx)
            else:
                located.append((idx, bno))
        self._fetch_data_blocks(handle, located)

        fid = self._file_id(handle)
        by_idx = dict(located)
        chunks: List[bytes] = []
        for idx in range(first, last + 1):
            lo = offset - idx * BLOCK_SIZE if idx == first else 0
            hi = offset + size - idx * BLOCK_SIZE if idx == last else BLOCK_SIZE
            if lo < 0:
                lo = 0
            if idx in holes:
                chunks.append(bytes(hi - lo))
            else:
                # A whole block that nobody is editing is returned as
                # the shared image itself; otherwise one copy per chunk
                # (a memoryview keeps partial slices from snapshotting
                # the whole block first).
                cached = self.cache.get(by_idx[idx], logical=(fid, idx)).image
                if lo == 0 and hi == BLOCK_SIZE:
                    chunks.append(bytes(cached))
                else:
                    chunks.append(bytes(memoryview(cached)[lo:hi]))
        return b"".join(chunks)

    def _write(self, handle: Handle, offset: int, data: bytes,
               truncating: bool = False) -> int:
        if offset < 0:
            raise InvalidArgument("negative write offset")
        if not data:
            return 0
        fid = self._file_id(handle)
        end = offset + len(data)
        # Where the bytes that survive this write end: the old EOF, or
        # the write's end when the caller truncates there next.
        size = end if truncating else handle.size

        # Pass 1: what the write covers of each block, and a fetch of
        # the existing partially-covered ones (group-aware, batched)
        # before any allocation happens — allocation may migrate a
        # growing file's blocks, so block numbers are only final in
        # pass 2.
        covers = []
        rmw = []
        for idx in range(offset // BLOCK_SIZE, (end - 1) // BLOCK_SIZE + 1):
            block_lo = idx * BLOCK_SIZE
            lo = offset - block_lo if offset > block_lo else 0
            hi = end - block_lo if end < block_lo + BLOCK_SIZE else BLOCK_SIZE
            # No read-modify-write when the write covers the whole block
            # or everything from its start through (at least) EOF --
            # bytes past EOF are undefined and read back as zeros anyway.
            full = lo == 0 and (hi == BLOCK_SIZE or block_lo + hi >= size)
            covers.append((idx, lo, hi, full))
            if not full:
                bno = mapping.bmap_lookup(self.cache, handle, idx)
                if bno:
                    rmw.append((idx, bno))
        if rmw:
            self._fetch_data_blocks(handle, rmw)

        # Pass 2: allocate and write block by block.
        created = 0
        pos = 0
        for idx, lo, hi, full in covers:
            bno, was_created = mapping.bmap_ensure(
                self.cache, handle, idx,
                alloc_data=lambda i=idx: self._alloc_data_block(handle, i),
                alloc_meta=lambda: self._alloc_meta_block(handle),
            )
            if was_created:
                created += 1
            piece = data[pos:pos + (hi - lo)]
            if full:
                # Built once and handed over as the image: the slice
                # itself, zero-padded when the write stops short at EOF.
                if hi < BLOCK_SIZE:
                    piece = bytes(piece).ljust(BLOCK_SIZE, b"\0")
                self.cache.create(bno, logical=(fid, idx), image=piece)
            elif was_created:
                self.cache.create(bno, logical=(fid, idx)).data[lo:hi] = piece
            else:
                self.cache.get(bno, logical=(fid, idx)).data[lo:hi] = piece
            self.cache.mark_dirty(bno)
            pos += hi - lo

        handle.nblocks += created
        handle.size = max(handle.size, end)
        handle.mtime = self.cache.device.clock.now
        self._istore(handle, sync_op=False)
        return len(data)

    def _truncate(self, handle: Handle, size: int) -> None:
        if size < 0:
            raise InvalidArgument("negative truncate size")
        if size >= handle.size:
            handle.size = size
            self._istore(handle, sync_op=False)
            return
        freed_bnos = self._free_blocks_from(
            handle, (size + BLOCK_SIZE - 1) // BLOCK_SIZE)
        handle.size = size
        # Zero the now-exposed tail of a kept partial block so a later
        # extension reads zeros, as POSIX requires.
        if size % BLOCK_SIZE:
            bno = mapping.bmap_lookup(self.cache, handle, size // BLOCK_SIZE)
            if bno:
                buf = self.cache.get(
                    bno, logical=(self._file_id(handle), size // BLOCK_SIZE))
                buf.data[size % BLOCK_SIZE:] = bytes(BLOCK_SIZE - size % BLOCK_SIZE)
                self.cache.mark_dirty(bno)
        token = self._istore(handle, sync_op=True)
        self._gate_freed_blocks(freed_bnos, token)

    def _release_all_blocks(self, handle: Handle) -> List[int]:
        """Free every block of a dying file; returns the freed block
        numbers (data and indirect)."""
        freed_bnos = self._free_blocks_from(handle, 0)
        handle.size = 0
        return freed_bnos

    def _free_blocks_from(self, handle: Handle, keep: int) -> List[int]:
        """Free file blocks ``keep`` onward (and the indirect blocks
        that only mapped them); returns the freed block numbers."""
        fid = self._file_id(handle)
        # Drop logical identities of everything being freed.
        for idx, _ in list(mapping.enumerate_blocks(self.cache, handle)):
            if idx >= keep:
                self.cache.drop_logical((fid, idx))
        freed_bnos: List[int] = []

        def free_fn(bno: int) -> None:
            freed_bnos.append(bno)
            self._free_file_block(handle, bno)

        freed = mapping.truncate_blocks(self.cache, handle, keep, free_fn=free_fn)
        handle.nblocks -= freed
        return freed_bnos
