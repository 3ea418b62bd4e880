"""Dual-indexed LRU buffer cache with pluggable flush gathering.

The cache holds whole 4 KB blocks.  Reads go through the block device
(timed); writes are either synchronous (written through immediately) or
delayed (marked dirty, flushed on eviction or sync).

When a dirty buffer must be written — eviction or sync — the owning
file system may expand the write into a *gather set* via the
``flush_companions`` hook: FFS uses it to cluster contiguous dirty
blocks of one file [McVoy91]; C-FFS uses it to write all dirty blocks
of an explicit group as a unit.  The gathered set is flushed through
:meth:`BlockDevice.write_batch`, which applies C-LOOK ordering and
coalesces adjacent blocks into single scatter/gather requests.

A second, orthogonal seam is the *write pipeline*: an object installed
as ``cache.write_pipeline`` that gets a veto and a rewrite over every
dirty block leaving the cache.  This is how the crash-consistency
mechanisms in ``repro.journal`` plug in without the cache knowing
about them — the soft-updates tracker substitutes rolled-back images
for blocks whose ordering dependencies are not yet on disk, and the
write-ahead journal forces a log commit before journaled blocks go
home.  The duck-typed contract:

- ``prepare(bno, data)`` → ``None`` (defer this block: do not write
  it, leave it dirty) or ``(image, fully_clean)`` (write ``image``;
  when ``fully_clean`` is false the buffer stays dirty — it was
  written rolled back and must be revisited);
- ``committed(bnos)`` — the prepared images of ``bnos`` have been
  handed to the device;
- ``ready(bno)`` → may this buffer be evicted (written in full) right
  now?  The pipeline may perform I/O of its own (a log commit) to
  answer yes;
- ``pre_flush()`` / ``post_flush()`` — bracket a full :meth:`flush`
  (transaction commit before, checkpoint after);
- ``forgotten(bno)`` — the buffer was dropped without being written
  (its block was freed); any tracked state for it must be released.

:meth:`sync` repeats :meth:`flush` until no dirty buffers remain,
because a pipeline that defers or rolls back blocks needs multiple
passes to converge (each pass makes strictly more updates durable).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Iterable, Optional, Set, Tuple

from repro import obs
from repro.blockdev.device import ZERO_BLOCK, BlockDevice
from repro.cache.buffer import Buffer, LogicalId
from repro.errors import ChecksumError, InvalidArgument

# Given a dirty victim's block number, return block numbers that should
# travel to disk with it (the cache writes those that are cached and
# dirty).  Called inside an eviction, so it must be pure: no device I/O,
# and no cache call that can insert or evict (``peek``/``get_logical``).
FlushCompanionsHook = Callable[[int], Iterable[int]]

#: Upper bound on flush passes inside :meth:`BufferCache.sync`.  A
#: correct pipeline converges long before this (every pass makes at
#: least one deferred update durable); hitting the bound means a
#: dependency cycle, which the ordering rules are supposed to exclude.
_MAX_SYNC_PASSES = 256


class BufferCache:
    """LRU block cache indexed by physical address and logical identity."""

    def __init__(self, device: BlockDevice, capacity_blocks: int = 4096) -> None:
        if capacity_blocks < 8:
            raise InvalidArgument("cache needs at least 8 blocks")
        self.device = device
        self.capacity = capacity_blocks
        self._phys: "OrderedDict[int, Buffer]" = OrderedDict()  # LRU: oldest first
        self._logical: Dict[LogicalId, Buffer] = {}
        self._dirty: Set[int] = set()
        self.flush_companions: Optional[FlushCompanionsHook] = None
        self.write_pipeline = None  # see module docstring for the contract
        # Statistics, read by the drive's registry as ``cache.*``.
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.checksum_rejects = 0   # reads refused after a ChecksumError
        device.disk.registry.register(
            "cache", self, ("hits", "misses", "evictions", "checksum_rejects"))

    # -- lookups ---------------------------------------------------------------

    def get(self, bno: int, logical: Optional[LogicalId] = None) -> Buffer:
        """Return the buffer for physical block ``bno``, reading on miss.

        If ``logical`` is given, the buffer's logical identity is
        (re)assigned — this is how blocks installed by a group read with
        an invalid identity acquire their file/offset on first access.
        """
        buf = self._phys.get(bno)
        if buf is not None:
            self.hits += 1
            obs.incr("cache.hits")
            self._phys.move_to_end(bno)
        else:
            self.misses += 1
            obs.incr("cache.misses")
            buf = Buffer(bno, self._read_checked(bno))
            self._insert(buf)
        if logical is not None and buf.logical != logical:
            self._set_logical(buf, logical)
        return buf

    @obs.traced("cache", "miss", lambda self, bno: {"bno": bno})
    def _read_checked(self, bno: int) -> bytes:
        try:
            return self.device.read_block(bno)
        except ChecksumError:
            # The device below vouches for nothing here; refuse to
            # install the buffer so no caller ever sees the bad bytes
            # through the cache.
            self.checksum_rejects += 1
            raise

    def peek(self, bno: int) -> Optional[Buffer]:
        """Return the cached buffer or None; never touches the disk."""
        return self._phys.get(bno)

    def get_logical(self, logical: LogicalId) -> Optional[Buffer]:
        """Lookup by (file, offset) identity; None if not cached."""
        buf = self._logical.get(logical)
        if buf is not None:
            self.hits += 1
            self._phys.move_to_end(buf.bno)
        return buf

    # -- installs and writes -----------------------------------------------------

    def install(self, blocks: Iterable[Tuple[int, bytes, Optional[LogicalId]]]) -> None:
        """Place ``(bno, image, logical)`` blocks obtained outside the
        per-block read path (group reads), in order; no disk access.

        Each block is placed as if installed alone: its image is checked
        before room is made for it, an existing buffer is reused, and an
        existing *dirty* buffer keeps its data — the cached copy is
        newer than what the group read returned from the media path.
        A bad image raises with the earlier blocks already placed.
        """
        phys = self._phys
        for bno, image, logical in blocks:
            buf = phys.get(bno)
            if buf is None:
                self._insert(Buffer(bno, image, logical))
                continue
            phys.move_to_end(bno)
            if not buf.dirty:
                buf.replace(image)
            if logical is not None and buf.logical != logical:
                self._set_logical(buf, logical)

    def create(self, bno: int, logical: Optional[LogicalId] = None,
               image: bytes = ZERO_BLOCK) -> Buffer:
        """A buffer holding ``image`` — zeros unless given — for a block
        whose old contents no longer matter: freshly allocated, or about
        to be written wholesale (no read).  A dirty buffer is overwritten."""
        return self._place(bno, image, logical)

    def _place(self, bno: int, image: bytes, logical: Optional[LogicalId]) -> Buffer:
        buf = self._phys.get(bno)
        if buf is None:
            buf = Buffer(bno, image, logical)
            self._insert(buf)
        else:
            self._phys.move_to_end(bno)
            buf.replace(image)
        if logical is not None and buf.logical != logical:
            self._set_logical(buf, logical)
        return buf

    def create_dirty(self, blocks: Iterable[Tuple[int, bytes]]) -> None:
        """:meth:`create` then :meth:`mark_dirty` for each ``(bno,
        image)`` in order: mkfs's way of handing a run of fresh metadata
        blocks to the cache in one call.  A block is dirty before the
        next one is placed, so an eviction inside the run writes back
        earlier blocks of it exactly as separate calls would."""
        dirty = self._dirty
        for bno, image in blocks:
            self._place(bno, image, None).dirty = True
            dirty.add(bno)

    def mark_dirty(self, bno: int) -> None:
        """Record that the buffer's data diverges from the disk."""
        buf = self._phys[bno]
        buf.dirty = True
        self._dirty.add(bno)

    def write_sync(self, bno: int) -> None:
        """Write the buffer through to the device immediately (timed)."""
        buf = self._phys[bno]
        # The one write that hands the live bytes down: a block written
        # through on every update (an inode or directory block under
        # synchronous metadata) is edited again at once, and freezing it
        # here would cost a copy-on-write per operation.  The device
        # snapshots at its store; pipelines get the immutable snapshot
        # their contract promises.
        image, clean = buf.image, True
        if self.write_pipeline is not None:
            prepared = self.write_pipeline.prepare(bno, bytes(image))
            if prepared is None:
                return  # pipeline defers this block; it stays dirty
            image, clean = prepared
        self.device.write_block(bno, image)
        if self.write_pipeline is not None:
            self.write_pipeline.committed([bno])
        if clean:
            buf.dirty = False
            self._dirty.discard(bno)

    # -- flushing and eviction ------------------------------------------------------

    def _prepare_writes(self, block_numbers: Iterable[int]):
        """Pipeline-filtered (writes, cleaned) for the given dirty blocks."""
        writes: Dict[int, bytes] = {}
        cleaned = []
        pipeline = self.write_pipeline
        for bno in block_numbers:
            buf = self._phys.get(bno)
            if buf is None or not buf.dirty:
                continue
            # Frozen once, here: this one object is what the pipeline
            # sees, what the device and its recorders store, and what
            # the buffer keeps until its next edit.
            image, clean = buf.freeze(), True
            if pipeline is not None:
                prepared = pipeline.prepare(bno, image)
                if prepared is None:
                    continue  # deferred: dependencies not durable yet
                image, clean = prepared
            writes[bno] = image
            if clean:
                cleaned.append(bno)
        return writes, cleaned

    def _write_out(self, op: str, block_numbers: Iterable[int],
                   **attrs: object) -> int:
        """Write those of ``block_numbers`` the pipeline lets go, as one
        batch under a ``cache`` span named ``op``; returns the request
        count (0, and no span, when nothing was writable)."""
        writes, cleaned = self._prepare_writes(block_numbers)
        if not writes:
            return 0
        with obs.span("cache", op, **attrs) as sp:
            sp.incr("blocks", len(writes))
            nreq = self.device.write_batch(writes)
            sp.incr("requests", nreq)
        if self.write_pipeline is not None:
            self.write_pipeline.committed(list(writes))
        for bno in cleaned:
            self._phys[bno].dirty = False
            self._dirty.discard(bno)
        return nreq

    def flush(self) -> int:
        """Write every writable dirty buffer (batched, C-LOOK); returns
        the request count.  With a write pipeline installed some blocks
        may be deferred or written rolled back and stay dirty — see
        :meth:`sync` for the converging loop."""
        if not self._dirty:
            return 0
        if self.write_pipeline is not None:
            self.write_pipeline.pre_flush()
        nreq = self._write_out("flush", list(self._dirty))
        # A pass that wrote nothing is not followed by a checkpoint.
        if nreq and self.write_pipeline is not None:
            self.write_pipeline.post_flush()
        return nreq

    def flush_blocks(self, block_numbers: Iterable[int]) -> int:
        """Write the given blocks if dirty (batched); returns requests."""
        return self._write_out("flush_blocks", block_numbers)

    def sync(self) -> int:
        """Flush dirty buffers to convergence and drain the drive's
        write-behind buffer."""
        nreq = self.flush()
        for _ in range(_MAX_SYNC_PASSES):
            if not self._dirty:
                break
            made = self.flush()
            nreq += made
            if made == 0 and self._dirty:
                raise InvalidArgument(
                    "write pipeline deferred %d block(s) with no progress "
                    "(ordering dependency cycle?)" % len(self._dirty))
        else:
            raise InvalidArgument(
                "cache sync did not converge in %d passes" % _MAX_SYNC_PASSES)
        self.device.flush()
        return nreq

    def invalidate_all(self) -> None:
        """Drop all clean buffers (dirty data must be flushed first)."""
        if self._dirty:
            raise InvalidArgument("cannot invalidate a cache with dirty buffers")
        self._phys.clear()
        self._logical.clear()

    def drop_logical(self, logical: LogicalId) -> None:
        """Remove a logical mapping (file truncate/delete)."""
        buf = self._logical.pop(logical, None)
        if buf is not None:
            buf.logical = None

    def forget(self, bno: int) -> None:
        """Discard a buffer outright, dirty or not (block was freed —
        its contents no longer need to reach the disk)."""
        buf = self._phys.pop(bno, None)
        if buf is None:
            return
        self._dirty.discard(bno)
        if self.write_pipeline is not None:
            self.write_pipeline.forgotten(bno)
        if buf.logical is not None:
            self._logical.pop(buf.logical, None)

    # -- internals --------------------------------------------------------------

    def _insert(self, buf: Buffer) -> None:
        """Add ``buf`` (built, so its image is checked) after evicting
        until it fits: the one place the cache makes room.  A clean LRU
        head is the victim :meth:`_pick_victim` would choose, pipeline or
        not, so it is taken as it stands; a dirty head goes through
        :meth:`_write_back_victim` (victim choice, write-back companions)."""
        phys = self._phys
        while len(phys) >= self.capacity:
            victim = next(iter(phys.values()))
            if victim.dirty:
                victim = self._write_back_victim()
            del phys[victim.bno]
            if victim.logical is not None:
                self._logical.pop(victim.logical, None)
            self.evictions += 1
        phys[buf.bno] = buf
        if buf.logical is not None:
            self._logical[buf.logical] = buf

    def _set_logical(self, buf: Buffer, logical: LogicalId) -> None:
        if buf.logical is not None:
            self._logical.pop(buf.logical, None)
        buf.logical = logical
        self._logical[logical] = buf

    def _pick_victim(self) -> Optional[int]:
        """The least-recently-used buffer the pipeline allows us to
        evict (clean, or writable in full right now)."""
        for bno, buf in self._phys.items():
            if not buf.dirty:
                return bno
            if self.write_pipeline is None or self.write_pipeline.ready(bno):
                return bno
        return None

    def _write_back_victim(self) -> Buffer:
        """The buffer to evict (LRU order), written back with its gather
        companions if dirty; it is still cached when this returns."""
        victim_bno = self._pick_victim()
        if victim_bno is None:
            # Every buffer is dirty and ordering-deferred: flush passes
            # make updates durable until a victim frees up.
            for _ in range(_MAX_SYNC_PASSES):
                self.flush()
                victim_bno = self._pick_victim()
                if victim_bno is not None:
                    break
            else:
                raise InvalidArgument(
                    "no evictable buffer after %d flush passes"
                    % _MAX_SYNC_PASSES)
        victim = self._phys[victim_bno]
        if victim.dirty:
            companions = set([victim_bno])
            if self.flush_companions is not None:
                companions.update(self.flush_companions(victim_bno))
            # ``ready`` promised the victim is writable in full, so the
            # set is never empty here.
            self._write_out("evict_writeback", companions, victim=victim_bno)
        return victim
