"""Soft updates [Ganger95]: dependency-tracked delayed metadata writes.

Every ordering-critical metadata update records an *after-image* of its
block together with the updates that must be on disk before it
(:meth:`SoftDepTracker.record` returns a token; dependents pass it as
``requires``).  The file systems express the classic rules this way:

- **initialized inode before directory entry** — the create's inode
  write is recorded first; the directory-entry write requires it;
- **directory entry removed before inode cleared/freed** — the
  unlink's entry removal is recorded first; the nlink decrement and
  the inode clear require it;
- **cleared pointer before freed block reused** — blocks returned to
  the allocator are *gated* (:meth:`gate`) on the inode write that
  dropped the pointers; the cache may not write new content into them
  until that clear is durable.

At writeback the tracker decides, per block, the newest *safe* image:
the longest prefix of its recorded versions whose requirements are all
durable.  If everything is safe, the current cache content goes out
and tracking ends; if only a prefix is safe, the block is written
**rolled back** to that prefix's image and stays dirty (it will be
**rolled forward** on a later pass, once its dependencies have
landed); if nothing new is safe, the write is deferred outright.

Progress is guaranteed because required updates are always recorded
before the updates that require them, so recording order is a
topological order of the dependency DAG: the globally oldest
non-durable version always has durable requirements and is written by
the next pass.  ``BufferCache.sync`` loops flushes to convergence on
exactly this argument.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro import obs

#: An ordering token: (block number, tracking generation, version index).
Token = Tuple[int, int, int]


class _BlockTrack:
    """Version chain of one tracked block."""

    __slots__ = ("gen", "versions", "durable")

    def __init__(self, gen: int) -> None:
        self.gen = gen
        # (after-image, requires) in recording order.
        self.versions: List[Tuple[bytes, Tuple[Token, ...]]] = []
        # Versions [0, durable) are known to be on disk.
        self.durable = 0


class SoftDepTracker:
    """Per-block after-image version chains plus reuse gates; implements
    the cache write-pipeline contract."""

    def __init__(self) -> None:
        self._tracks: Dict[int, _BlockTrack] = {}
        self._gates: Dict[int, List[Token]] = {}
        self._pending: Dict[int, int] = {}  # bno -> durable count on commit
        self._next_gen = 1

    # -- recording ---------------------------------------------------------------

    def record(self, bno: int, image: bytes,
               requires: Sequence[Optional[Token]] = ()) -> Token:
        """Record an ordered update: ``image`` is the block's content
        after it, ``requires`` the tokens that must be durable first.
        Returns this update's own token."""
        reqs = tuple(t for t in requires
                     if t is not None and not self.is_durable(t))
        track = self._tracks.get(bno)
        if track is None:
            track = _BlockTrack(self._next_gen)
            self._next_gen += 1
            self._tracks[bno] = track
        track.versions.append((bytes(image), reqs))
        return (bno, track.gen, len(track.versions) - 1)

    def gate(self, bno: int, tokens: Sequence[Optional[Token]]) -> None:
        """Forbid writing ``bno`` (a freed, reusable block) until the
        given tokens — the pointer-clearing writes — are durable."""
        live = [t for t in tokens if t is not None and not self.is_durable(t)]
        if live:
            self._gates.setdefault(bno, []).extend(live)

    def is_durable(self, token: Token) -> bool:
        bno, gen, idx = token
        track = self._tracks.get(bno)
        if track is None or track.gen != gen:
            return True  # tracking ended: every version reached the disk
        return idx < track.durable

    # -- writeback decisions -----------------------------------------------------

    def _gated(self, bno: int) -> bool:
        gates = self._gates.get(bno)
        if not gates:
            return False
        live = [t for t in gates if not self.is_durable(t)]
        if live:
            self._gates[bno] = live
            return True
        del self._gates[bno]
        return False

    def _safe_prefix(self, track: _BlockTrack) -> int:
        k = track.durable
        while k < len(track.versions):
            _, reqs = track.versions[k]
            if any(not self.is_durable(t) for t in reqs):
                break
            k += 1
        return k

    # -- cache write-pipeline contract -------------------------------------------

    def prepare(self, bno: int, data: bytes):
        if self._gated(bno):
            obs.count("journal.deferred_writes")
            return None
        track = self._tracks.get(bno)
        if track is None:
            return (data, True)
        k = self._safe_prefix(track)
        if k == len(track.versions):
            self._pending[bno] = -1  # current content is fully safe
            return (data, True)
        if k <= track.durable:
            obs.count("journal.deferred_writes")
            return None  # nothing new is safe yet
        # Roll back: write the newest safe image, stay dirty, roll
        # forward on a later pass.
        self._pending[bno] = k
        obs.count("journal.rollbacks")
        return (track.versions[k - 1][0], False)

    def committed(self, bnos) -> None:
        for bno in bnos:
            pend = self._pending.pop(bno, None)
            if pend is None:
                continue
            track = self._tracks.get(bno)
            if track is None:
                continue
            if pend < 0:
                del self._tracks[bno]  # fully durable: tracking ends
            else:
                track.durable = max(track.durable, pend)

    def ready(self, bno: int) -> bool:
        if self._gated(bno):
            return False
        track = self._tracks.get(bno)
        return track is None or self._safe_prefix(track) == len(track.versions)

    def pre_flush(self) -> None:
        pass

    def post_flush(self) -> None:
        pass

    def forgotten(self, bno: int) -> None:
        # The block was freed and dropped from the cache: its content
        # no longer matters, so its pending versions are vacuously
        # satisfied and any gate on it is void (reuse re-gates).
        self._tracks.pop(bno, None)
        self._gates.pop(bno, None)
        self._pending.pop(bno, None)
