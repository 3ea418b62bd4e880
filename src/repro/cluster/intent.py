"""Crash-safe cross-shard rename: copy-then-unlink with intent logging.

A rename whose source and destination live on different shards cannot
be atomic — two independent volumes have no shared metadata ordering.
The cluster gets the next best thing, *exactly-one-copy at every crash
point*, from a two-phase protocol whose recovery hint is an **intent
file** written on the destination shard through the ordinary file
system API — so its durability flows through whatever crash-consistency
machinery that shard mounts (sync metadata, soft updates, or the
write-ahead journal): the "existing journal seam".

Protocol (steps 1-3 each end durable — :func:`durable_write` /
:func:`durable_unlink` — before the next step starts; step 4 may stay
cached, because a stale intent only ever triggers a safe roll-forward)::

    1. dst: write  /.cluster/intent-NNNNNN   {src shard, src, dst}
    2. dst: write  the file copy at its final destination path
    3. src: unlink the source path
    4. dst: unlink the intent file

Recovery rule, applied per surviving intent file after the shards are
individually repaired and remounted (:func:`recover_shard_intents`):

- source path still exists  → **roll back**: remove any destination
  copy, then the intent.  (Crash before step 3 became durable; the
  source is still the authoritative copy.)
- source path gone          → **roll forward**: keep the destination
  copy, remove the intent.  (Step 3 was durable, and step 3 only runs
  after step 2's sync — the copy is complete.)
- intent unreadable/garbled → remove it.  (The intent is synced before
  the copy begins, so a torn intent implies the copy never started and
  the source is untouched.)

The ordering argument: the destination copy exists only while a fully
durable intent names it, and the source is unlinked only after the copy
is fully durable.  At every media-write boundary exactly one shard
holds the file — no loss, no double-visibility (the crash-point sweep
in ``tests/test_cluster.py`` kills the protocol at every landed media
write and checks exactly that).

This module also owns what the evacuation protocol
(:mod:`repro.cluster.evacuate`) shares with the rename: the record
format (:class:`RecordKind`, :func:`encode_record`,
:func:`parse_record`), the one listing of ``/.cluster``
(:func:`scan_records`) and the recovery pass both rules run over
(:class:`Recovery`).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

from repro.errors import ReproError
from repro.resilience.checksums import crc32

#: Per-shard directory holding cluster-private state (sealed records).
#: Created at shard attach time; hidden from facade root listings.
CLUSTER_DIR = "/.cluster"


# -- the sealed-record codec -------------------------------------------------------


@dataclass(frozen=True)
class RecordKind:
    """One kind of record under ``/.cluster``: the file-name prefix, the
    magic first line and the ``key=value`` fields in wire order, each
    with the function that reads its value back."""

    prefix: str
    magic: str
    fields: Tuple[Tuple[str, Callable[[str], object]], ...]
    #: The field whose value the file name repeats after the prefix (a
    #: record filed under another name is as good as torn); ``None``
    #: for kinds named by sequence number.
    named_by: Optional[int] = None

    def path(self, key) -> str:
        """Where the record keyed ``key`` (sequence number or name) lives."""
        return "%s/%s%s" % (CLUSTER_DIR, self.prefix,
                            "%06d" % key if isinstance(key, int) else key)


def _escape(value) -> str:
    """A field value on the wire: the frame's newline and the escape
    character itself are the only two characters a name may not keep."""
    return str(value).replace("\\", "\\\\").replace("\n", "\\n")


def _unescape(text: str) -> str:
    return re.sub(r"\\(.)", lambda m: "\n" if m[1] == "n" else m[1], text)


INTENT = RecordKind("intent-", "repro-cluster-intent/1",
                    (("src_shard", int), ("src", _unescape),
                     ("dst", _unescape)))
EVAC = RecordKind("evac-", "repro-cluster-evac/1",
                  (("src_shard", int), ("top", _unescape), ("files", int),
                   ("bytes", int)))
ADOPT = RecordKind("adopt-", "repro-cluster-adopt/1",
                   (("top", _unescape), ("src_shard", int)), named_by=0)


def encode_record(kind: RecordKind, *values) -> bytes:
    """Serialize one record: newline-framed fields under a CRC seal."""
    raw = "".join(
        [kind.magic + "\n"]
        + ["%s=%s\n" % (key, _escape(value))
           for (key, _), value in zip(kind.fields, values)]).encode("utf-8")
    return raw + ("crc=%08x\n" % crc32(raw)).encode("ascii")


def parse_record(kind: RecordKind, data: bytes) -> Optional[tuple]:
    """The field values of a sealed ``kind`` record, in table order;
    ``None`` when it is torn, garbled, unsealed or of another kind."""
    raw, sep, seal = data.rpartition(b"crc=")
    if not sep or not seal.endswith(b"\n"):
        return None
    try:
        if crc32(raw) != int(seal, 16):
            return None
        lines = raw.decode("utf-8").split("\n")
        if len(lines) != len(kind.fields) + 2 or lines[0] != kind.magic \
                or lines[-1]:
            return None
        values = []
        for (key, convert), line in zip(kind.fields, lines[1:]):
            name, sep, value = line.partition("=")
            if not sep or name != key:
                return None
            values.append(convert(value))
    except ValueError:   # UnicodeDecodeError is one
        return None
    return tuple(values)


def scan_records(fs, kind: RecordKind) -> Iterator[Tuple[str, Optional[tuple]]]:
    """``(path, field values or None)`` of every ``kind`` record on a
    shard, in name order — the one place ``/.cluster`` is listed."""
    if not fs.exists(CLUSTER_DIR):
        return
    for name in sorted(fs.readdir(CLUSTER_DIR)):
        if not name.startswith(kind.prefix):
            continue
        path = "%s/%s" % (CLUSTER_DIR, name)
        values = parse_record(kind, fs.read_file(path))
        if values is not None and kind.named_by is not None \
                and values[kind.named_by] != name[len(kind.prefix):]:
            values = None
        yield path, values


def durable_write(fs, path: str, data: bytes) -> None:
    """Write ``path`` and make it durable — contents *and* name.

    Under sync-metadata the name and inode are on disk when
    ``write_file`` returns, so an ``fsync`` of the data blocks is all
    the durability the protocol needs — the whole point of keeping the
    rename legs off the full-``sync`` hammer, which would drag every
    concurrent client's dirty data into the rename's critical path.
    Delayed/journaled policies defer metadata with cross-buffer
    ordering rules this module must not second-guess, so they take the
    conservative full sync.
    """
    fs.write_file(path, data)
    if fs.policy.is_sync:
        fd = fs.open(path)
        try:
            fs.fsync(fd)
        finally:
            fs.close(fd)
    else:
        fs.sync()


def durable_unlink(fs, path: str) -> None:
    """Unlink ``path`` and make the removal durable (see above)."""
    fs.unlink(path)
    if not fs.policy.is_sync:
        fs.sync()


# -- recovery ----------------------------------------------------------------------


class Recovery:
    """One shard's recovery pass over its ``/.cluster`` records.

    What the rename rule below and the evacuation rule
    (:func:`repro.cluster.evacuate.recover_shard_evacs`) share: the
    scan, the discard of torn records, and the closing sync once
    anything on the shard changed.  The rules keep what differs — which
    side a surviving record commits on.
    """

    def __init__(self, fs) -> None:
        self.fs = fs
        #: ``(src_shard, action)`` per record dealt with; -1 for torn.
        self.outcomes: List[Tuple[int, str]] = []
        self._changed = False

    def intact(self, kind: RecordKind, torn_action: str):
        """Yield ``(path, values)`` of the well-formed ``kind`` records;
        a torn one is removed and reported as ``torn_action``."""
        for path, values in scan_records(self.fs, kind):
            if values is None:
                self.remove(path)
                self.outcomes.append((-1, torn_action))
            else:
                yield path, values

    def remove(self, path: str) -> None:
        self.fs.unlink(path)
        self._changed = True

    def finish(self) -> List[Tuple[int, str]]:
        if self._changed:
            self.fs.sync()
        return self.outcomes


def recover_shard_intents(dst_sid: int, filesystems) -> List[Tuple[int, str]]:
    """Apply the recovery rule to every intent on shard ``dst_sid``.

    ``filesystems`` maps shard id -> mounted file system.  Returns
    ``(src_shard, action)`` pairs, where action is ``"rolled_back"``,
    ``"rolled_forward"`` or ``"discarded"`` (a torn intent:
    synced-before-copy means nothing else moved) — the sweep asserts on
    these.  The shard is synced before returning if anything changed.
    """
    recovery = Recovery(filesystems[dst_sid])
    dst_fs = recovery.fs
    # Pass 1: collect every surviving intent.  Destination paths claimed
    # by a roll-forward (source gone => the rename committed) must keep
    # their copy even when an *older* stale intent for the same path
    # wants to roll back — deleting the copy then would lose the only
    # remaining replica of the committed rename's file.
    intents = list(recovery.intact(INTENT, "discarded"))
    claimed = set()
    for path, (src_shard, src_path, dst_path) in intents:
        src_fs = filesystems.get(src_shard)
        if src_fs is None:
            raise ReproError("intent %s names unknown source shard %d"
                             % (path.rsplit("/", 1)[1], src_shard))
        if not src_fs.exists(src_path):
            claimed.add(dst_path)
    # Pass 2: apply the recovery rule, respecting roll-forward claims.
    for path, (src_shard, src_path, dst_path) in intents:
        if filesystems[src_shard].exists(src_path):
            if dst_path not in claimed and dst_fs.exists(dst_path):
                dst_fs.unlink(dst_path)
            action = "rolled_back"
        else:
            action = "rolled_forward"
        recovery.remove(path)
        recovery.outcomes.append((src_shard, action))
    return recovery.finish()


__all__ = [
    "ADOPT",
    "CLUSTER_DIR",
    "EVAC",
    "INTENT",
    "RecordKind",
    "Recovery",
    "durable_unlink",
    "durable_write",
    "encode_record",
    "parse_record",
    "recover_shard_intents",
    "scan_records",
]
