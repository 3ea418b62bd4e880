"""Workload operations as data: one record, its text form, one interpreter.

A workload script is a list of ``(label, Operation)`` pairs.  An
:class:`Operation` is frozen data — the VFS call, its paths, its sizes
and its payload rule — and calling it on a file system makes that call
directly, so one record runs the same in lock-step
(:func:`~repro.workloads.measure.run_script`), under the engine, and
read back from a trace.  Printed, a record is one line of the trace, so
one workload replays against any configuration (the way the paper
replays the same benchmark against each file system)::

    create /path
    mkdir /path
    write /path <offset> <length>
    read /path <offset> <length>
    unlink /path
    rmdir /path
    rename /old /new
    link /existing /new
    truncate /path <size>
    sync
    write_file /path <size> [fill]
    append /path <size> [fill]
    read_file /path... [size]

``write_file`` replaces the whole file, ``append`` writes at its end,
and ``read_file`` reads whole files — with a size, each must be that
long.  A ``write_file`` or ``append`` payload is its fill byte repeated;
without one, and for ``write``, it is bytes synthesized from the path
and offset — traces capture *activity*, not data.
"""

from __future__ import annotations

import itertools
import zlib
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.errors import InvalidArgument
from repro.vfs.interface import FileSystem


def _payload(path: str, offset: int, length: int) -> bytes:
    # crc32, never the salted builtin hash: two processes replaying one
    # trace must write the same bytes.
    seed = (zlib.crc32(b"%s@%d" % (path.encode("utf-8"), offset)) & 0xFF) or 1
    return bytes((seed + i) % 256 for i in range(length))


#: kind -> (paths, required numbers, optional trailing number); ``None``
#: paths means one or more.
_SHAPES: Dict[str, Tuple[Optional[int], Tuple[str, ...], Optional[str]]] = {
    "create": (1, (), None), "mkdir": (1, (), None),
    "unlink": (1, (), None), "rmdir": (1, (), None),
    "rename": (2, (), None), "link": (2, (), None),
    "truncate": (1, ("size",), None), "sync": (0, (), None),
    "write": (1, ("offset", "size"), None),
    "read": (1, ("offset", "size"), None),
    "write_file": (1, ("size",), "fill"),
    "append": (1, ("size",), "fill"),
    "read_file": (None, (), "size"),
}


class Operation(NamedTuple):
    """One workload operation; calling it runs it on a file system.

    Immutable; a tuple because scripts build tens of thousands of them
    on the host-time path, and a tuple builds fastest.
    """

    kind: str
    paths: Tuple[str, ...] = ()
    offset: int = 0
    #: bytes written or read, truncate's size, or the length every
    #: ``read_file`` must return (``None``: not checked).
    size: Optional[int] = None
    #: the payload's fill byte; ``None`` synthesizes it (:func:`_payload`).
    fill: Optional[int] = None

    def __call__(self, fs: FileSystem) -> None:
        _RUN[self.kind](fs, self)

    def payload(self, offset: int) -> bytes:
        """The ``size`` bytes this operation writes at ``offset``."""
        if self.fill is None:
            return _payload(self.paths[0], offset, self.size)
        return bytes((self.fill,)) * self.size

    def __str__(self) -> str:
        _, fields, optional = _SHAPES[self.kind]
        numbers = [getattr(self, name) for name in fields]
        if optional is not None and getattr(self, optional) is not None:
            numbers.append(getattr(self, optional))
        return " ".join([self.kind, *self.paths, *map(str, numbers)])

    @classmethod
    def parse(cls, line: str) -> "Operation":
        """The record one trace line prints as."""
        kind, *words = line.split() or [""]
        if kind not in _SHAPES:
            raise InvalidArgument("unknown trace op %r" % kind)
        npaths, fields, optional = _SHAPES[kind]
        paths = tuple(itertools.takewhile(lambda w: w.startswith("/"), words))
        names = fields + ((optional,) if optional else ())
        numbers = words[len(paths):]
        paths_ok = len(paths) == npaths if npaths is not None else bool(paths)
        if not paths_ok or not len(fields) <= len(numbers) <= len(names):
            raise InvalidArgument("trace op %r: bad arguments %r" % (kind, words))
        try:
            values = dict(zip(names, (int(word) for word in numbers)))
        except ValueError:
            raise InvalidArgument(
                "trace op %r: %r are not numbers" % (kind, numbers)) from None
        if min(values.values(), default=0) < 0 or values.get("fill", 0) > 255:
            raise InvalidArgument(
                "trace op %r: %r holds a negative number or a fill byte "
                "past 255" % (kind, numbers))
        return cls(kind, paths, **values)


def dumps(script: Iterable[Tuple[str, Operation]]) -> str:
    """The trace of a script of records: one line each (labels go)."""
    return "".join(str(op) + "\n" for _label, op in script)


def loads(text: str) -> List[Tuple[str, Operation]]:
    """A trace's records as a script, each labelled with its kind;
    blank lines and ``#`` comments are skipped."""
    ops = [Operation.parse(line) for line in text.splitlines()
           if line.strip() and not line.lstrip().startswith("#")]
    return [(op.kind, op) for op in ops]


# -- the interpreter: one direct VFS call (or short sequence) per kind ---------

def _run_create(fs: FileSystem, op: Operation) -> None:
    fs.create(op.paths[0])


def _run_mkdir(fs: FileSystem, op: Operation) -> None:
    fs.mkdir(op.paths[0])


def _run_unlink(fs: FileSystem, op: Operation) -> None:
    fs.unlink(op.paths[0])


def _run_rmdir(fs: FileSystem, op: Operation) -> None:
    fs.rmdir(op.paths[0])


def _run_rename(fs: FileSystem, op: Operation) -> None:
    fs.rename(op.paths[0], op.paths[1])


def _run_link(fs: FileSystem, op: Operation) -> None:
    fs.link(op.paths[0], op.paths[1])


def _run_truncate(fs: FileSystem, op: Operation) -> None:
    fs.truncate(op.paths[0], op.size)


def _run_sync(fs: FileSystem, op: Operation) -> None:
    fs.sync()


def _run_write(fs: FileSystem, op: Operation) -> None:
    fd = fs.open(op.paths[0], create=True)
    try:
        fs.pwrite(fd, op.offset, op.payload(op.offset))
    finally:
        fs.close(fd)


def _run_read(fs: FileSystem, op: Operation) -> None:
    fd = fs.open(op.paths[0])
    try:
        fs.pread(fd, op.offset, op.size)
    finally:
        fs.close(fd)


def _run_write_file(fs: FileSystem, op: Operation) -> None:
    fs.write_file(op.paths[0], op.payload(0))


def _run_append(fs: FileSystem, op: Operation) -> None:
    path = op.paths[0]
    at = fs.stat(path).size
    fd = fs.open(path)
    try:
        fs.pwrite(fd, at, op.payload(at))
    finally:
        fs.close(fd)


def _run_read_file(fs: FileSystem, op: Operation) -> None:
    for path in op.paths:
        got = fs.read_file(path)
        if op.size is not None and len(got) != op.size:
            raise AssertionError("short read of %s" % path)


_RUN: Dict[str, Callable[[FileSystem, Operation], None]] = {
    "create": _run_create, "mkdir": _run_mkdir, "unlink": _run_unlink,
    "rmdir": _run_rmdir, "rename": _run_rename, "link": _run_link,
    "truncate": _run_truncate, "sync": _run_sync, "write": _run_write,
    "read": _run_read, "write_file": _run_write_file,
    "append": _run_append, "read_file": _run_read_file,
}
