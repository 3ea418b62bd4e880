"""Operation trace record and replay.

A :class:`TracingFileSystem` wraps any file system and records every
mutating and reading operation as one line of a plain-text trace; a
trace replays against any other configuration, so one captured workload
can be measured across the whole grid (the way the paper replays the
same benchmark against each file system).

Trace format, one operation per line::

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

Write payloads are synthesized deterministically from the path and
offset at replay time — traces capture *activity*, not data.
"""

from __future__ import annotations

import io
import zlib
from dataclasses import dataclass
from typing import Iterable, List, Optional, TextIO

from repro.errors import InvalidArgument
from repro.vfs.interface import FileSystem
from repro.workloads.measure import Measured, window


def _payload(path: str, offset: int, length: int) -> bytes:
    # crc32, never the salted builtin hash: two processes replaying one
    # trace must write the same bytes.
    seed = (zlib.crc32(b"%s@%d" % (path.encode("utf-8"), offset)) & 0xFF) or 1
    return bytes((seed + i) % 256 for i in range(length))


@dataclass
class TraceOp:
    """One recorded operation."""

    op: str
    args: tuple

    def render(self) -> str:
        return " ".join([self.op] + [str(a) for a in self.args])

    @classmethod
    def parse(cls, line: str) -> "TraceOp":
        parts = line.split()
        if not parts:
            raise InvalidArgument("empty trace line")
        op, args = parts[0], parts[1:]
        arity = {
            "create": 1, "mkdir": 1, "unlink": 1, "rmdir": 1, "sync": 0,
            "rename": 2, "link": 2, "truncate": 2, "write": 3, "read": 3,
        }.get(op)
        if arity is None:
            raise InvalidArgument("unknown trace op %r" % op)
        if len(args) != arity:
            raise InvalidArgument("trace op %r expects %d args" % (op, arity))
        converted = tuple(
            int(a) if not a.startswith("/") else a for a in args
        )
        return cls(op, converted)


class Trace:
    """An ordered list of operations with (de)serialization."""

    def __init__(self, ops: Optional[List[TraceOp]] = None) -> None:
        self.ops: List[TraceOp] = ops if ops is not None else []

    def __len__(self) -> int:
        return len(self.ops)

    def append(self, op: str, *args) -> None:
        self.ops.append(TraceOp(op, tuple(args)))

    def dump(self, stream: TextIO) -> None:
        for op in self.ops:
            stream.write(op.render() + "\n")

    def dumps(self) -> str:
        out = io.StringIO()
        self.dump(out)
        return out.getvalue()

    @classmethod
    def load(cls, stream: Iterable[str]) -> "Trace":
        ops = []
        for line in stream:
            line = line.strip()
            if line and not line.startswith("#"):
                ops.append(TraceOp.parse(line))
        return cls(ops)

    @classmethod
    def loads(cls, text: str) -> "Trace":
        return cls.load(text.splitlines())


class TracingFileSystem:
    """Transparent recording proxy around a :class:`FileSystem`.

    Only the whole-file/path-level API is proxied (the subset workloads
    use); everything else passes through unrecorded.
    """

    def __init__(self, fs: FileSystem) -> None:
        self.fs = fs
        self.trace = Trace()

    # -- recorded operations ---------------------------------------------------

    def create(self, path: str) -> None:
        self.fs.create(path)
        self.trace.append("create", path)

    def mkdir(self, path: str) -> None:
        self.fs.mkdir(path)
        self.trace.append("mkdir", path)

    def write_file(self, path: str, data: bytes) -> None:
        self.fs.write_file(path, data)
        self.trace.append("write", path, 0, len(data))

    def read_file(self, path: str) -> bytes:
        data = self.fs.read_file(path)
        self.trace.append("read", path, 0, len(data))
        return data

    def unlink(self, path: str) -> None:
        self.fs.unlink(path)
        self.trace.append("unlink", path)

    def rmdir(self, path: str) -> None:
        self.fs.rmdir(path)
        self.trace.append("rmdir", path)

    def rename(self, old: str, new: str) -> None:
        self.fs.rename(old, new)
        self.trace.append("rename", old, new)

    def link(self, existing: str, new: str) -> None:
        self.fs.link(existing, new)
        self.trace.append("link", existing, new)

    def truncate(self, path: str, size: int = 0) -> None:
        self.fs.truncate(path, size)
        self.trace.append("truncate", path, size)

    def sync(self) -> int:
        nreq = self.fs.sync()
        self.trace.append("sync")
        return nreq

    # -- passthrough -------------------------------------------------------------

    def __getattr__(self, name: str):
        return getattr(self.fs, name)


@dataclass
class ReplayResult:
    """Timing of one trace replay."""

    label: str
    operations: int
    measured: Measured

    @property
    def seconds(self) -> float:
        return self.measured.seconds

    @property
    def disk_requests(self) -> int:
        return self.measured.disk_requests


def replay(trace: Trace, fs: FileSystem, label: str = "") -> ReplayResult:
    """Run a trace against ``fs``; returns simulated timing."""
    with window(fs) as measured:
        for entry in trace.ops:
            op, args = entry.op, entry.args
            if op == "create":
                fs.create(args[0])
            elif op == "mkdir":
                fs.mkdir(args[0])
            elif op == "write":
                path, offset, length = args
                fd = fs.open(path, create=True)
                try:
                    fs.pwrite(fd, offset, _payload(path, offset, length))
                finally:
                    fs.close(fd)
            elif op == "read":
                path, offset, length = args
                fd = fs.open(path)
                try:
                    fs.pread(fd, offset, length)
                finally:
                    fs.close(fd)
            elif op == "unlink":
                fs.unlink(args[0])
            elif op == "rmdir":
                fs.rmdir(args[0])
            elif op == "rename":
                fs.rename(args[0], args[1])
            elif op == "link":
                fs.link(args[0], args[1])
            elif op == "truncate":
                fs.truncate(args[0], args[1])
            elif op == "sync":
                fs.sync()
    return ReplayResult(label or fs.name, len(trace), measured)
