"""Tests for workload records: their text form and their replay."""

import pytest

from repro.errors import InvalidArgument
from repro.workloads import build_filesystem, run_script
from repro.workloads.trace import Operation, dumps, loads
from tests import golden
from tests.conftest import make_cffs, make_ffs


def script(*records):
    return [(op.kind, op) for op in records]


class TestTraceFormat:
    def test_roundtrip_text(self):
        ops = script(
            Operation("mkdir", ("/d",)),
            Operation("write", ("/d/f",), offset=0, size=1024),
            Operation("write", ("/d/f",), offset=512, size=8),
            Operation("write_file", ("/d/g",), size=100, fill=ord("s")),
            Operation("write_file", ("/d/h",), size=100),
            Operation("append", ("/d/g",), size=300, fill=ord("a")),
            Operation("read", ("/d/f",), offset=0, size=64),
            Operation("read_file", ("/d/f", "/d/g")),
            Operation("read_file", ("/d/h",), size=100),
            Operation("truncate", ("/d/f",), size=10),
            Operation("rename", ("/d/f", "/d/e")),
            Operation("link", ("/d/e", "/d/l")),
            Operation("unlink", ("/d/l",)),
            Operation("create", ("/d/c",)),
            Operation("rmdir", ("/x",)),
            Operation("sync"))
        text = dumps(ops)
        assert loads(text) == ops
        assert dumps(loads(text)) == text
        assert text.splitlines()[2] == "write /d/f 512 8"
        assert text.splitlines()[7] == "read_file /d/f /d/g"

    def test_comments_and_blanks_ignored(self):
        assert len(loads("# header\n\nmkdir /d\n")) == 1

    def test_unknown_op_rejected(self):
        with pytest.raises(InvalidArgument):
            Operation.parse("teleport /a /b")

    def test_wrong_arity_rejected(self):
        for line in ("mkdir /a /b", "sync 1", "write /f 100",
                     "write /f 1 2 3", "read /f 1 2 3", "read_file",
                     "rename /a", "write_file /f x", "truncate /f 1 /g"):
            with pytest.raises(InvalidArgument):
                Operation.parse(line)

    def test_bad_numbers_rejected(self):
        # A negative offset or size, or a fill byte outside 0-255, is a
        # malformed line: rejected where it is read, not left to write
        # nothing, empty a file or fail bare when it runs.
        for line in ("write /a 0 -5", "write /a -1 5", "read /a -1 4",
                     "write_file /a -4", "read_file /a -1", "truncate /a -1",
                     "append /a 10 300", "write_file /a 10 -1"):
            with pytest.raises(InvalidArgument, match="trace op"):
                Operation.parse(line)
        assert Operation.parse("write_file /a 0 255").fill == 255
        assert Operation.parse("append /a 1 0").fill == 0

    def test_numeric_args_parsed(self):
        op = Operation.parse("write /f 100 200")
        assert op == Operation("write", ("/f",), offset=100, size=200)


class TestRecording:
    def test_operations_recorded_in_order(self):
        ops = script(
            Operation("mkdir", ("/d",)),
            Operation("write_file", ("/d/a",), size=100, fill=ord("x")),
            Operation("read_file", ("/d/a",), size=100),
            Operation("rename", ("/d/a", "/d/b")),
            Operation("unlink", ("/d/b",)))
        kinds = [line.split()[0] for line in dumps(ops).splitlines()]
        assert kinds == ["mkdir", "write_file", "read_file", "rename",
                         "unlink"]
        run_script(make_cffs(), ops)


class TestReplay:
    def record_workload(self):
        ops = [Operation("mkdir", ("/proj",))]
        ops += [Operation("write_file", ("/proj/f%02d" % i,),
                          size=500 + i * 37, fill=ord("d"))
                for i in range(20)]
        ops.append(Operation("sync"))
        ops += [Operation("read_file", ("/proj/f%02d" % i,))
                for i in range(20)]
        ops += [Operation("unlink", ("/proj/f%02d" % i,))
                for i in range(0, 20, 2)]
        ops.append(Operation("sync"))
        return script(*ops)

    def test_replay_reproduces_state(self):
        target = make_cffs()
        run_script(target, self.record_workload())
        names = target.readdir("/proj")
        assert len(names) == 10
        assert target.stat("/proj/f01").size == 537
        assert target.read_file("/proj/f01") == b"d" * 537

    def test_replay_across_configurations(self):
        """One script measured against the whole grid."""
        ops = self.record_workload()
        conv = run_script(make_cffs(embedded=False, grouping=False), ops)
        cffs = run_script(make_cffs(), ops)
        assert cffs.seconds < conv.seconds  # same activity, faster system

    def test_replay_on_ffs(self):
        assert run_script(make_ffs(), self.record_workload()).seconds > 0

    def test_replay_deterministic(self):
        ops = self.record_workload()
        a = run_script(make_cffs(), ops)
        b = run_script(make_cffs(), ops)
        assert a.seconds == b.seconds
        assert a.disk_requests == b.disk_requests

    def test_serialized_trace_replays(self):
        target = make_cffs()
        run_script(target, loads(dumps(self.record_workload())))
        assert len(target.readdir("/proj")) == 10

    def test_replayed_whole_file_write_replaces_the_file(self):
        # A whole-file write once replayed as a bare pwrite at offset 0,
        # which left the longer old contents in place.
        ops = loads(dumps(script(
            Operation("mkdir", ("/d",)),
            Operation("write_file", ("/d/a",), size=5000),
            Operation("write_file", ("/d/a",), size=100))))
        fs = make_cffs()
        run_script(fs, ops)
        assert fs.stat("/d/a").size == 100

    def test_append_writes_at_the_end(self):
        fs = make_cffs()
        run_script(fs, loads("mkdir /d\nwrite_file /d/a 10 112\n"
                             "append /d/a 5 113\nappend /d/a 3\n"))
        data = fs.read_file("/d/a")
        assert data[:15] == b"p" * 10 + b"q" * 5
        assert data[15:] == Operation("append", ("/d/a",), size=3).payload(15)

    def test_checked_read_fails_on_the_wrong_length(self):
        fs = make_cffs()
        run_script(fs, loads("mkdir /d\nwrite_file /d/a 10\nread_file /d/a 10"))
        with pytest.raises(AssertionError):
            run_script(fs, loads("read_file /d/a 11"))

    def test_replay_writes_the_same_bytes_in_every_process(self):
        # Payloads are synthesized at replay time; a seed taken from the
        # salted builtin hash() gave each process its own bytes.  CI runs
        # tier-1 under two hash seeds against this one digest of what the
        # trace leaves on a fresh ``cffs`` volume.
        fs = build_filesystem("cffs")
        run_script(fs, loads("mkdir /d\nwrite /d/a 0 5000\n"
                             "write /d/b 4096 9000\nsync\n"))
        golden.pin_text("trace_replay.sha256",
                        fs.cache.device.content_digest() + "\n")
