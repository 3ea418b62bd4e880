"""Tests for trace record/replay."""

import os
import subprocess
import sys

import pytest

from repro.errors import InvalidArgument
from repro.workloads.trace import Trace, TraceOp, TracingFileSystem, replay
from tests.conftest import make_cffs, make_ffs


class TestTraceFormat:
    def test_roundtrip_text(self):
        trace = Trace()
        trace.append("mkdir", "/d")
        trace.append("write", "/d/f", 0, 1024)
        trace.append("rename", "/d/f", "/d/g")
        trace.append("sync")
        text = trace.dumps()
        back = Trace.loads(text)
        assert [op.render() for op in back.ops] == [op.render() for op in trace.ops]

    def test_comments_and_blanks_ignored(self):
        trace = Trace.loads("# header\n\nmkdir /d\n")
        assert len(trace) == 1

    def test_unknown_op_rejected(self):
        with pytest.raises(InvalidArgument):
            TraceOp.parse("teleport /a /b")

    def test_wrong_arity_rejected(self):
        with pytest.raises(InvalidArgument):
            TraceOp.parse("mkdir /a /b")

    def test_numeric_args_parsed(self):
        op = TraceOp.parse("write /f 100 200")
        assert op.args == ("/f", 100, 200)


class TestRecording:
    def test_operations_recorded_in_order(self):
        fs = TracingFileSystem(make_cffs())
        fs.mkdir("/d")
        fs.write_file("/d/a", b"x" * 100)
        fs.read_file("/d/a")
        fs.rename("/d/a", "/d/b")
        fs.unlink("/d/b")
        ops = [op.op for op in fs.trace.ops]
        assert ops == ["mkdir", "write", "read", "rename", "unlink"]

    def test_recorded_fs_still_works(self):
        fs = TracingFileSystem(make_cffs())
        fs.mkdir("/d")
        fs.write_file("/d/a", b"hello")
        assert fs.read_file("/d/a") == b"hello"
        assert fs.stat("/d/a").size == 5  # passthrough attribute

    def test_failed_operation_not_recorded(self):
        from repro.errors import FileNotFound

        fs = TracingFileSystem(make_cffs())
        with pytest.raises(FileNotFound):
            fs.unlink("/missing")
        assert len(fs.trace) == 0


class TestReplay:
    def record_workload(self):
        fs = TracingFileSystem(make_cffs())
        fs.mkdir("/proj")
        for i in range(20):
            fs.write_file("/proj/f%02d" % i, b"d" * (500 + i * 37))
        fs.sync()
        for i in range(20):
            fs.read_file("/proj/f%02d" % i)
        for i in range(0, 20, 2):
            fs.unlink("/proj/f%02d" % i)
        fs.sync()
        return fs.trace

    def test_replay_reproduces_state(self):
        trace = self.record_workload()
        target = make_cffs()
        replay(trace, target)
        names = target.readdir("/proj")
        assert len(names) == 10
        assert target.stat("/proj/f01").size == 537

    def test_replay_across_configurations(self):
        """One trace measured against the whole grid."""
        trace = self.record_workload()
        conv = replay(trace, make_cffs(embedded=False, grouping=False), "conv")
        cffs = replay(trace, make_cffs(), "cffs")
        assert conv.operations == cffs.operations == len(trace)
        assert cffs.seconds < conv.seconds  # same activity, faster system

    def test_replay_on_ffs(self):
        trace = self.record_workload()
        result = replay(trace, make_ffs(), "ffs")
        assert result.seconds > 0

    def test_replay_deterministic(self):
        trace = self.record_workload()
        a = replay(trace, make_cffs())
        b = replay(trace, make_cffs())
        assert a.seconds == b.seconds
        assert a.disk_requests == b.disk_requests

    def test_serialized_trace_replays(self):
        trace = Trace.loads(self.record_workload().dumps())
        target = make_cffs()
        replay(trace, target)
        assert len(target.readdir("/proj")) == 10

    def test_replay_writes_the_same_bytes_in_every_process(self):
        # Payloads are synthesized at replay time; a seed taken from the
        # salted builtin hash() gave each process its own bytes.
        script = (
            "from repro.workloads import build_filesystem\n"
            "from repro.workloads.trace import Trace, replay\n"
            "fs = build_filesystem('cffs')\n"
            "replay(Trace.loads('mkdir /d\\nwrite /d/a 0 5000\\nsync\\n'), fs)\n"
            "print(fs.cache.device.content_digest())\n")
        digests = set()
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join(sys.path))
            digests.add(subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True).stdout)
        assert len(digests) == 1, digests
