"""The ``repro trace`` subcommand and ``multiclient``'s ``--trace`` flag."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.cli import main
from repro.engine import run_multiclient


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    yield
    obs.uninstall()


class TestTraceCommand:
    def test_chrome_export_schema(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        rc = main(["trace", "--workload", "smallfile", "--files", "20",
                   "--format", "chrome", "--out", str(out)])
        assert rc == 0
        assert "trace: " in capsys.readouterr().out
        doc = json.loads(out.read_text())
        events = doc["traceEvents"]
        assert doc["otherData"]["clock"] == "simulated"
        assert events[0]["ph"] == "M"
        layers = {e.get("cat") for e in events}
        assert {"run", "workload", "vfs", "fs", "cache", "disk"} <= layers
        for event in events[1:]:
            assert event["ph"] == "X"
            assert event["ts"] >= 0 and event["dur"] >= 0
        # The disk spans are the only per-request record of the drive.
        disk = [e["args"] for e in events[1:] if e["cat"] == "disk"]
        assert all({"lba", "nsectors", "source"} <= set(a) for a in disk)
        assert {a["source"] for a in disk} <= {"media", "cache", "buffer"}

    def test_flame_and_metrics_outputs(self, tmp_path):
        out = tmp_path / "t.flame"
        metrics = tmp_path / "m.json"
        rc = main(["trace", "--workload", "smallfile", "--files", "20",
                   "--format", "flame", "--out", str(out),
                   "--metrics", str(metrics)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines == sorted(lines)
        assert any(line.startswith("run.smallfile;") for line in lines)
        snap = json.loads(metrics.read_text())
        assert snap["disk.reads"] > 0
        assert snap["disk.request_sectors"]["total"] > 0

    def test_journaled_snapshot_counts_every_layer(self, tmp_path):
        # The snapshot is the drive's registry, which every layer over
        # the drive registers its fields with; it needs no tracer.
        metrics = tmp_path / "m.json"
        rc = main(["trace", "--workload", "postmark", "--policy", "journal",
                   "--files", "100", "--out", str(tmp_path / "pm.json"),
                   "--metrics", str(metrics)])
        assert rc == 0
        snap = json.loads(metrics.read_text())
        assert snap["journal.commits"] > 0
        assert snap["disk.reads"] > 0

    def test_postmark_jsonl(self, tmp_path):
        out = tmp_path / "t.jsonl"
        rc = main(["trace", "--workload", "postmark", "--files", "20",
                   "--format", "jsonl", "--out", str(out)])
        assert rc == 0
        first = json.loads(out.read_text().splitlines()[0])
        assert first["layer"] == "run"
        assert first["op"] == "postmark"

    def test_unknown_fs_label_fails_cleanly(self, tmp_path, capsys):
        rc = main(["trace", "--fs", "ntfs",
                   "--out", str(tmp_path / "t.json")])
        assert rc == 1
        assert "unknown file system" in capsys.readouterr().err

    def test_tracer_uninstalled_after_run(self, tmp_path):
        main(["trace", "--workload", "smallfile", "--files", "10",
              "--out", str(tmp_path / "t.json")])
        assert obs.active() is None


class TestTraceFlags:
    def test_multiclient_trace_flag(self, tmp_path):
        out = tmp_path / "mc.jsonl"
        rc = main(["multiclient", "--clients", "2", "--files", "5",
                   "--trace", str(out), "--trace-format", "jsonl"])
        assert rc == 0
        spans = [json.loads(line) for line in out.read_text().splitlines()]
        assert {s["layer"] for s in spans} >= {"queue", "disk"}
        assert obs.active() is None


class TestEngineIntegration:
    def test_multiclient_tracer_carries_phases(self):
        # Spans only: the engine's counts live in its drive's registry
        # (tests/test_engine.py, test_per_client_accounting).
        tracer = obs.Tracer()
        run_multiclient(n_clients=2, files_per_client=5,
                        phases=("create", "read"), tracer=tracer)
        assert obs.active() is None  # run_multiclient cleans up
        phases = {s.attrs.get("phase") for s in tracer.spans
                  if s.layer == "queue"}
        assert {"create", "read"} <= phases
