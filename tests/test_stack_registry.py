"""Every layer counts in its own fields; the drive's registry reads them.

No tracer is installed anywhere in this file: a count that only exists
while a tracer is listening is exactly what these tests rule out.  The
last test holds the registries of two small seeded stacks to the metric
catalogue in ``docs/OBSERVABILITY.md``, in both directions.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro import obs
from repro.blockdev.device import BLOCK_SIZE, BlockDevice
from repro.cache.policy import MetadataPolicy
from repro.cluster import ChaosConfig, Cluster, TrafficConfig, run_cluster_chaos
from repro.core.filesystem import CFFS, CFFSConfig
from repro.engine import Engine
from repro.faults import FaultSchedule, FaultyBlockDevice
from repro.resilience.device import ResilientBlockDevice
from repro.resilience.scrub import Scrubber
from repro.workloads import run_smallfile
from repro.workloads.smallfile import smallfile_ops
from tests.conftest import TEST_PROFILE, make_cffs


def _block(tag: int) -> bytes:
    return bytes([tag]) * BLOCK_SIZE


class TestCountingNeedsNoTracer:
    def test_journal_commits_are_in_the_stack_registry(self):
        assert obs.active() is None
        fs = make_cffs(MetadataPolicy.JOURNAL_METADATA)
        run_smallfile(fs, n_files=30, file_size=1024)
        journal = fs.cache.write_pipeline
        snap = fs.cache.device.disk.registry.snapshot()
        assert snap["journal.commits"] == journal.commits > 0

    def test_resilient_verified_reads_are_the_devices_own(self):
        dev = ResilientBlockDevice.format(BlockDevice(TEST_PROFILE))
        dev.write_block(7, _block(7))
        dev.read_block(7)
        dev.read_block(7)
        snap = dev.disk.registry.snapshot()
        assert snap["resilience.verified_reads"] == dev.stats.verified_reads == 2

    def test_a_reattached_device_counts_from_zero(self):
        inner = BlockDevice(TEST_PROFILE)
        first = ResilientBlockDevice.format(inner)
        first.write_block(7, _block(7))
        for _ in range(3):
            first.read_block(7)
        first.flush()
        second = ResilientBlockDevice.attach(inner)
        registry = inner.disk.registry
        assert registry.snapshot()["resilience.verified_reads"] == 0
        second.read_block(7)
        assert registry.snapshot()["resilience.verified_reads"] == 1
        assert second.stats.verified_reads == 1
        assert first.stats.verified_reads == 3


# -- the metric catalogue ----------------------------------------------------

CATALOGUE = Path(__file__).resolve().parent.parent / "docs" / "OBSERVABILITY.md"


def _catalogue():
    """``(pattern, kind, registry)`` per row of the Metrics table; an
    instance placeholder (``<k>``, ``<client>``) matches within one
    path part."""
    rows = []
    for line in CATALOGUE.read_text(encoding="utf-8").splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if len(cells) != 4 or not cells[0].startswith("`"):
            continue
        name, kind, registry, _layer = cells
        pattern = re.sub(r"<[a-z]+>", "[^.]+", re.escape(name.strip("`")))
        rows.append((re.compile(pattern + "$"), kind, registry))
    return rows


def _single_volume_snapshots():
    """Two drives: a journaled C-FFS over a resilient device over the
    fault proxy, scrubbed; and an engine replaying a client on a
    journaled C-FFS over the fault proxy (the engine needs a device
    whose bytes it may poke, which the resilient device is not)."""
    config = CFFSConfig(blocks_per_cg=512, cache_blocks=64,
                        policy=MetadataPolicy.JOURNAL_METADATA)
    ops = smallfile_ops(["/d/f%d" % i for i in range(40)], 2048, "create")

    def faulty():
        return FaultyBlockDevice(BlockDevice(TEST_PROFILE),
                                 FaultSchedule(seed=3, transient_rate=0.05))

    resilient = ResilientBlockDevice.format(faulty())
    fs = CFFS.mkfs(resilient, config)
    fs.mkdir("/d")
    for _label, op in ops:
        op(fs)
    fs.sync()
    Scrubber(resilient).step()

    engine = Engine(CFFS.mkfs(faulty(), config))
    client = engine.add_client()
    engine.run_sync(lambda f: f.mkdir("/d"))
    engine.run_phase({client: ops}, "create")
    return [resilient.disk.registry.snapshot(),
            engine.device.disk.registry.snapshot()]


def _cluster_snapshots(monkeypatch):
    """A 2-shard soft-updates cluster through a small chaos run: its own
    registry, then each shard's drive registry."""
    kept = []

    class KeptCluster(Cluster):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            kept.append(self)

    monkeypatch.setattr("repro.cluster.chaos.Cluster", KeptCluster)
    traffic = TrafficConfig(shards=2, clients=80, ops_per_client=3, dirs=24,
                            file_size=8192, rename_fraction=0.2,
                            policy=MetadataPolicy.DELAYED_METADATA)
    assert run_cluster_chaos(ChaosConfig(traffic=traffic)).verdict() == "PASS"
    (cluster,) = kept
    return cluster.metrics.snapshot(), [
        shard.device.disk.registry.snapshot() for shard in cluster.shards]


def test_registries_hold_exactly_the_catalogue(monkeypatch):
    rows = _catalogue()
    cluster, shards = _cluster_snapshots(monkeypatch)
    held = [(name, value, "drive")
            for snap in _single_volume_snapshots() + shards
            for name, value in snap.items()]
    held += [(name, value, "cluster") for name, value in cluster.items()]
    matched = set()
    for name, value, registry in held:
        hits = [row for row in rows if row[0].match(name)]
        assert len(hits) == 1, "%s matches %d catalogue rows" % (name, len(hits))
        pattern, kind, where = hits[0]
        assert where == registry, "%s is held by the %s registry" % (
            name, registry)
        assert (kind == "histogram") == isinstance(value, dict), name
        matched.add(pattern.pattern)
    unheld = [row[0].pattern for row in rows if row[0].pattern not in matched]
    assert not unheld, "catalogued but held by no registry: %s" % unheld
