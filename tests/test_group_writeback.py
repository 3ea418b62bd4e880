"""A dirty group leaves the cache as a unit whether or not its extent
descriptor happens to be cached.

After a cold start nothing re-reads the group descriptors, so an
overwrite of grouped files under eviction pressure used to write each
evicted block alone.  The gather set is now decided by geometry when
the descriptor is cold: the dirty cached blocks of the victim's aligned
extent travel together.
"""

import pytest

from repro import obs
from repro.cache.policy import MetadataPolicy
from repro.core.filesystem import CFFS, CFFSConfig
from repro.fsck import fsck_cffs
from tests.conftest import make_device, read_desc

N_FILES = 600
CACHE_BLOCKS = 128
BLOCK = 4096


def make_fs(label, policy=MetadataPolicy.SYNC_METADATA, cache_blocks=CACHE_BLOCKS):
    return CFFS.mkfs(make_device(), CFFSConfig(
        blocks_per_cg=512, embedded_inodes=(label == "cffs"),
        explicit_grouping=True, policy=policy, cache_blocks=cache_blocks))


def populate(fs, n_files=N_FILES):
    """Grouped one-block files, on disk, caches cold."""
    fs.mkdir("/d")
    paths = ["/d/f%04d" % i for i in range(n_files)]
    for i, path in enumerate(paths):
        fs.write_file(path, bytes([i % 251]) * BLOCK)
    fs.sync()
    fs.drop_caches()
    return paths


@pytest.mark.parametrize("policy", list(MetadataPolicy), ids=lambda p: p.value)
@pytest.mark.parametrize("label", ["cffs", "grouping"])
def test_cold_overwrite_writes_groups_not_blocks(label, policy):
    fs = make_fs(label, policy)
    paths = populate(fs)
    stats = fs.device.disk.stats
    before = stats.writes
    for i, path in enumerate(paths):
        fs.write_file(path, bytes([(i + 7) % 251]) * BLOCK)
    per_file = (stats.writes - before) / N_FILES
    # One request per 16-block group is 0.0625/file; one per evicted
    # block (the descriptor-residency accident) is about 0.8.
    assert per_file <= 0.15, "%.3f write requests per overwritten file" % per_file
    fs.sync()
    fs.drop_caches()
    for i, path in enumerate(paths):
        assert fs.read_file(path) == bytes([(i + 7) % 251]) * BLOCK
    fs.sync()
    report = fsck_cffs(fs.device)
    assert report.pristine, report.render()


class _NoIO:
    """Device proxy for the duration of one hook call: any read or
    write raises, anything else (geometry, clock) passes through."""

    def __init__(self, device):
        self._device = device

    def __getattr__(self, name):
        if name.startswith(("read", "write", "flush")):
            raise AssertionError("gather hook called device.%s" % name)
        return getattr(self._device, name)


@pytest.mark.parametrize("desc_cached", [False, True], ids=["cold", "warm"])
def test_gather_hook_is_pure(desc_cached):
    fs = make_fs("cffs", cache_blocks=512)
    paths = populate(fs, 40)
    for path in paths[:20]:
        fs.write_file(path, b"n" * BLOCK)
    cache = fs.cache
    # The victim: a dirty block of the extent holding the most dirty blocks.
    by_extent = {}
    for bno in sorted(cache._dirty):
        by_extent.setdefault(fs.groups.extent_of_block(bno), []).append(bno)
    ext, members = max(
        ((e, m) for e, m in by_extent.items() if e is not None),
        key=lambda em: len(em[1]))
    assert len(members) > 1
    victim = members[0]
    desc_bno, _ = fs.groups._desc_location(ext)
    if desc_cached:
        read_desc(fs.groups, ext)
    assert (cache.peek(desc_bno) is not None) == desc_cached

    resident = list(cache._phys)  # LRU order included
    dirty = set(cache._dirty)
    counters = (cache.hits, cache.misses, cache.evictions)
    real = cache.device
    cache.device = fs.device = _NoIO(real)
    try:
        companions = set(cache.flush_companions(victim))
    finally:
        cache.device = fs.device = real
    assert list(cache._phys) == resident
    assert set(cache._dirty) == dirty
    assert (cache.hits, cache.misses, cache.evictions) == counters
    assert (cache.peek(desc_bno) is not None) == desc_cached

    base = fs.groups.extent_base(ext)
    span = set(range(base, base + fs.config.group_span))
    assert victim in companions
    # Every dirty block of the victim's extent travels with it.
    assert dirty & span <= companions


def test_eviction_span_reports_blocks_and_requests():
    """Blocks per eviction is readable from a trace: the write-back
    span carries ``requests`` next to ``blocks``, like both flushes."""
    fs = make_fs("cffs")
    paths = populate(fs)
    tracer = obs.install(obs.Tracer(clock=fs.device.clock))
    try:
        for path in paths:
            fs.write_file(path, b"t" * BLOCK)
    finally:
        obs.uninstall()
    spans = [s for s in tracer.spans
             if (s.layer, s.op) == ("cache", "evict_writeback")]
    assert spans
    assert all(set(s.counters) == {"blocks", "requests"} for s in spans)
    # Whole groups, one request each.
    assert max(s.counters["blocks"] for s in spans) == fs.config.group_span
    assert (sum(s.counters["blocks"] for s in spans)
            >= 8 * sum(s.counters["requests"] for s in spans))
