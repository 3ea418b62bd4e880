"""A group fetch must never replace newer cached data with the extent
image it read.

With a cache small enough to evict *during* the block-by-block install
of a fetched group, installing one slot can evict a dirty sibling of the
same extent (written back correctly); re-installing that sibling from
the extent image — read before the write-back — would resurrect the old
bytes as a clean buffer.
"""

import random

import pytest

from repro.cache.policy import MetadataPolicy
from repro.core.filesystem import CFFS, CFFSConfig
from tests.conftest import make_device


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("cache_blocks", [24, 48])
def test_interleaved_appends_and_reads_stay_byte_exact(seed, cache_blocks):
    rng = random.Random(seed)
    fs = CFFS.mkfs(make_device(), CFFSConfig(
        blocks_per_cg=512, policy=MetadataPolicy.JOURNAL_METADATA,
        cache_blocks=cache_blocks))
    fs.mkdir("/d")
    model = {}
    for i in range(40):
        path = "/d/f%03d" % i
        model[path] = bytes([i]) * rng.randrange(500, 3000)
        fs.write_file(path, model[path])
    fs.sync()
    paths = sorted(model)
    for op in range(600):
        path = rng.choice(paths)
        if rng.random() < 0.5:
            extra = bytes([op % 251]) * rng.randrange(100, 2500)
            fd = fs.open(path)
            fs.pwrite(fd, len(model[path]), extra)
            fs.close(fd)
            model[path] += extra
        else:
            assert fs.read_file(path) == model[path], (
                "op %d: read of %s returned wrong bytes" % (op, path))
    fs.sync()
    fs.drop_caches()
    for path in paths:
        assert fs.read_file(path) == model[path]
