"""C-FFS-specific semantics: embedding, externalization, explicit
grouping, and large-file migration."""

import random

import pytest

from repro.blockdev.device import BLOCK_SIZE
from repro.cache.policy import MetadataPolicy
from repro.core import layout
from repro.core.inode import LOC_DIR, LOC_EXT, LOC_SUPER
from repro.ffs.layout import NDIRECT
from tests.conftest import make_cffs, read_desc


class TestEmbedding:
    def test_new_file_is_embedded(self, cffs):
        cffs.create("/a")
        assert cffs.stat("/a").embedded

    def test_root_inode_in_superblock(self, cffs):
        root = cffs._root_handle()
        assert root.loc == (LOC_SUPER,)

    def test_subdirectory_embedded_in_parent(self, cffs):
        cffs.mkdir("/d")
        handle = cffs._resolve("/d")
        assert handle.loc[0] == LOC_DIR
        assert handle.loc[1] is cffs._root_handle()

    def test_no_static_inode_consumption(self, cffs):
        """Creating files costs no inode-table space (only dir blocks)."""
        free0 = cffs.free_blocks()
        for i in range(30):
            cffs.create("/f%02d" % i)
        # Only the root directory's data block was consumed.
        assert free0 - cffs.free_blocks() <= 1

    def test_conventional_config_uses_external(self):
        fs = make_cffs(embedded=False, grouping=False)
        fs.create("/a")
        assert not fs.stat("/a").embedded
        handle = fs._resolve("/a")
        assert handle.loc[0] == LOC_EXT


class TestExternalization:
    def test_link_externalizes(self, cffs):
        cffs.write_file("/a", b"data")
        assert cffs.stat("/a").embedded
        cffs.link("/a", "/b")
        assert not cffs.stat("/a").embedded
        assert cffs._resolve("/a").loc[0] == LOC_EXT

    def test_externalized_survives_cold_remount(self, cffs):
        cffs.write_file("/a", b"payload")
        cffs.link("/a", "/b")
        cffs.sync()
        remounted = type(cffs).mount(cffs.device)
        assert remounted.read_file("/a") == b"payload"
        assert remounted.read_file("/b") == b"payload"
        assert remounted.stat("/a").nlink == 2

    def test_external_table_grows_once(self, cffs):
        for i in range(3):
            cffs.write_file("/f%d" % i, b"x")
            cffs.link("/f%d" % i, "/l%d" % i)
        assert cffs.sb["ext_size"] == BLOCK_SIZE  # 32 slots per block

    def test_external_slots_reused(self, cffs):
        cffs.create("/a")
        cffs.link("/a", "/b")
        cffs.unlink("/a")
        cffs.unlink("/b")
        cffs.create("/c")
        cffs.link("/c", "/d")
        assert cffs.sb["ext_size"] == BLOCK_SIZE

    def test_stays_external_after_link_drop(self, cffs):
        """Externalization is one-way (the paper does not re-embed)."""
        cffs.create("/a")
        cffs.link("/a", "/b")
        cffs.unlink("/b")
        assert not cffs.stat("/a").embedded


class TestGrouping:
    def test_small_file_grouped(self, cffs):
        cffs.write_file("/a", b"x" * 1024)
        assert cffs.stat("/a").grouped

    def test_siblings_share_extent(self, cffs):
        cffs.mkdir("/d")
        for i in range(8):
            cffs.write_file("/d/f%d" % i, b"y" * 1024)
        handles = [cffs._resolve("/d/f%d" % i) for i in range(8)]
        extents = {cffs.groups.extent_of_block(h.direct[0]) for h in handles}
        assert len(extents) == 1

    def test_grouped_blocks_adjacent(self, cffs):
        cffs.mkdir("/d")
        for i in range(8):
            cffs.write_file("/d/f%d" % i, b"y" * 1024)
        bnos = sorted(cffs._resolve("/d/f%d" % i).direct[0] for i in range(8))
        assert bnos == list(range(bnos[0], bnos[0] + 8))

    def test_different_dirs_different_groups(self, cffs):
        cffs.mkdir("/d1")
        cffs.mkdir("/d2")
        cffs.write_file("/d1/a", b"1" * 1024)
        cffs.write_file("/d2/b", b"2" * 1024)
        e1 = cffs.groups.extent_of_block(cffs._resolve("/d1/a").direct[0])
        e2 = cffs.groups.extent_of_block(cffs._resolve("/d2/b").direct[0])
        assert e1 != e2

    def test_group_read_installs_siblings(self, cffs):
        """Reading one grouped file fetches the whole group in one
        request and installs siblings by physical address."""
        cffs.mkdir("/d")
        for i in range(10):
            cffs.write_file("/d/f%d" % i, bytes([i]) * 1024)
        cffs.sync()
        cffs.drop_caches()
        cffs.read_file("/d/f0")
        stats = cffs.device.disk.stats
        before = stats.reads
        # Sibling reads are now cache hits: no further disk reads.
        for i in range(1, 10):
            assert cffs.read_file("/d/f%d" % i) == bytes([i]) * 1024
        assert stats.reads == before

    def test_group_slot_freed_on_unlink(self, cffs):
        cffs.mkdir("/d")
        cffs.write_file("/d/a", b"a" * 1024)
        cffs.write_file("/d/b", b"b" * 1024)
        ext = cffs.groups.extent_of_block(cffs._resolve("/d/a").direct[0])
        mask_before = read_desc(cffs.groups, ext)["valid_mask"]
        cffs.unlink("/d/a")
        mask_after = read_desc(cffs.groups, ext)["valid_mask"]
        assert bin(mask_after).count("1") == bin(mask_before).count("1") - 1

    def test_extent_released_when_empty(self, cffs):
        cffs.mkdir("/d")
        cffs.write_file("/d/a", b"a" * 1024)
        ext = cffs.groups.extent_of_block(cffs._resolve("/d/a").direct[0])
        free_with_group = cffs.free_blocks()
        cffs.unlink("/d/a")
        assert read_desc(cffs.groups, ext)["state"] == layout.EXT_FREE
        assert cffs.free_blocks() == free_with_group + cffs.config.group_span

    def test_deleted_slot_reused(self, cffs):
        cffs.mkdir("/d")
        for i in range(5):
            cffs.write_file("/d/f%d" % i, b"z" * 1024)
        victim_bno = cffs._resolve("/d/f2").direct[0]
        cffs.unlink("/d/f2")
        cffs.write_file("/d/fnew", b"n" * 1024)
        assert cffs._resolve("/d/fnew").direct[0] == victim_bno

    def test_group_descriptor_records_owner(self, cffs):
        cffs.mkdir("/d")
        cffs.write_file("/d/a", b"a" * 1024)
        dirh = cffs._resolve("/d")
        ext = cffs.groups.extent_of_block(cffs._resolve("/d/a").direct[0])
        assert read_desc(cffs.groups, ext)["owner"] == dirh.fileid

    def test_slot_records_file_and_offset(self, cffs):
        cffs.mkdir("/d")
        cffs.write_file("/d/a", b"a" * (3 * 1024 * 4))  # 3 blocks
        h = cffs._resolve("/d/a")
        for idx in range(3):
            bno = h.direct[idx]
            ext = cffs.groups.extent_of_block(bno)
            desc = read_desc(cffs.groups, ext)
            slot = bno - cffs.groups.extent_base(ext)
            assert desc["slots"][slot] == (h.fileid, idx)

    def test_grouping_disabled_config(self):
        fs = make_cffs(grouping=False)
        fs.write_file("/a", b"x" * 1024)
        assert not fs.stat("/a").grouped

    def test_directory_data_not_grouped(self, cffs):
        cffs.mkdir("/d")
        for i in range(40):
            cffs.create("/d/f%02d" % i)
        dirh = cffs._resolve("/d")
        ext = cffs.groups.extent_of_block(dirh.direct[0])
        if ext is not None:
            assert read_desc(cffs.groups, ext)["state"] != layout.EXT_GROUPED


class TestLargeFileMigration:
    def test_grouping_limit_is_the_direct_pointer_count(self, cffs):
        cffs.mkdir("/d")
        cffs.write_file("/d/edge", b"e" * (BLOCK_SIZE * NDIRECT))
        cffs.write_file("/d/over", b"o" * (BLOCK_SIZE * (NDIRECT + 1)))
        assert cffs.stat("/d/edge").grouped
        assert not cffs._resolve("/d/edge").is_large
        assert not cffs.stat("/d/over").grouped
        assert cffs._resolve("/d/over").is_large

    def test_large_file_not_grouped(self, cffs):
        big = BLOCK_SIZE * (NDIRECT + 4)
        cffs.write_file("/big", b"B" * big)
        st = cffs.stat("/big")
        assert not st.grouped
        assert cffs._resolve("/big").is_large

    def test_migration_preserves_content(self, cffs):
        data = bytes(range(256)) * ((BLOCK_SIZE // 256) * 20)
        fd = cffs.open("/grow", create=True)
        # Grow incrementally through the threshold.
        for i in range(0, len(data), 4096):
            cffs.pwrite(fd, i, data[i:i + 4096])
        cffs.close(fd)
        assert cffs.read_file("/grow") == data

    def test_migrated_slots_released(self, cffs):
        cffs.mkdir("/d")
        cffs.write_file("/d/small", b"s" * 1024)
        small_ext = cffs.groups.extent_of_block(cffs._resolve("/d/small").direct[0])
        big = BLOCK_SIZE * (NDIRECT + 2)
        cffs.write_file("/d/grow", b"g" * 1024)
        cffs.write_file("/d/grow", b"g" * big)  # overwrite bigger
        desc = read_desc(cffs.groups, small_ext)
        # Only the small file's slot remains in the group.
        owners = {fid for fid, _ in desc["slots"] if fid}
        assert owners == {cffs._resolve("/d/small").fileid}

    def test_large_file_survives_cold_read(self, cffs):
        big = b"L" * (BLOCK_SIZE * 20)
        cffs.write_file("/big", big)
        cffs.sync()
        cffs.drop_caches()
        assert cffs.read_file("/big") == big

    def test_large_flag_persists(self, cffs):
        cffs.write_file("/big", b"x" * (BLOCK_SIZE * 16))
        cffs.sync()
        remounted = type(cffs).mount(cffs.device)
        assert remounted._resolve("/big").is_large


class TestSyncWriteCounts:
    """The paper's core metadata claim: embedded inodes halve (create)
    or better (delete) the synchronous write count."""

    def _creates(self, fs, n=20):
        fs.mkdir("/d")
        fs.sync()
        before = fs.device.disk.stats.writes
        for i in range(n):
            fs.create("/d/f%03d" % i)
        return fs.device.disk.stats.writes - before

    def test_embedded_create_single_write(self):
        fs = make_cffs(embedded=True, grouping=False)
        writes = self._creates(fs, 20)
        assert writes <= 22  # ~1 per create (+ dir growth)

    def test_external_create_two_writes(self):
        fs = make_cffs(embedded=False, grouping=False)
        writes = self._creates(fs, 20)
        assert writes >= 40  # 2 per create

    def test_embedded_delete_single_write(self):
        fs = make_cffs(embedded=True, grouping=False)
        for i in range(20):
            fs.create("/f%03d" % i)
        fs.sync()
        before = fs.device.disk.stats.writes
        for i in range(20):
            fs.unlink("/f%03d" % i)
        assert fs.device.disk.stats.writes - before <= 21

    def test_external_delete_three_writes(self):
        fs = make_cffs(embedded=False, grouping=False)
        for i in range(20):
            fs.create("/f%03d" % i)
        fs.sync()
        before = fs.device.disk.stats.writes
        for i in range(20):
            fs.unlink("/f%03d" % i)
        assert fs.device.disk.stats.writes - before >= 60

    def test_softdep_mode_no_sync_writes(self):
        from repro.cache.policy import MetadataPolicy

        fs = make_cffs(policy=MetadataPolicy.DELAYED_METADATA)
        before = fs.device.disk.stats.writes
        for i in range(20):
            fs.create("/f%03d" % i)
        assert fs.device.disk.stats.writes == before  # all delayed


def soft_updates_churn(fs, seed: int, steps: int):
    """A seeded churn of creates, unlinks, renames, appends, mkdirs and
    dropped caches; returns the directories and files it left."""
    rng = random.Random(seed)
    dirs = ["/a", "/b"]
    for d in dirs:
        fs.mkdir(d)
    files = {}
    for i in range(steps):
        roll = rng.random()
        if roll < 0.4 or not files:
            path = "%s/%s%d" % (rng.choice(dirs), "n" * rng.randrange(4, 90), i)
            files[path] = b"x" * rng.randrange(1, 9000)
            fs.write_file(path, files[path])
        elif roll < 0.55:
            path = rng.choice(sorted(files))
            fs.unlink(path)
            del files[path]
        elif roll < 0.65:
            old = rng.choice(sorted(files))
            new = "%s/r%d" % (rng.choice(dirs), i)
            fs.rename(old, new)
            files[new] = files.pop(old)
        elif roll < 0.85:
            path = rng.choice(sorted(files))
            more = b"+" * rng.randrange(1, 5000)
            fd = fs.open(path)
            try:
                fs.pwrite(fd, len(files[path]), more)
            finally:
                fs.close(fd)
            files[path] += more
        elif roll < 0.95:
            d = "%s/d%d" % (rng.choice(dirs), i)
            fs.mkdir(d)
            dirs.append(d)
        else:
            fs.drop_caches()
    return dirs, files


class TestSoftUpdatesSmallCache:
    """Under soft updates a 16-block cache fills with dirty blocks whose
    writes wait on others.  A directory edit must still reach the disk:
    its block is marked dirty before the directory's own inode store
    reads another block (with external inodes, an inode-file block) that
    could evict it."""

    @pytest.mark.parametrize("embedded", [False, True],
                             ids=["external", "embedded"])
    def test_churn_keeps_every_entry(self, embedded):
        fs = make_cffs(MetadataPolicy.DELAYED_METADATA, embedded=embedded,
                       grouping=False, cache_blocks=16)
        # With external inodes this seed reaches a directory edit while
        # every other buffer is dirty and deferred.
        dirs, files = soft_updates_churn(fs, 20, 250)
        fs.sync()
        fs.drop_caches()
        for d in dirs:
            want = [p.rsplit("/", 1)[1] for p in list(files) + dirs
                    if p.rsplit("/", 1)[0] == d]
            assert sorted(fs.readdir(d)) == sorted(want)
        for path, data in files.items():
            assert fs.read_file(path) == data
