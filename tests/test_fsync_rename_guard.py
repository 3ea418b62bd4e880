"""Tests for fsync and the rename cycle guard."""

import pytest

from repro.errors import InvalidArgument
from tests.conftest import dirty_count, make_cffs


class TestRenameCycleGuard:
    def test_rename_into_own_subtree_rejected(self, anyfs):
        anyfs.mkdir("/a")
        anyfs.mkdir("/a/b")
        with pytest.raises(InvalidArgument):
            anyfs.rename("/a", "/a/b/c")

    def test_rename_onto_own_child_name_rejected(self, anyfs):
        anyfs.mkdir("/a")
        with pytest.raises(InvalidArgument):
            anyfs.rename("/a", "/a/a")

    def test_sibling_with_prefix_name_ok(self, anyfs):
        """'/ab' is not inside '/a' — prefix check is per component."""
        anyfs.mkdir("/a")
        anyfs.mkdir("/ab")
        anyfs.rename("/a", "/ab/a")
        assert anyfs.exists("/ab/a")

    def test_rename_up_the_tree_ok(self, anyfs):
        anyfs.mkdir("/a")
        anyfs.mkdir("/a/b")
        anyfs.rename("/a/b", "/b")
        assert anyfs.exists("/b")


class TestFsync:
    def test_fsync_writes_dirty_data(self, anyfs):
        fd = anyfs.open("/f", create=True)
        anyfs.pwrite(fd, 0, b"durable" * 100)
        nreq = anyfs.fsync(fd)
        anyfs.close(fd)
        assert nreq >= 1
        # The data is now on the device even though no sync() ran.
        handle = anyfs._resolve("/f")
        bno = handle.direct[0]
        assert anyfs.device.peek_block(bno)[:7] == b"durable"

    def test_fsync_clean_file_writes_nothing(self, anyfs):
        anyfs.write_file("/f", b"x" * 100)
        anyfs.sync()
        fd = anyfs.open("/f")
        assert anyfs.fsync(fd) == 0
        anyfs.close(fd)

    def test_fsync_batches_grouped_blocks(self):
        fs = make_cffs()
        fs.mkdir("/d")
        fd = fs.open("/d/f", create=True)
        fs.pwrite(fd, 0, b"g" * (4 * 4096))
        before = fs.device.disk.stats.snapshot()
        fs.fsync(fd)
        fs.close(fd)
        delta = fs.device.disk.stats.delta(before)
        # The four adjacent grouped data blocks coalesce into one
        # 32-sector request; the rest is the metadata chain.
        assert delta.request_sizes.get(32) == 1
        assert delta.writes <= 4  # data + dir block + root block + sb

    def test_fsync_other_files_stay_dirty(self, anyfs):
        anyfs.write_file("/other", b"o" * 5000)
        fd = anyfs.open("/f", create=True)
        anyfs.pwrite(fd, 0, b"f" * 100)
        anyfs.fsync(fd)
        anyfs.close(fd)
        assert dirty_count(anyfs.cache) > 0  # /other's blocks still dirty

    def test_fsync_then_crash_is_durable(self):
        from repro.blockdev.device import BlockDevice
        from repro.cache.policy import MetadataPolicy
        from tests.conftest import TEST_PROFILE

        fs = make_cffs(policy=MetadataPolicy.DELAYED_METADATA)
        fs.mkdir("/d")
        fs.sync()
        fd = fs.open("/d/precious", create=True)
        fs.pwrite(fd, 0, b"must survive")
        fs.fsync(fd)
        fs.close(fd)
        # Crash: only media state survives.
        image = BlockDevice(TEST_PROFILE)
        for bno, data in fs.device._blocks.items():
            image.poke_block(bno, data)
        from repro.core.filesystem import CFFS

        survivor = CFFS.mount(image)
        assert survivor.read_file("/d/precious") == b"must survive"
