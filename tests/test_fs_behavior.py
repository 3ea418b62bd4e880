"""Shared behaviour suite: runs against FFS, C-FFS, and the
conventional (both-techniques-off) configuration via the ``anyfs``
fixture.  Anything here is a portable file system contract."""

import pytest

from repro.blockdev.device import BLOCK_SIZE
from repro.errors import (
    BadFileDescriptor,
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    IsADirectory,
    NotADirectory,
)
from repro.vfs.stat import FileKind


class TestCreateAndLookup:
    def test_create_then_stat(self, anyfs):
        anyfs.create("/a")
        st = anyfs.stat("/a")
        assert st.kind is FileKind.FILE
        assert st.size == 0
        assert st.nlink == 1

    def test_create_duplicate_fails(self, anyfs):
        anyfs.create("/a")
        with pytest.raises(FileExists):
            anyfs.create("/a")

    def test_missing_file(self, anyfs):
        with pytest.raises(FileNotFound):
            anyfs.stat("/nope")

    def test_missing_parent(self, anyfs):
        with pytest.raises(FileNotFound):
            anyfs.create("/no/such/file")

    def test_file_as_directory_component(self, anyfs):
        anyfs.create("/a")
        with pytest.raises(NotADirectory):
            anyfs.create("/a/b")

    def test_exists(self, anyfs):
        assert not anyfs.exists("/a")
        anyfs.create("/a")
        assert anyfs.exists("/a")

    def test_root_stat(self, anyfs):
        assert anyfs.stat("/").kind is FileKind.DIRECTORY

    def test_many_names_in_one_directory(self, anyfs):
        names = ["f%03d" % i for i in range(200)]
        for n in names:
            anyfs.create("/" + n)
        assert sorted(anyfs.readdir("/")) == sorted(names)


class TestReadWrite:
    def test_roundtrip_small(self, anyfs):
        anyfs.write_file("/a", b"hello")
        assert anyfs.read_file("/a") == b"hello"

    def test_roundtrip_exact_block(self, anyfs):
        data = bytes(range(256)) * 16
        anyfs.write_file("/a", data)
        assert anyfs.read_file("/a") == data

    def test_roundtrip_multiblock(self, anyfs):
        data = b"m" * (3 * BLOCK_SIZE + 123)
        anyfs.write_file("/a", data)
        assert anyfs.read_file("/a") == data

    def test_roundtrip_indirect(self, anyfs):
        data = b"i" * (14 * BLOCK_SIZE)  # beyond 12 direct pointers
        anyfs.write_file("/a", data)
        assert anyfs.read_file("/a") == data

    def test_overwrite_shrinks_nothing(self, anyfs):
        anyfs.write_file("/a", b"x" * 100)
        fd = anyfs.open("/a")
        anyfs.pwrite(fd, 0, b"y" * 10)
        anyfs.close(fd)
        got = anyfs.read_file("/a")
        assert got == b"y" * 10 + b"x" * 90

    def test_sparse_hole_reads_zero(self, anyfs):
        fd = anyfs.open("/a", create=True)
        anyfs.pwrite(fd, 2 * BLOCK_SIZE, b"end")
        data = anyfs.pread(fd, 0, 2 * BLOCK_SIZE + 3)
        anyfs.close(fd)
        assert data[:2 * BLOCK_SIZE] == bytes(2 * BLOCK_SIZE)
        assert data[-3:] == b"end"

    def test_read_past_eof_truncated(self, anyfs):
        anyfs.write_file("/a", b"abc")
        fd = anyfs.open("/a")
        assert anyfs.pread(fd, 1, 100) == b"bc"
        assert anyfs.pread(fd, 10, 5) == b""
        anyfs.close(fd)

    def test_sequential_fd_io(self, anyfs):
        fd = anyfs.open("/a", create=True)
        anyfs.write(fd, b"one")
        anyfs.write(fd, b"two")
        assert anyfs.pread(fd, 0, 6) == b"onetwo"
        anyfs.close(fd)

    def test_closed_fd_rejected(self, anyfs):
        fd = anyfs.open("/a", create=True)
        anyfs.close(fd)
        with pytest.raises(BadFileDescriptor):
            anyfs.read(fd, 1)

    def test_open_directory_for_io_fails(self, anyfs):
        anyfs.mkdir("/d")
        with pytest.raises(IsADirectory):
            anyfs.open("/d")

    def test_size_tracks_writes(self, anyfs):
        fd = anyfs.open("/a", create=True)
        anyfs.pwrite(fd, 0, b"x" * 100)
        anyfs.pwrite(fd, 5000, b"y" * 10)
        anyfs.close(fd)
        assert anyfs.stat("/a").size == 5010

    def test_mtime_advances(self, anyfs):
        anyfs.write_file("/a", b"1")
        t1 = anyfs._resolve("/a").mtime
        anyfs.write_file("/b", b"filler")  # advance simulated time
        anyfs.write_file("/a", b"22")
        assert anyfs._resolve("/a").mtime > t1
        assert anyfs.stat("/a").size == 2


class TestTruncate:
    def test_truncate_to_zero(self, anyfs):
        anyfs.write_file("/a", b"x" * 10000)
        anyfs.truncate("/a", 0)
        st = anyfs.stat("/a")
        assert st.size == 0
        assert st.nblocks == 0
        assert anyfs.read_file("/a") == b""

    def test_truncate_partial(self, anyfs):
        anyfs.write_file("/a", b"x" * 10000)
        anyfs.truncate("/a", 100)
        assert anyfs.read_file("/a") == b"x" * 100

    def test_truncate_frees_blocks(self, anyfs):
        free0 = anyfs.free_blocks()
        anyfs.write_file("/a", b"x" * (20 * BLOCK_SIZE))
        assert anyfs.free_blocks() < free0
        anyfs.truncate("/a", 0)
        assert anyfs.free_blocks() >= free0 - 2  # indirect slack allowed

    def test_truncate_then_grow_reads_zeros(self, anyfs):
        anyfs.write_file("/a", b"x" * 3000)
        anyfs.truncate("/a", 1000)
        fd = anyfs.open("/a")
        anyfs.pwrite(fd, 2000, b"!")
        data = anyfs.pread(fd, 0, 2001)
        anyfs.close(fd)
        assert data[:1000] == b"x" * 1000
        assert data[1000:2000] == bytes(1000)
        assert data[2000:] == b"!"

    def test_truncate_grow_extends_logical_size(self, anyfs):
        anyfs.write_file("/a", b"ab")
        anyfs.truncate("/a", 100)
        assert anyfs.stat("/a").size == 100
        assert anyfs.read_file("/a") == b"ab" + bytes(98)

    def test_truncate_directory_fails(self, anyfs):
        anyfs.mkdir("/d")
        with pytest.raises(IsADirectory):
            anyfs.truncate("/d", 0)


class TestUnlink:
    def test_unlink_removes_name(self, anyfs):
        anyfs.write_file("/a", b"x")
        anyfs.unlink("/a")
        assert not anyfs.exists("/a")

    def test_unlink_frees_space(self, anyfs):
        # Warm up structures that legitimately persist (the root
        # directory's first block, the external inode table).
        anyfs.write_file("/warm", b"w")
        anyfs.unlink("/warm")
        free0 = anyfs.free_blocks()
        anyfs.write_file("/a", b"x" * (8 * BLOCK_SIZE))
        anyfs.unlink("/a")
        assert anyfs.free_blocks() == free0

    def test_unlink_missing(self, anyfs):
        with pytest.raises(FileNotFound):
            anyfs.unlink("/a")

    def test_unlink_directory_fails(self, anyfs):
        anyfs.mkdir("/d")
        with pytest.raises(IsADirectory):
            anyfs.unlink("/d")

    def test_name_reusable_after_unlink(self, anyfs):
        anyfs.write_file("/a", b"old")
        anyfs.unlink("/a")
        anyfs.write_file("/a", b"new")
        assert anyfs.read_file("/a") == b"new"

    def test_create_delete_storm(self, anyfs):
        for round_ in range(3):
            for i in range(50):
                anyfs.write_file("/f%02d" % i, b"d" * 512)
            for i in range(50):
                anyfs.unlink("/f%02d" % i)
        assert anyfs.readdir("/") == []


class TestDirectories:
    def test_mkdir_and_nest(self, anyfs):
        anyfs.mkdir("/d")
        anyfs.mkdir("/d/e")
        anyfs.write_file("/d/e/f", b"deep")
        assert anyfs.read_file("/d/e/f") == b"deep"

    def test_mkdir_duplicate(self, anyfs):
        anyfs.mkdir("/d")
        with pytest.raises(FileExists):
            anyfs.mkdir("/d")

    def test_readdir_empty(self, anyfs):
        anyfs.mkdir("/d")
        assert anyfs.readdir("/d") == []

    def test_readdir_of_file_fails(self, anyfs):
        anyfs.create("/a")
        with pytest.raises(NotADirectory):
            anyfs.readdir("/a")

    def test_rmdir(self, anyfs):
        anyfs.mkdir("/d")
        anyfs.rmdir("/d")
        assert not anyfs.exists("/d")

    def test_rmdir_nonempty(self, anyfs):
        anyfs.mkdir("/d")
        anyfs.create("/d/a")
        with pytest.raises(DirectoryNotEmpty):
            anyfs.rmdir("/d")

    def test_rmdir_of_file(self, anyfs):
        anyfs.create("/a")
        with pytest.raises(NotADirectory):
            anyfs.rmdir("/a")

    def test_deep_nesting(self, anyfs):
        path = ""
        for i in range(12):
            path += "/d%d" % i
            anyfs.mkdir(path)
        anyfs.write_file(path + "/leaf", b"bottom")
        assert anyfs.read_file(path + "/leaf") == b"bottom"

    def test_directory_grows_past_one_block(self, anyfs):
        anyfs.mkdir("/big")
        names = ["file-with-a-longish-name-%04d" % i for i in range(150)]
        for n in names:
            anyfs.create("/big/" + n)
        assert anyfs.stat("/big").size > BLOCK_SIZE
        assert sorted(anyfs.readdir("/big")) == sorted(names)
        for n in names:
            assert anyfs.exists("/big/" + n)


class TestRename:
    def test_rename_same_dir(self, anyfs):
        anyfs.write_file("/a", b"data")
        anyfs.rename("/a", "/b")
        assert not anyfs.exists("/a")
        assert anyfs.read_file("/b") == b"data"

    def test_rename_across_dirs(self, anyfs):
        anyfs.mkdir("/d1")
        anyfs.mkdir("/d2")
        anyfs.write_file("/d1/a", b"move me")
        anyfs.rename("/d1/a", "/d2/b")
        assert anyfs.read_file("/d2/b") == b"move me"
        assert anyfs.readdir("/d1") == []

    def test_rename_replaces_file(self, anyfs):
        anyfs.write_file("/a", b"new")
        anyfs.write_file("/b", b"old")
        anyfs.rename("/a", "/b")
        assert anyfs.read_file("/b") == b"new"
        assert not anyfs.exists("/a")

    def test_rename_missing_source(self, anyfs):
        with pytest.raises(FileNotFound):
            anyfs.rename("/a", "/b")

    def test_rename_directory(self, anyfs):
        anyfs.mkdir("/d1")
        anyfs.write_file("/d1/x", b"inside")
        anyfs.rename("/d1", "/d2")
        assert anyfs.read_file("/d2/x") == b"inside"
        assert not anyfs.exists("/d1")

    def test_rename_onto_directory_fails(self, anyfs):
        anyfs.create("/a")
        anyfs.mkdir("/d")
        with pytest.raises(FileExists):
            anyfs.rename("/a", "/d")

    def test_rename_then_write(self, anyfs):
        anyfs.write_file("/a", b"v1")
        anyfs.rename("/a", "/b")
        anyfs.write_file("/b", b"v2!")
        assert anyfs.read_file("/b") == b"v2!"


class TestLinks:
    def test_link_shares_data(self, anyfs):
        anyfs.write_file("/a", b"shared")
        anyfs.link("/a", "/b")
        assert anyfs.read_file("/b") == b"shared"
        assert anyfs.stat("/a").nlink == 2
        assert anyfs.stat("/a").file_id == anyfs.stat("/b").file_id

    def test_write_via_one_name_visible_via_other(self, anyfs):
        anyfs.write_file("/a", b"first")
        anyfs.link("/a", "/b")
        fd = anyfs.open("/b")
        anyfs.pwrite(fd, 0, b"FIRST")
        anyfs.close(fd)
        assert anyfs.read_file("/a") == b"FIRST"

    def test_unlink_one_name_keeps_data(self, anyfs):
        anyfs.write_file("/a", b"keep")
        anyfs.link("/a", "/b")
        anyfs.unlink("/a")
        assert anyfs.read_file("/b") == b"keep"
        assert anyfs.stat("/b").nlink == 1

    def test_unlink_last_name_frees(self, anyfs):
        # Warm up persistent structures (root dir block, external
        # inode table — which "grows as needed but does not shrink").
        anyfs.write_file("/warm", b"w")
        anyfs.link("/warm", "/warm2")
        anyfs.unlink("/warm")
        anyfs.unlink("/warm2")
        free0 = anyfs.free_blocks()
        anyfs.write_file("/a", b"x" * (4 * BLOCK_SIZE))
        anyfs.link("/a", "/b")
        anyfs.unlink("/a")
        anyfs.unlink("/b")
        assert anyfs.free_blocks() == free0

    def test_link_to_directory_fails(self, anyfs):
        anyfs.mkdir("/d")
        with pytest.raises(IsADirectory):
            anyfs.link("/d", "/d2")

    def test_link_existing_target(self, anyfs):
        anyfs.create("/a")
        anyfs.create("/b")
        with pytest.raises(FileExists):
            anyfs.link("/a", "/b")


class TestPersistence:
    def test_sync_then_cold_read(self, anyfs):
        anyfs.mkdir("/d")
        anyfs.write_file("/d/a", b"cold data" * 100)
        anyfs.sync()
        anyfs.drop_caches()
        assert anyfs.read_file("/d/a") == b"cold data" * 100

    def test_cold_readdir(self, anyfs):
        anyfs.mkdir("/d")
        for i in range(60):
            anyfs.create("/d/f%02d" % i)
        anyfs.drop_caches()
        assert len(anyfs.readdir("/d")) == 60

    def test_cold_stat_preserves_metadata(self, anyfs):
        anyfs.write_file("/a", b"z" * 12345)
        anyfs.link("/a", "/b")
        anyfs.drop_caches()
        st = anyfs.stat("/a")
        assert st.size == 12345
        assert st.nlink == 2

    def test_everything_survives_remount(self, anyfs):
        anyfs.mkdir("/d")
        anyfs.write_file("/d/a", b"A" * 5000)
        anyfs.write_file("/top", b"B" * 100)
        anyfs.sync()
        remounted = type(anyfs).mount(anyfs.device)
        assert remounted.read_file("/d/a") == b"A" * 5000
        assert remounted.read_file("/top") == b"B" * 100
        assert sorted(remounted.readdir("/")) == ["d", "top"]

    def test_free_counts_stable_across_remount(self, anyfs):
        anyfs.write_file("/a", b"x" * 50000)
        anyfs.sync()
        free = anyfs.free_blocks()
        remounted = type(anyfs).mount(anyfs.device)
        assert remounted.free_blocks() == free
