"""Edge-case coverage for the public FileSystem API surface."""

import pytest

from repro.blockdev.device import BLOCK_SIZE
from repro.errors import (
    FileNotFound,
    InvalidArgument,
    NameTooLong,
    NotADirectory,
)
from repro.fsck import check_image


class TestArgumentValidation:
    def test_negative_pread_offset(self, anyfs):
        fd = anyfs.open("/f", create=True)
        with pytest.raises(InvalidArgument):
            anyfs.pread(fd, -1, 10)
        anyfs.close(fd)

    def test_negative_read_size(self, anyfs):
        fd = anyfs.open("/f", create=True)
        with pytest.raises(InvalidArgument):
            anyfs.pread(fd, 0, -5)
        anyfs.close(fd)

    def test_negative_pwrite_offset(self, anyfs):
        fd = anyfs.open("/f", create=True)
        with pytest.raises(InvalidArgument):
            anyfs.pwrite(fd, -1, b"x")
        anyfs.close(fd)

    def test_negative_truncate(self, anyfs):
        anyfs.create("/f")
        with pytest.raises(InvalidArgument):
            anyfs.truncate("/f", -1)

    def test_empty_write_is_noop(self, anyfs):
        fd = anyfs.open("/f", create=True)
        assert anyfs.pwrite(fd, 0, b"") == 0
        anyfs.close(fd)
        assert anyfs.stat("/f").size == 0

    def test_write_file_empty_truncates(self, anyfs):
        anyfs.write_file("/f", b"content")
        anyfs.write_file("/f", b"")
        assert anyfs.stat("/f").size == 0
        assert anyfs.read_file("/f") == b""

    def test_relative_path_rejected(self, anyfs):
        with pytest.raises(InvalidArgument):
            anyfs.create("relative/path")

    def test_dot_path_rejected(self, anyfs):
        with pytest.raises(InvalidArgument):
            anyfs.stat("/a/../b")

    def test_very_long_name_rejected(self, anyfs):
        with pytest.raises(NameTooLong):
            anyfs.create("/" + "n" * 300)

    def test_open_missing_without_create(self, anyfs):
        with pytest.raises(FileNotFound):
            anyfs.open("/missing")

    def test_path_through_file(self, anyfs):
        anyfs.write_file("/plainfile", b"x")
        with pytest.raises(NotADirectory):
            anyfs.read_file("/plainfile/child")


class TestNameBytes:
    """A name is measured in UTF-8 bytes, the unit of both formats'
    one-byte ``namelen``: a name that does not fit, or has no UTF-8
    form, is refused before anything is touched."""

    @pytest.mark.parametrize("name, error", [
        ("\u20ac" * 100, NameTooLong),     # 300 bytes in 100 characters
        ("\u20ac" * 200, NameTooLong),     # 600 bytes
        ("\udc80", InvalidArgument),       # a lone surrogate
    ], ids=["300-bytes", "600-bytes", "surrogate"])
    def test_refused_before_anything_is_touched(self, anyfs, name, error):
        anyfs.write_file("/kept", b"k")
        anyfs.sync()
        for attempt in (lambda: anyfs.create("/" + name),
                        lambda: anyfs.mkdir("/" + name),
                        lambda: anyfs.open("/" + name, create=True),
                        lambda: anyfs.rename("/kept", "/" + name)):
            with pytest.raises(error):
                attempt()
        assert anyfs.readdir("/") == ["kept"]
        anyfs.sync()
        report = check_image(anyfs.device)
        assert report.pristine, report.render()

    def test_longest_name_fits(self, anyfs):
        name = "\u20ac" * 85                    # 255 bytes
        anyfs.write_file("/" + name, b"x")
        assert anyfs.readdir("/") == [name]
        assert anyfs.read_file("/" + name) == b"x"


class TestOffsetSemantics:
    def test_interleaved_read_write_fd(self, anyfs):
        fd = anyfs.open("/f", create=True)
        anyfs.write(fd, b"aaaa")
        anyfs.pwrite(fd, 2, b"BB")
        assert anyfs.read(fd, 10) == b""        # the offset stayed at 4
        anyfs.write(fd, b"c")
        assert anyfs.pread(fd, 0, 10) == b"aaBBc"
        anyfs.close(fd)

    def test_two_fds_independent_offsets(self, anyfs):
        anyfs.write_file("/f", b"0123456789")
        fd1 = anyfs.open("/f")
        fd2 = anyfs.open("/f")
        assert anyfs.read(fd1, 3) == b"012"
        assert anyfs.read(fd2, 3) == b"012"
        assert anyfs.read(fd1, 3) == b"345"
        anyfs.close(fd1)
        anyfs.close(fd2)

    def test_write_past_eof_creates_hole(self, anyfs):
        fd = anyfs.open("/f", create=True)
        anyfs.pwrite(fd, 5 * BLOCK_SIZE + 7, b"tail")
        anyfs.close(fd)
        st = anyfs.stat("/f")
        assert st.size == 5 * BLOCK_SIZE + 11
        assert st.nblocks == 1  # only the tail block is allocated

    def test_pwrite_then_pread_same_fd(self, anyfs):
        fd = anyfs.open("/f", create=True)
        anyfs.pwrite(fd, 100, b"spot")
        assert anyfs.pread(fd, 100, 4) == b"spot"
        # positional I/O must not disturb the seek offset
        assert anyfs.read(fd, 2) == b"\0\0"
        anyfs.close(fd)


class TestStatDetails:
    def test_nblocks_counts_data_only(self, anyfs):
        anyfs.write_file("/f", b"d" * (14 * BLOCK_SIZE))  # needs an indirect
        assert anyfs.stat("/f").nblocks == 14

    def test_file_ids_unique(self, anyfs):
        anyfs.create("/a")
        anyfs.create("/b")
        assert anyfs.stat("/a").file_id != anyfs.stat("/b").file_id

    def test_file_id_stable_across_rename(self, anyfs):
        anyfs.create("/a")
        fid = anyfs.stat("/a").file_id
        anyfs.rename("/a", "/b")
        assert anyfs.stat("/b").file_id == fid

    def test_root_is_directory(self, anyfs):
        st = anyfs.stat("/")
        assert st.is_dir
        assert st.nlink >= 1


class TestSyncBehaviour:
    def test_sync_idempotent(self, anyfs):
        anyfs.write_file("/f", b"x" * 5000)
        anyfs.sync()
        before = anyfs.device.disk.stats.writes
        anyfs.sync()
        second = anyfs.device.disk.stats.writes - before
        assert second <= 2  # at most superblock/descriptor rewrites

    def test_drop_caches_preserves_everything(self, anyfs):
        paths = {}
        for i in range(15):
            path = "/persist%02d" % i
            data = bytes([i]) * (100 * (i + 1))
            anyfs.write_file(path, data)
            paths[path] = data
        anyfs.drop_caches()
        for path, data in paths.items():
            assert anyfs.read_file(path) == data
