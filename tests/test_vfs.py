"""Tests for path handling and descriptor bookkeeping."""

import pytest

from repro.errors import BadFileDescriptor, InvalidArgument, NameTooLong
from repro.vfs.fdtable import FdTable, OpenFile
from repro.vfs.path import basename_of, split_path
from tests.conftest import make_cffs, make_ffs


class TestPaths:
    def test_split_collapses_slashes(self):
        assert split_path("//a///b/") == ["a", "b"]

    def test_split_root(self):
        assert split_path("/") == []
        assert split_path("///") == []

    def test_relative_rejected(self):
        with pytest.raises(InvalidArgument):
            split_path("a/b")

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgument):
            split_path("")

    def test_dot_components_rejected(self):
        with pytest.raises(InvalidArgument):
            split_path("/a/./b")
        with pytest.raises(InvalidArgument):
            split_path("/a/../b")

    def test_long_name_rejected(self):
        with pytest.raises(NameTooLong):
            split_path("/" + "x" * 300)
        with pytest.raises(NameTooLong):
            split_path("/a/" + "\u20ac" * 86)     # 86 characters, 258 bytes

    def test_first_bad_component_decides(self):
        with pytest.raises(NameTooLong):
            split_path("/" + "x" * 300 + "/./b")
        with pytest.raises(InvalidArgument):
            split_path("/./" + "x" * 300)

    def test_split(self):
        assert split_path("/a/b/c") == ["a", "b", "c"]
        assert split_path("/") == []

    def test_basename(self):
        assert basename_of("/a/b/c") == (["a", "b"], "c")
        assert basename_of("/c") == ([], "c")

    def test_basename_of_root_invalid(self):
        with pytest.raises(InvalidArgument):
            basename_of("/")


class TestWalkMemo:
    """A parent directory whose walk made no cache call is remembered,
    so a path under it is not walked again."""

    @staticmethod
    def _opens(fs, path, times):
        """``_lookup`` names and cache calls of each of ``times`` opens."""
        names = []
        lookup = fs._lookup

        def counting(dirh, name):
            names.append(name)
            return lookup(dirh, name)

        fs._lookup = counting
        cache = fs.cache
        runs = []
        for _ in range(times):
            del names[:]
            before = cache.hits + cache.misses
            fs.close(fs.open(path))
            runs.append((list(names), cache.hits + cache.misses - before))
        return runs

    @staticmethod
    def _deep(fs):
        for path in ("/a", "/a/b", "/a/b/c"):
            fs.mkdir(path)
        fs.write_file("/a/b/c/f", b"f" * 100)
        return fs

    @pytest.mark.parametrize("make", [make_cffs, make_ffs])
    def test_second_open_looks_up_the_file_only(self, make):
        fs = self._deep(make())
        runs = self._opens(fs, "/a/b/c/f", 3)
        assert [names for names, _calls in runs[1:]] == [["f"], ["f"]]
        fs.drop_caches()
        first, *_ = self._opens(fs, "/a/b/c/f", 1)
        assert first[0] == ["a", "b", "c", "f"]

    def test_conventional_walks_every_component(self):
        # An external inode is read through the cache on every lookup,
        # so no walk of the conventional layout is remembered.
        fs = self._deep(make_cffs(embedded=False, grouping=False))
        runs = self._opens(fs, "/a/b/c/f", 3)
        assert [names for names, _calls in runs] == [["a", "b", "c", "f"]] * 3
        assert len({calls for _names, calls in runs}) == 1


class TestFdTable:
    def test_allocate_and_lookup(self):
        table = FdTable()
        rec = OpenFile(object(), "/x")
        fd = table.allocate(rec)
        assert fd >= 3
        assert table.lookup(fd) is rec

    def test_fds_unique(self):
        table = FdTable()
        fds = [table.allocate(OpenFile(None, "/x")) for _ in range(10)]
        assert len(set(fds)) == 10

    def test_release(self):
        table = FdTable()
        fd = table.allocate(OpenFile(None, "/x"))
        table.release(fd)
        with pytest.raises(BadFileDescriptor):
            table.lookup(fd)

    def test_double_release(self):
        table = FdTable()
        fd = table.allocate(OpenFile(None, "/x"))
        table.release(fd)
        with pytest.raises(BadFileDescriptor):
            table.release(fd)

    def test_unknown_fd(self):
        with pytest.raises(BadFileDescriptor):
            FdTable().lookup(99)

    def test_len(self):
        table = FdTable()
        table.allocate(OpenFile(None, "/x"))
        table.allocate(OpenFile(None, "/y"))
        assert len(table) == 2
