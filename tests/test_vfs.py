"""Tests for path handling and descriptor bookkeeping."""

import pytest

from repro.errors import BadFileDescriptor, InvalidArgument, NameTooLong
from repro.vfs.fdtable import FdTable, OpenFile
from repro.vfs.path import basename_of, split_path


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
