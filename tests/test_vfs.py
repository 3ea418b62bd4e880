"""Tests for path handling, descriptor bookkeeping and the whole-file
helpers' contract."""

import pytest

from repro import obs
from repro.errors import (
    BadFileDescriptor,
    InvalidArgument,
    IsADirectory,
    NameTooLong,
    NotADirectory,
)
from repro.vfs.fdtable import FdTable, OpenFile
from repro.vfs.path import basename_of, split_path
from tests import test_wholefile_transcript as wholefile
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


class TestWholeFileContract:
    """``read_file`` / ``write_file`` / ``exists`` go straight to the
    file system on one resolved handle: no descriptor, no
    ``StatResult``.  Traced, the helpers keep the span sequence of the
    open / pread / pwrite calls they stand for.  (What they charge and
    touch is pinned by ``tests/test_wholefile_transcript.py``.)"""

    @staticmethod
    def _counting(monkeypatch):
        """Counting stand-ins for the descriptor record and the stat
        result, where the file systems build them; returns the list of
        the names of the objects built."""
        from repro.ffs import base
        from repro.vfs import interface
        built = []

        def stand_in(cls):
            def make(*args, **kwargs):
                built.append(cls.__name__)
                return cls(*args, **kwargs)
            return make

        monkeypatch.setattr(interface, "OpenFile", stand_in(interface.OpenFile))
        monkeypatch.setattr(base, "StatResult", stand_in(base.StatResult))
        return built

    @pytest.mark.parametrize("stack", sorted(wholefile.STACKS))
    def test_untraced_builds_no_descriptor_and_no_stat(self, stack,
                                                       monkeypatch):
        fs = wholefile.STACKS[stack]()
        fs.mkdir("/d")
        first = fs.open("/d/f", create=True)
        fs.close(first)
        built = self._counting(monkeypatch)
        for n in (5000, 100, 0, 3 * 4096 + 1, 0):
            fs.write_file("/d/f", b"x" * n)
            assert fs.read_file("/d/f") == b"x" * n
        assert fs.exists("/d/f") and not fs.exists("/d/g")
        with pytest.raises(IsADirectory):
            fs.read_file("/d")
        assert built == [] and len(fs.fds) == 0
        # The stand-ins do see what the descriptor calls build, and no
        # descriptor number went to the whole-file calls.
        fs.stat("/d/f")
        fd = fs.open("/d/f")
        fs.close(fd)
        assert built == ["StatResult", "OpenFile"] and fd == first + 1

    @pytest.mark.parametrize("stack", sorted(wholefile.STACKS))
    def test_exists_is_false_through_a_regular_file(self, stack):
        """A boolean answer, traced or not; ``stat`` still says why."""
        fs = wholefile.STACKS[stack]()
        fs.mkdir("/d")
        fs.write_file("/d/f", b"x" * 100)
        assert fs.exists("/d/f") and not fs.exists("/d/f/x")
        with pytest.raises(NotADirectory):
            fs.stat("/d/f/x")
        obs.install(obs.Tracer(clock=fs.cache.device.clock))
        try:
            assert not fs.exists("/d/f/x")
        finally:
            obs.uninstall()

    @pytest.mark.parametrize("stack", sorted(wholefile.STACKS))
    def test_shorter_rewrite_reads_no_old_data(self, stack):
        """A shorter, unaligned ``write_file`` covers its last block in
        full: the truncate that follows zeroes the rest, so the old
        bytes are not read (a cold rewrite costs the reads of an
        equal-size one) and the tail reads back as zeros."""
        reads = {}
        for n in (100, 3000):
            fs = wholefile.STACKS[stack]()
            fs.mkdir("/d")
            fs.write_file("/d/f", b"o" * 3000)
            fs.drop_caches()
            before = fs.cache.device.disk.stats.reads
            fs.write_file("/d/f", b"n" * n)
            reads[n] = fs.cache.device.disk.stats.reads - before
            assert fs.read_file("/d/f") == b"n" * n
            fs.truncate("/d/f", 3000)
            assert fs.read_file("/d/f") == b"n" * n + bytes(3000 - n)
        assert reads[100] == reads[3000]

    @pytest.mark.parametrize("stack", sorted(wholefile.STACKS))
    def test_traced_keeps_the_vfs_spans(self, stack, monkeypatch):
        fs = wholefile.STACKS[stack]()
        fs.mkdir("/d")
        built = self._counting(monkeypatch)
        tracer = obs.install(obs.Tracer(clock=fs.cache.device.clock))
        try:
            fs.write_file("/d/f", b"x" * 5000)
            fs.write_file("/d/f", b"")
            fs.write_file("/d/f", b"y" * 100)
            assert fs.read_file("/d/f") == b"y" * 100
            assert fs.exists("/d/f")
        finally:
            obs.uninstall()
        vfs = sorted((sp.span_id, sp.op) for sp in tracer.spans
                     if sp.layer == "vfs")
        assert [op for _id, op in vfs] == [
            "open", "pwrite", "open", "open", "pwrite", "open", "pread",
            "stat"]
        assert built == [] and len(fs.fds) == 0
