"""Tests for application-hint grouping (the paper's §6 extension)."""


import pytest

from repro.cache.policy import MetadataPolicy
from repro.fsck import fsck_cffs
from repro.workloads.hypertext import build_site, serve_documents
from tests.conftest import make_cffs, read_desc


class TestGroupContext:
    def test_hinted_files_share_extent_across_dirs(self, cffs):
        cffs.mkdir("/pages")
        cffs.mkdir("/images")
        with cffs.group_context("doc1"):
            cffs.write_file("/pages/index.html", b"h" * 2048)
            cffs.write_file("/images/logo.gif", b"g" * 2048)
        e1 = cffs.groups.extent_of_block(cffs._resolve("/pages/index.html").direct[0])
        e2 = cffs.groups.extent_of_block(cffs._resolve("/images/logo.gif").direct[0])
        assert e1 == e2

    def test_different_hints_different_extents(self, cffs):
        cffs.mkdir("/d")
        with cffs.group_context("a"):
            cffs.write_file("/d/fa", b"a" * 1024)
        with cffs.group_context("b"):
            cffs.write_file("/d/fb", b"b" * 1024)
        ea = cffs.groups.extent_of_block(cffs._resolve("/d/fa").direct[0])
        eb = cffs.groups.extent_of_block(cffs._resolve("/d/fb").direct[0])
        assert ea != eb

    def test_same_tag_reuses_context(self, cffs):
        cffs.mkdir("/d")
        with cffs.group_context("t"):
            cffs.write_file("/d/f1", b"1" * 1024)
        with cffs.group_context("t"):
            cffs.write_file("/d/f2", b"2" * 1024)
        e1 = cffs.groups.extent_of_block(cffs._resolve("/d/f1").direct[0])
        e2 = cffs.groups.extent_of_block(cffs._resolve("/d/f2").direct[0])
        assert e1 == e2

    def test_nested_contexts_innermost_wins(self, cffs):
        cffs.mkdir("/d")
        with cffs.group_context("outer"):
            with cffs.group_context("inner"):
                cffs.write_file("/d/fi", b"i" * 1024)
            cffs.write_file("/d/fo", b"o" * 1024)
        ei = cffs.groups.extent_of_block(cffs._resolve("/d/fi").direct[0])
        eo = cffs.groups.extent_of_block(cffs._resolve("/d/fo").direct[0])
        assert ei != eo

    def test_outside_context_back_to_namespace(self, cffs):
        cffs.mkdir("/d")
        with cffs.group_context("t"):
            cffs.write_file("/d/hinted", b"h" * 1024)
        cffs.write_file("/d/plain", b"p" * 1024)
        dirh = cffs._resolve("/d")
        ext = cffs.groups.extent_of_block(cffs._resolve("/d/plain").direct[0])
        assert read_desc(cffs.groups, ext)["owner"] == dirh.fileid

    def test_content_roundtrip(self, cffs):
        cffs.mkdir("/d")
        with cffs.group_context("t"):
            cffs.write_file("/d/a", b"A" * 3000)
            cffs.write_file("/d/b", b"B" * 1500)
        assert cffs.read_file("/d/a") == b"A" * 3000
        assert cffs.read_file("/d/b") == b"B" * 1500

    def test_hinted_image_passes_fsck(self, cffs):
        cffs.mkdir("/d")
        with cffs.group_context("t"):
            for i in range(10):
                cffs.write_file("/d/f%d" % i, bytes([i]) * 2000)
        cffs.unlink("/d/f3")
        cffs.sync()
        report = fsck_cffs(cffs.device)
        assert report.ok, report.render()

    def test_hinted_group_read_fetches_document(self, cffs):
        """Reading one hinted file installs its document siblings."""
        cffs.mkdir("/p")
        cffs.mkdir("/i")
        with cffs.group_context("doc"):
            cffs.write_file("/p/page.html", b"h" * 2048)
            cffs.write_file("/i/pic1.gif", b"1" * 2048)
            cffs.write_file("/i/pic2.gif", b"2" * 2048)
        cffs.sync()
        cffs.drop_caches()
        cffs.read_file("/p/page.html")
        # Warm the directories, then check the sibling data is cached.
        before = cffs.device.disk.stats.reads
        assert cffs.read_file("/i/pic1.gif") == b"1" * 2048
        assert cffs.read_file("/i/pic2.gif") == b"2" * 2048
        # Only directory blocks may have been read, not file data.
        data_reads = cffs.device.disk.stats.reads - before
        assert data_reads <= 2

    def test_unbalanced_exit_guard(self, cffs):
        mgr = cffs.group_context("x")
        with mgr:
            pass  # balanced: fine
        assert cffs._hint_stack == []


class TestEvictFileData:
    def test_evicts_data_keeps_metadata(self, cffs):
        cffs.write_file("/a", b"x" * 8192)
        cffs.sync()
        dropped = cffs.evict_file_data("/a")
        assert dropped == 2
        # Metadata still warm: stat without disk reads.
        before = cffs.device.disk.stats.reads
        cffs.stat("/a")
        assert cffs.device.disk.stats.reads == before
        # Data really gone: reading hits the disk again.
        cffs.read_file("/a")
        assert cffs.device.disk.stats.reads > before

    def test_flushes_dirty_before_evicting(self, cffs):
        cffs.write_file("/a", b"y" * 4096)
        cffs.evict_file_data("/a")
        assert cffs.read_file("/a") == b"y" * 4096

    @pytest.mark.parametrize("policy", [MetadataPolicy.SYNC_METADATA,
                                        MetadataPolicy.JOURNAL_METADATA],
                             ids=lambda p: p.value)
    def test_dirty_file_leaves_as_one_request(self, policy):
        fs = make_cffs(policy)
        fs.write_file("/a", b"p" * 4096 + b"q" * 4096)
        committed = []
        if fs.cache.write_pipeline is not None:
            fs.cache.write_pipeline.commit()  # the log write is not the file's
            inner = fs.cache.write_pipeline.committed
            fs.cache.write_pipeline.committed = (
                lambda bnos: (committed.append(list(bnos)), inner(bnos)))
        before = fs.device.disk.stats.writes
        assert fs.evict_file_data("/a") == 2
        assert fs.device.disk.stats.writes == before + 1
        if fs.cache.write_pipeline is not None:
            assert len(committed) == 1 and len(committed[0]) == 2
        assert fs.read_file("/a") == b"p" * 4096 + b"q" * 4096

    def test_deferred_block_is_kept_not_lost(self):
        """Soft updates gate a reused block until the write that freed
        it is durable; evicting must not drop the unwritten bytes."""
        fs = make_cffs(MetadataPolicy.DELAYED_METADATA)
        fs.mkdir("/d")
        fs.write_file("/d/a", b"a" * 8192)
        fs.sync()
        fs.unlink("/d/a")
        fs.write_file("/d/b", b"b" * 8192)
        fs.evict_file_data("/d/b")
        assert fs.read_file("/d/b") == b"b" * 8192
        fs.sync()
        fs.drop_caches()
        assert fs.read_file("/d/b") == b"b" * 8192


class TestHypertextWorkload:
    def test_site_builds_and_serves(self):
        fs = make_cffs()
        docs = build_site(fs, n_documents=10)
        result = serve_documents(fs, docs)
        assert result.documents == 10
        assert result.seconds > 0

    def test_hints_beat_namespace_grouping(self):
        plain = make_cffs()
        docs = build_site(plain, n_documents=25)
        r_plain = serve_documents(plain, docs, label="cffs")

        hinted = make_cffs()
        docs = build_site(hinted, n_documents=25, use_hints=True)
        r_hint = serve_documents(hinted, docs, label="hints")

        assert r_hint.requests_per_document < r_plain.requests_per_document
        assert r_hint.documents_per_second > r_plain.documents_per_second

    def test_deterministic(self):
        def run():
            fs = make_cffs()
            docs = build_site(fs, n_documents=8)
            return serve_documents(fs, docs).seconds

        assert run() == run()
