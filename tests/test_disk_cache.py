"""Tests for the on-board read segments and write-behind buffer."""

import pytest

from repro.disk.cache import MAX_COALESCE_SECTORS, ReadCache, ReadSegment, WriteBuffer


class TestReadSegment:
    def seg(self) -> ReadSegment:
        return ReadSegment(
            start=100, fill_base=108, fill_time=1.0, sector_time=0.001, end_cap=140,
        )

    def test_original_request_available_immediately(self):
        assert self.seg().available_at(104) == 1.0

    def test_prefetch_availability_is_linear(self):
        seg = self.seg()
        assert seg.available_at(108) == pytest.approx(1.001)
        assert seg.available_at(117) == pytest.approx(1.010)

    def test_extent_grows_with_time(self):
        seg = self.seg()
        assert seg.extent_at(1.0) == 108
        assert seg.extent_at(1.010) == 118
        assert seg.extent_at(100.0) == 140  # capped

    def test_freeze_stops_fill(self):
        seg = self.seg()
        seg.freeze(1.0055)
        assert seg.frozen_extent == 113
        assert seg.extent_at(100.0) == 113


class TestReadCache:
    def test_miss_on_empty(self):
        cache = ReadCache(segments=2, readahead_sectors=32)
        assert cache.lookup(0, 8, 0.0) is None

    def test_full_hit_after_install(self):
        cache = ReadCache(2, 32)
        cache.install(100, 8, completion=1.0, sector_time=0.001, disk_end=10000)
        hit = cache.lookup(100, 8, 2.0)
        assert hit is not None
        _seg, ready = hit
        assert ready == 1.0

    def test_streaming_continuation_within_cap(self):
        cache = ReadCache(2, 32)
        cache.install(100, 8, 1.0, 0.001, 10000)
        hit = cache.lookup(108, 8, 1.0)  # right where prefetch continues
        assert hit is not None
        _seg, ready = hit
        assert ready == pytest.approx(1.008)

    def test_miss_beyond_prefetch_cap(self):
        cache = ReadCache(2, 32)
        cache.install(100, 8, 1.0, 0.001, 10000)
        # Cap is 100+8+32 = 140; a request starting there missed the stream.
        assert cache.lookup(140, 8, 5.0) is None

    def test_frozen_segment_serves_only_filled(self):
        cache = ReadCache(2, 32)
        cache.install(100, 8, 1.0, 0.001, 10000)
        cache.freeze_all(1.004)  # filled to 112
        assert cache.lookup(100, 8, 2.0) is not None
        assert cache.lookup(100, 12, 2.0) is not None
        assert cache.lookup(100, 13, 2.0) is None

    def test_lru_eviction(self):
        cache = ReadCache(2, 32)
        cache.install(100, 8, 1.0, 0.001, 10000)
        cache.install(500, 8, 2.0, 0.001, 10000)
        cache.install(900, 8, 3.0, 0.001, 10000)
        assert cache.lookup(100, 8, 4.0) is None  # oldest evicted
        assert cache.lookup(500, 8, 4.0) is not None
        assert cache.lookup(900, 8, 4.0) is not None

    def test_invalidate_range_drops_overlap(self):
        cache = ReadCache(2, 32)
        cache.install(100, 8, 1.0, 0.001, 10000)
        cache.invalidate_range(104, 4)
        assert cache.lookup(100, 4, 2.0) is None

    def test_invalidate_range_keeps_disjoint(self):
        cache = ReadCache(2, 32)
        cache.install(100, 8, 1.0, 0.001, 10000)
        cache.invalidate_range(5000, 8)
        assert cache.lookup(100, 8, 2.0) is not None

    def test_disabled_cache_installs_nothing(self):
        cache = ReadCache(0, 32)
        assert cache.install(100, 8, 1.0, 0.001, 10000) is None
        assert cache.lookup(100, 8, 2.0) is None

    def test_extend_cap(self):
        cache = ReadCache(2, 32)
        seg = cache.install(100, 8, 1.0, 0.001, 10000)
        cache.extend_cap(seg, 200, 10000)
        assert seg.end_cap == 232

    def test_extend_cap_clamped_to_disk(self):
        cache = ReadCache(2, 32)
        seg = cache.install(100, 8, 1.0, 0.001, 300)
        cache.extend_cap(seg, 290, 300)
        assert seg.end_cap == 300


class TestWriteBuffer:
    def test_add_and_drain(self):
        wb = WriteBuffer(capacity_sectors=100)
        wb.add(10, 8, when=1.0)
        start, n, ready = wb.pop_drain()
        assert (start, n, ready) == (10, 8, 1.0)
        assert wb.empty

    def test_same_range_absorbs(self):
        wb = WriteBuffer(100)
        assert wb.add(10, 8) is False
        assert wb.add(10, 8) is True
        assert wb.pending_sectors == 8

    def test_resize_of_pending_range(self):
        wb = WriteBuffer(100)
        wb.add(10, 8)
        assert wb.add(10, 16) is True
        assert wb.pending_sectors == 16

    def test_overflow_detection(self):
        wb = WriteBuffer(16)
        wb.add(0, 8)
        assert not wb.would_overflow(8)
        assert wb.would_overflow(9)

    def test_covering_range(self):
        wb = WriteBuffer(100)
        wb.add(10, 8)
        assert wb.covering_range(10, 8) == (10, 8)
        assert wb.covering_range(12, 2) == (10, 8)
        assert wb.covering_range(12, 8) is None
        assert wb.covering_range(2, 4) is None

    def test_overlapping(self):
        wb = WriteBuffer(100)
        wb.add(10, 8)
        wb.add(30, 8)
        assert wb.overlapping(14, 20) == [(10, 8), (30, 8)]
        assert wb.overlapping(18, 4) == []

    def test_drain_coalesces_adjacent(self):
        wb = WriteBuffer(1000)
        wb.add(10, 8, when=1.0)
        wb.add(18, 8, when=2.0)
        wb.add(26, 8, when=3.0)
        start, n, ready = wb.pop_drain()
        assert (start, n) == (10, 24)
        assert ready == 3.0  # cannot drain before the newest member existed
        assert wb.empty

    def test_drain_does_not_coalesce_gaps(self):
        wb = WriteBuffer(1000)
        wb.add(10, 8)
        wb.add(26, 8)
        start, n, _ = wb.pop_drain()
        assert (start, n) == (10, 8)

    def test_drain_clook_ascending(self):
        """The first drain starts at the rotor (0), so addresses come
        out ascending regardless of arrival order."""
        wb = WriteBuffer(1000)
        for s in (50, 10, 90):
            wb.add(s, 8)
        assert [wb.pop_drain()[0] for _ in range(3)] == [10, 50, 90]

    def test_drain_clook_wraps(self):
        wb = WriteBuffer(1000)
        for s in (10, 50):
            wb.add(s, 8)
        assert wb.pop_drain()[0] == 10
        assert wb.pop_drain()[0] == 50
        wb.add(20, 8)
        wb.add(200, 8)
        # Rotor sits past 50; 200 is next ascending, then wrap to 20.
        assert wb.pop_drain()[0] == 200
        assert wb.pop_drain()[0] == 20

    def test_drain_coalesce_cap(self):
        wb = WriteBuffer(100000)
        half = MAX_COALESCE_SECTORS // 2
        wb.add(0, half)
        wb.add(half, half)
        wb.add(2 * half, 8)
        start, n, _ = wb.pop_drain()
        assert (start, n) == (0, MAX_COALESCE_SECTORS)
