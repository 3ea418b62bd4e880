"""Tests for the simulated drive's timing behaviour.

These encode the mechanical facts the paper's argument rests on:
positioning dominates small transfers, sequential streams run at media
rate, strided access defeats prefetch, and write-behind absorbs
same-block rewrites.
"""

import random

import pytest

from repro import obs
from repro.disk.drive import SimulatedDisk
from repro.disk.profiles import SEAGATE_ST31200
from repro.errors import AddressError
from tests.conftest import TEST_PROFILE, TEST_PROFILE_PLAIN


def plain_disk() -> SimulatedDisk:
    return SimulatedDisk(TEST_PROFILE_PLAIN)


def cached_disk() -> SimulatedDisk:
    return SimulatedDisk(TEST_PROFILE)


class TestBasics:
    def test_read_advances_clock(self):
        d = plain_disk()
        d.read(0, 8)
        assert d.clock.now > 0

    def test_out_of_range_rejected(self):
        d = plain_disk()
        with pytest.raises(AddressError):
            d.read(d.total_sectors, 1)
        with pytest.raises(AddressError):
            d.read(-1, 1)
        with pytest.raises(AddressError):
            d.read(0, 0)

    def test_stats_count_requests(self):
        d = plain_disk()
        d.read(0, 8)
        d.write(100, 8)
        assert d.stats.reads == 1
        assert d.stats.writes == 1
        assert d.stats.sectors_read == 8
        assert d.stats.sectors_written == 8

    def test_request_size_histogram(self):
        d = plain_disk()
        d.read(0, 8)
        d.read(100, 8)
        d.read(200, 128)
        assert d.stats.request_sizes[8] == 2
        assert d.stats.request_sizes[128] == 1


class TestRequestSpans:
    """The ``disk`` span is the drive's one per-request record."""

    @pytest.fixture
    def traced(self):
        disk = cached_disk()
        tracer = obs.install(obs.Tracer(clock=disk.clock))
        try:
            yield disk, tracer.spans
        finally:
            obs.uninstall()

    def test_captures_reads_and_writes(self, traced):
        disk, spans = traced
        disk.read(0, 8)
        disk.write(100, 8)
        assert [s.name for s in spans] == ["disk.read", "disk.write"]
        assert spans[0].attrs == {"lba": 0, "nsectors": 8, "source": "media"}
        assert spans[1].attrs["source"] == "buffer"  # write-behind profile

    def test_latency_positive_and_ordered(self, traced):
        disk, spans = traced
        for i in range(5):
            disk.read(i * 500, 8)
        assert all(s.duration > 0 for s in spans)
        issues = [s.start for s in spans]
        assert issues == sorted(issues)
        assert spans[-1].end == disk.clock.now

    def test_source_classification(self, traced):
        disk, spans = traced
        disk.read(0, 8)       # media
        disk.read(0, 8)       # cache (same segment)
        disk.write(5000, 8)   # buffer
        disk.read(5000, 8)    # buffer (pending write)
        assert [s.attrs["source"] for s in spans] == [
            "media", "cache", "buffer", "buffer"]


class TestMechanicalCosts:
    def test_small_read_dominated_by_positioning(self):
        """Most of a random 4 KB access is seek+rotation, not transfer."""
        d = plain_disk()
        rng = random.Random(3)
        for _ in range(100):
            d.read(rng.randrange(0, d.total_sectors - 8), 8)
        mech = d.stats
        assert mech.seek_time + mech.rotation_time > 4 * mech.transfer_time

    def test_large_read_dominated_by_transfer(self):
        d = plain_disk()
        d.read(0, 4000)
        assert d.stats.transfer_time > d.stats.seek_time + d.stats.rotation_time

    def test_access_time_sublinear_in_size(self):
        """Figure 2's shape: 16x the data costs far less than 16x the time."""
        d1 = plain_disk()
        d1.read(d1.total_sectors // 2, 8)
        t_small = d1.clock.now
        d2 = plain_disk()
        d2.read(d2.total_sectors // 2, 128)
        t_large = d2.clock.now
        assert t_large < 4 * t_small

    def test_near_seek_cheaper_than_far(self):
        d1 = plain_disk()
        d1.read(0, 8)
        t0 = d1.clock.now
        d1.read(64, 8)  # same neighbourhood
        near = d1.clock.now - t0

        d2 = plain_disk()
        d2.read(0, 8)
        t0 = d2.clock.now
        d2.read(d2.total_sectors - 64, 8)  # other end of the disk
        far = d2.clock.now - t0
        assert far > near


class TestReadCacheBehaviour:
    def test_sequential_requests_hit_prefetch(self):
        d = cached_disk()
        lba = 0
        for _ in range(20):
            d.read(lba, 8)
            lba += 8
        assert d.stats.cache_hits >= 18

    def test_strided_requests_miss_prefetch(self):
        d = cached_disk()
        lba = 0
        stride = TEST_PROFILE.readahead_sectors + 16
        for _ in range(20):
            d.read(lba, 8)
            lba += stride
        assert d.stats.cache_hits == 0

    def test_sequential_stream_approaches_media_rate(self):
        d = cached_disk()
        lba = 0
        for _ in range(50):
            d.read(lba, 128)
            lba += 128
        elapsed = d.clock.now
        mb = 50 * 128 * 512 / 1e6
        rate = mb / elapsed
        media = TEST_PROFILE.max_media_mb_per_s
        assert rate > 0.6 * media

    def test_write_invalidates_overlapping_segment(self):
        d = cached_disk()
        d.read(0, 8)
        d.write(4, 8)
        d.flush_write_buffer()
        # The segment covering [0,8) must be gone; re-read is a miss.
        before = d.stats.cache_hits
        d.read(0, 8)
        assert d.stats.cache_hits == before


class TestWriteBehind:
    def test_sync_write_completes_fast_with_cache(self):
        d = cached_disk()
        d.read(0, 8)  # position somewhere
        t0 = d.clock.now
        d.write(5000, 8)
        host_latency = d.clock.now - t0
        # Far cheaper than a mechanical access (seek+rotation ~ 10ms).
        assert host_latency < 0.004

    def test_same_block_rewrites_absorbed(self):
        d = cached_disk()
        for _ in range(50):
            d.write(5000, 8)
        assert d.stats.write_absorbed > 20

    def test_flush_drains_everything(self):
        d = cached_disk()
        for i in range(10):
            d.write(1000 + i * 64, 8)
        d.flush_write_buffer()
        assert d.write_buffer is not None
        assert d.write_buffer.empty

    def test_flush_costs_time(self):
        d = cached_disk()
        for i in range(10):
            d.write(1000 + i * 640, 8)
        t0 = d.clock.now
        d.flush_write_buffer()
        assert d.clock.now > t0

    def test_read_of_pending_write_served_from_buffer(self):
        d = cached_disk()
        d.write(5000, 8)
        before_hits = d.stats.cache_hits
        d.read(5000, 8)
        assert d.stats.cache_hits == before_hits + 1

    def test_partial_overlap_forces_drain(self):
        d = cached_disk()
        d.write(5000, 8)
        d.read(4996, 16)  # spans buffered and unbuffered sectors
        assert d.write_buffer.empty

    def test_buffer_full_stalls_host(self):
        d = cached_disk()
        cap = d.write_buffer.capacity
        # Pour in far more than the buffer holds, scattered so drains
        # are slow.
        n = cap // 8 * 3
        for i in range(n):
            d.write((i * 4096) % (d.total_sectors - 8), 8)
        assert d.stats.stall_time > 0

    def test_no_write_cache_pays_mechanics(self):
        d = plain_disk()
        t0 = d.clock.now
        d.write(5000, 8)
        assert d.clock.now - t0 > 0.002


class TestDeterminism:
    def test_same_sequence_same_times(self):
        def run() -> float:
            d = cached_disk()
            rng = random.Random(7)
            for _ in range(100):
                op = rng.random()
                lba = rng.randrange(0, d.total_sectors - 128)
                if op < 0.5:
                    d.read(lba, 8)
                else:
                    d.write(lba, 8)
            d.flush_write_buffer()
            return d.clock.now

        assert run() == run()


class TestST31200Profile:
    def test_random_4k_access_in_paper_range(self):
        """A random 4 KB access on the platform disk costs ~15-20 ms."""
        d = SimulatedDisk(SEAGATE_ST31200)
        rng = random.Random(5)
        t0 = d.clock.now
        for _ in range(100):
            d.read(rng.randrange(0, d.total_sectors - 8), 8)
        avg_ms = (d.clock.now - t0) / 100 * 1000
        assert 12.0 < avg_ms < 24.0

    def test_media_rate_in_period_range(self):
        """Early-90s 1GB drives moved a few MB/s off the media."""
        assert 2.5 < SEAGATE_ST31200.max_media_mb_per_s < 5.0
