"""Resilience layer tests: checksum, layout, health, device, scrubber, fsck.

The contract under test: every read through a ResilientBlockDevice is
either verified-correct or raises ChecksumError; hard write faults heal
transparently via the spare pool; the remap table survives a detach/
attach cycle; exhausting the spares or a failure budget demotes to
READ_ONLY instead of crashing; and fsck can check and rebuild the
sidecar and remap table.
"""

import random

import pytest

from repro.blockdev.device import BLOCK_SIZE, BlockDevice
from repro.disk.geometry import SECTOR_SIZE
from repro.errors import (
    AddressError,
    ChecksumError,
    CorruptFileSystem,
    MediaReadError,
    ReadOnlyFileSystem,
)
from repro.faults import FaultSchedule, FaultyBlockDevice
from repro.fsck import check_image
from repro.resilience import (
    CRCS_PER_BLOCK,
    HealthMonitor,
    HealthState,
    LogicalView,
    ResilientBlockDevice,
    Scrubber,
    ZERO_CRC,
    compute_geometry,
    crc32,
    pack_crc_block,
    try_unpack_header,
    unpack_crc_block,
)
from repro.resilience.device import (
    MAX_CHECKSUM_FAILURES,
    MAX_UNREADABLE_BLOCKS,
)
from repro.resilience.layout import ResilienceHeader
from tests.conftest import TEST_PROFILE


def block(tag: int) -> bytes:
    return bytes([tag & 0xFF]) * BLOCK_SIZE


def resilient(schedule=None, n_spares=32, profile=TEST_PROFILE):
    inner = BlockDevice(profile)
    if schedule is not None:
        inner = FaultyBlockDevice(inner, schedule)
    return ResilientBlockDevice.format(inner, n_spares)


# -- checksums ----------------------------------------------------------------


def _seeded_blocks(seed: str, count: int):
    rng = random.Random(seed)
    return [rng.randbytes(BLOCK_SIZE) for _ in range(count)]


class TestChecksum:
    def test_check_vector(self):
        # The CRC-32 (IEEE 802.3) check value.
        assert crc32(b"123456789") == 0xCBF43926

    def test_continuation(self):
        (data,) = _seeded_blocks("crc-continuation", 1)
        whole = crc32(data)
        # A continued run must equal the one-shot checksum.
        for split in (0, 1, 7, 8, 511, 512, 2048, 4095, 4096):
            assert crc32(data[split:], crc32(data[:split])) == whole

    def test_zero_crc(self):
        assert ZERO_CRC == crc32(bytes(BLOCK_SIZE))
        assert ZERO_CRC != crc32(b"\x01" + bytes(BLOCK_SIZE - 1))

    def test_accepts_buffer_types(self):
        # The cache hands down bytearrays; peeks hand down bytes/views.
        (data,) = _seeded_blocks("crc-buffers", 1)
        assert (crc32(data) == crc32(bytearray(data))
                == crc32(memoryview(data)))

    def test_every_single_bit_flip_is_detected(self):
        for data in _seeded_blocks("crc-bitflips", 3) + [bytes(BLOCK_SIZE)]:
            good = crc32(data)
            flipped = bytearray(data)
            for pos in range(BLOCK_SIZE):
                for bit in range(8):
                    flipped[pos] ^= 1 << bit
                    assert crc32(flipped) != good, (pos, bit)
                    flipped[pos] ^= 1 << bit

    def test_torn_write_is_detected(self):
        # First k sectors new, the rest old: matches neither checksum,
        # whichever of the two the sidecar holds.
        blocks = _seeded_blocks("crc-torn", 9) + [bytes(BLOCK_SIZE)]
        for old, new in zip(blocks, blocks[1:]):
            for k in range(1, BLOCK_SIZE // SECTOR_SIZE):
                torn = new[:k * SECTOR_SIZE] + old[k * SECTOR_SIZE:]
                assert crc32(torn) not in (crc32(old), crc32(new)), k

    def test_sidecar_codec_roundtrip(self):
        crcs = [(i * 2654435761) & 0xFFFFFFFF for i in range(CRCS_PER_BLOCK)]
        raw = pack_crc_block(crcs)
        assert len(raw) == BLOCK_SIZE
        assert unpack_crc_block(raw) == crcs


# -- layout -------------------------------------------------------------------


class TestLayout:
    def test_geometry_accounts_for_every_block(self):
        geo = compute_geometry(3328, n_spares=32)
        assert (geo.usable_blocks + geo.n_crc_blocks
                + geo.n_spares + 1 == geo.total_blocks)
        assert geo.n_crc_blocks * CRCS_PER_BLOCK >= geo.usable_blocks
        assert geo.header_block == geo.total_blocks - 1

    def test_crc_location(self):
        geo = compute_geometry(3328, n_spares=32)
        sidecar, offset = geo.crc_location(CRCS_PER_BLOCK + 5)
        assert sidecar == geo.crc_start + 1
        assert offset == 20

    def test_header_roundtrip_with_tables(self):
        geo = compute_geometry(3328, n_spares=32)
        header = ResilienceHeader(geo, spares_used=3,
                                  remap={10: 0, 700: 2}, lost={55})
        back = try_unpack_header(header.pack(), geo.total_blocks)
        assert back is not None
        assert back.spares_used == 3
        assert back.remap == {10: 0, 700: 2}
        assert back.lost == {55}

    def test_header_rejects_noise_and_corruption(self):
        geo = compute_geometry(3328, n_spares=32)
        assert try_unpack_header(bytes(BLOCK_SIZE), geo.total_blocks) is None
        raw = bytearray(ResilienceHeader(geo).pack())
        raw[20] ^= 0xFF    # damage inside the CRC-protected body
        with pytest.raises(CorruptFileSystem):
            try_unpack_header(bytes(raw), geo.total_blocks)


# -- health machine -----------------------------------------------------------


class TestHealth:
    def test_monotonic_one_way(self):
        h = HealthMonitor()
        assert h.transition(HealthState.DEGRADED, 1.0, "remap")
        assert not h.transition(HealthState.HEALTHY, 2.0, "nope")
        assert h.state is HealthState.DEGRADED
        assert h.transition(HealthState.READ_ONLY, 3.0, "spares gone")
        assert not h.transition(HealthState.DEGRADED, 4.0, "nope")
        assert [t.state for t in h.transitions] == [
            HealthState.DEGRADED, HealthState.READ_ONLY]

    def test_gatekeeping(self):
        h = HealthMonitor()
        h.check_writable()
        h.transition(HealthState.READ_ONLY, 1.0, "budget")
        with pytest.raises(ReadOnlyFileSystem):
            h.check_writable()
        h.check_readable()   # reads still fine
        h.transition(HealthState.FAILED, 2.0, "power")
        with pytest.raises(Exception):
            h.check_readable()

    def test_device_transitions_export_the_health_metrics(self):
        dev = resilient()
        dev.health.transition(HealthState.DEGRADED, 1.0, "remap")
        dev.health.transition(HealthState.READ_ONLY, 2.0, "spares gone")
        snap = dev.disk.registry.snapshot()
        assert snap["resilience.health_transitions"] == 2
        assert snap["resilience.health"] == HealthState.READ_ONLY.value
        assert snap["resilience.spares_used"] == dev.header.spares_used


# -- the device ---------------------------------------------------------------


class TestResilientDevice:
    def test_verified_roundtrip(self):
        dev = resilient()
        dev.write_block(7, block(7))
        assert dev.read_block(7) == block(7)
        assert dev.stats.verified_reads == 1
        assert dev.health.state is HealthState.HEALTHY

    def test_unwritten_blocks_verify_as_zero(self):
        dev = resilient()
        assert dev.read_block(100) == bytes(BLOCK_SIZE)
        assert dev.stats.verified_reads == 1

    def test_usable_window_hides_reserved_tail(self):
        dev = resilient()
        assert dev.total_blocks == dev.geometry.usable_blocks
        assert dev.total_blocks < dev.inner.total_blocks
        with pytest.raises(AddressError):
            dev.read_block(dev.total_blocks)

    def test_corruption_detected_not_returned(self):
        dev = resilient()
        dev.write_block(5, block(5))
        bad = bytearray(block(5))
        bad[100] ^= 0x40
        dev.poke_block(5, bytes(bad))   # bypasses the checksummed path
        with pytest.raises(ChecksumError):
            dev.read_block(5)
        assert dev.stats.checksum_failures == 1
        assert dev.health.state is HealthState.DEGRADED

    def test_rewrite_heals_a_lost_block(self):
        dev = resilient()
        dev.write_block(5, block(5))
        dev.poke_block(5, block(99))
        with pytest.raises(ChecksumError):
            dev.read_block(5)
        dev.write_block(5, block(6))    # fresh data, fresh CRC
        assert dev.read_block(5) == block(6)
        assert not dev.header.lost

    def test_hard_write_fault_remaps_transparently(self):
        schedule = FaultSchedule(seed=1).break_writes([20])
        dev = resilient(schedule)
        dev.write_block(20, block(2))   # inner write fails; spare absorbs it
        assert dev.read_block(20) == block(2)
        assert dev.header.remap == {20: 0}
        assert dev.stats.remaps == 1 and dev.stats.write_heals == 1
        assert dev.health.state is HealthState.DEGRADED

    def test_remap_survives_detach_attach(self):
        schedule = FaultSchedule(seed=1).break_writes([20])
        dev = resilient(schedule)
        dev.write_block(20, block(2))
        dev.write_block(21, block(3))
        dev.flush()
        again = ResilientBlockDevice.attach(dev.inner)
        assert again.header.remap == {20: 0}
        assert again.read_block(20) == block(2)
        assert again.read_block(21) == block(3)

    def test_spare_exhaustion_degrades_to_read_only(self):
        schedule = FaultSchedule(seed=1).break_writes([20, 21, 22])
        dev = resilient(schedule, n_spares=2)
        dev.write_block(20, block(1))
        dev.write_block(21, block(2))
        with pytest.raises(ReadOnlyFileSystem):
            dev.write_block(22, block(3))
        assert dev.health.state is HealthState.READ_ONLY
        # Reads keep working; further writes are refused, not crashed.
        assert dev.read_block(20) == block(1)
        with pytest.raises(ReadOnlyFileSystem):
            dev.write_block(30, block(4))

    @staticmethod
    def _spend_budget(dev, blocks, error):
        """Fail a read of each block: DEGRADED up to one failure below
        the budget, READ_ONLY exactly at it."""
        for spent, bno in enumerate(blocks, start=1):
            with pytest.raises(error):
                dev.read_block(bno)
            assert dev.health.state is (
                HealthState.READ_ONLY if spent == len(blocks)
                else HealthState.DEGRADED), spent

    def test_checksum_failure_budget_demotes_to_read_only(self):
        dev = resilient()
        blocks = range(1, MAX_CHECKSUM_FAILURES + 1)
        for bno in blocks:
            dev.write_block(bno, block(bno))
            dev.poke_block(bno, block(bno + 1))   # behind the CRC's back
        self._spend_budget(dev, blocks, ChecksumError)
        assert dev.stats.checksum_failures == MAX_CHECKSUM_FAILURES
        with pytest.raises(ReadOnlyFileSystem):
            dev.write_block(0, block(0))

    def test_unreadable_block_budget_demotes_to_read_only(self):
        blocks = range(1, MAX_UNREADABLE_BLOCKS + 1)
        dev = resilient(FaultSchedule(seed=1).break_reads(blocks))
        self._spend_budget(dev, blocks, MediaReadError)
        assert dev.stats.unreadable_blocks == MAX_UNREADABLE_BLOCKS
        with pytest.raises(ReadOnlyFileSystem):
            dev.write_block(0, block(0))

    def test_weak_block_absorbed_within_retry_budget(self):
        schedule = FaultSchedule(seed=1).weaken_reads([40])
        dev = resilient(schedule)
        dev.write_block(40, block(4))
        assert dev.read_block(40) == block(4)

    def test_unreadable_block_raises_after_budget(self):
        schedule = FaultSchedule(seed=1).break_reads([40])
        dev = resilient(schedule)
        dev.write_block(40, block(4))
        with pytest.raises(MediaReadError):
            dev.read_block(40)
        assert dev.stats.unreadable_blocks == 1
        assert dev.health.state is HealthState.DEGRADED

    def test_extent_survives_one_bad_neighbour(self):
        schedule = FaultSchedule(seed=1).break_reads([41])
        dev = resilient(schedule)
        dev.write_extent(40, [block(1), block(2), block(3)])
        with pytest.raises(MediaReadError):
            dev.read_extent(40, 3)
        # The per-block fallback still serves the good neighbours.
        assert dev.read_block(40) == block(1)
        assert dev.read_block(42) == block(3)

    def test_batch_paths_roundtrip_across_remap(self):
        schedule = FaultSchedule(seed=1).break_writes([50])
        dev = resilient(schedule)
        dev.write_batch({49: block(1), 50: block(2), 51: block(3)})
        assert dev.header.remap == {50: 0}
        out = dev.read_batch([49, 50, 51])
        assert out == {49: block(1), 50: block(2), 51: block(3)}


# -- scrubbing ----------------------------------------------------------------


class TestScrubber:
    def test_clean_pass_is_all_ok(self):
        dev = resilient()
        dev.write_block(3, block(3))
        scrubber = Scrubber(dev)
        while not scrubber.stats.scrub_passes:
            assert scrubber.step()
        assert scrubber.stats.verdicts == {"ok": dev.total_blocks}

    def test_scrub_rescues_weak_data_block(self):
        schedule = FaultSchedule(seed=1).weaken_reads([60])
        dev = resilient(schedule)
        dev.write_block(60, block(6))
        verdict = dev.scrub_block(60)
        assert verdict == "rescued"
        assert dev.header.remap == {60: 0}
        # The spare copy no longer touches the weak location.
        assert dev.read_block(60) == block(6)
        assert dev.stats.scrub_rescues == 1

    def test_scrub_does_not_burn_spares_on_weak_empty_blocks(self):
        schedule = FaultSchedule(seed=1).weaken_reads([61])
        dev = resilient(schedule)
        assert dev.scrub_block(61) == "ok"
        assert dev.header.remap == {}

    def test_scrub_heals_unreadable_empty_block(self):
        schedule = FaultSchedule(seed=1).break_reads([62])
        dev = resilient(schedule)
        assert dev.scrub_block(62) == "healed"
        assert dev.read_block(62) == bytes(BLOCK_SIZE)

    def test_scrub_condemns_rotted_block(self):
        schedule = FaultSchedule(seed=1).rot([63])
        dev = resilient(schedule)
        dev.write_block(63, block(3))
        schedule.rot([63])              # re-arm: the write cancelled decay
        assert dev.scrub_block(63) == "lost"
        assert dev.scrub_block(63) == "lost-known"
        with pytest.raises(ChecksumError):
            dev.read_block(63)          # lost blocks fail fast


# -- fsck over the resilience region ------------------------------------------


class TestFsckResilience:
    def test_clean_device_checks_clean(self):
        dev = resilient()
        dev.write_block(5, block(5))
        dev.flush()
        report = check_image(dev.inner).resilience
        assert report is not None
        assert report.pristine, report.render()

    def test_bare_image_is_not_resilient(self):
        assert check_image(BlockDevice(TEST_PROFILE)).resilience is None

    def test_stale_sidecar_detected_and_rebuilt(self):
        dev = resilient()
        dev.write_block(5, block(5))
        dev.flush()
        # Crash-stale sidecar: the data changed after the last flush.
        dev.inner.poke_block(5, block(6))
        report = check_image(dev.inner).resilience
        assert report.ok and not report.pristine   # rebuildable, not fatal
        repaired = check_image(dev.inner, repair=True).resilience
        assert repaired.fixed
        assert check_image(dev.inner).resilience.pristine
        again = ResilientBlockDevice.attach(dev.inner)
        assert again.read_block(5) == block(6)

    def test_remap_table_inconsistency_repaired(self):
        dev = resilient()
        dev.write_block(5, block(5))
        # Corrupt the header's accounting: a remap pointing past the
        # consumed-spares watermark.
        dev.header.remap[5] = 1
        dev.header.spares_used = 0
        dev.inner.poke_block(dev.geometry.header_block, dev.header.pack())
        dev.inner.poke_block(dev.geometry.spare_block(1), block(5))
        report = check_image(dev.inner, repair=True).resilience
        assert report.fixed
        assert check_image(dev.inner).resilience.ok

    def test_logical_view_poke_maintains_sidecar(self):
        dev = resilient()
        dev.write_block(5, block(5))
        dev.flush()
        view = LogicalView(dev.inner, dev.header)
        view.poke_block(5, block(9))    # the fsck repair channel
        assert check_image(dev.inner).resilience.pristine
        assert ResilientBlockDevice.attach(dev.inner).read_block(5) == block(9)


# -- the cache boundary -------------------------------------------------------


class TestCacheBoundary:
    """A block that fails verification must never be installed into the
    buffer cache — the ChecksumError propagates and the miss is counted."""

    def test_checksum_error_rejected_not_cached(self):
        from repro.cache.buffercache import BufferCache

        dev = resilient()
        dev.write_block(5, block(5))
        dev.poke_block(5, block(99))    # corrupt behind the CRC's back
        cache = BufferCache(dev, capacity_blocks=16)
        with pytest.raises(ChecksumError):
            cache.get(5)
        assert cache.peek(5) is None    # nothing installed
        assert cache.checksum_rejects == 1
        assert dev.disk.registry.snapshot()["cache.checksum_rejects"] == 1
        # A healing rewrite makes the same block cacheable again.
        dev.write_block(5, block(6))
        assert cache.get(5).data == block(6)
