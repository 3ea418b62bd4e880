"""Fault-injection device tests: schedules, proxy semantics, recovery.

The proxy must be a perfect no-op without a schedule, absorb transient
faults with only a latency cost, land *nothing* on a hard write fault,
land exactly the declared prefix on a torn write, and go dead after a
power cut.  File systems running over a transiently-faulty device must
come out fsck-pristine — faults the drive absorbs are invisible.
"""

import pytest

from repro.blockdev.device import BLOCK_SIZE, BlockDevice
from repro.errors import MediaReadError, MediaWriteError, PowerLoss
from repro.faults import (
    HARD,
    OK,
    TORN,
    TRANSIENT,
    FaultSchedule,
    FaultyBlockDevice,
)
from repro.faults.schedule import RETRY_ATTEMPTS, retry_delay
from repro.fsck import fsck_cffs, fsck_ffs
from tests.conftest import TEST_PROFILE, PinnedFaults, make_cffs, make_ffs


def block(tag: int) -> bytes:
    return bytes([tag & 0xFF]) * BLOCK_SIZE


def proxy(schedule=None, journal=False) -> FaultyBlockDevice:
    return FaultyBlockDevice(BlockDevice(TEST_PROFILE), schedule=schedule,
                             record_journal=journal)


def assert_backoff_charged(schedule, setup, step, delays) -> None:
    """Run ``step`` on a faulty proxy and on two fault-free twins.

    The faulty proxy must end exactly where the twin that had ``delays``
    advanced by hand before ``step`` ends: the backoff is charged before
    the drive request, so both reach the drive at the same instant.  The
    uncharged twin must end elsewhere, or the step hides the backoff (in
    a rotational or media-busy wait) and the check could not tell a
    skipped backoff apart.
    """
    ends = []
    for sched, charge in ((schedule, ()), (None, delays), (None, ())):
        dev = proxy(schedule=sched)
        setup(dev)
        for delay in charge:
            dev.clock.advance(delay)
        step(dev)
        ends.append(dev.clock.now)
    faulty, charged, uncharged = ends
    assert faulty == charged
    assert charged != uncharged


class TestFaultSchedule:
    def test_deterministic_per_seed(self):
        a = FaultSchedule(seed=7, transient_rate=0.2, hard_rate=0.05,
                          torn_rate=0.1)
        b = FaultSchedule(seed=7, transient_rate=0.2, hard_rate=0.05,
                          torn_rate=0.1)
        for i in range(200):
            assert a.decide("write", i) == b.decide("write", i)
            assert a.decide("read", i) == b.decide("read", i)

    def test_order_independent(self):
        a = FaultSchedule(seed=3, transient_rate=0.3)
        forward = [a.decide("read", i) for i in range(50)]
        backward = [a.decide("read", i) for i in reversed(range(50))]
        assert forward == list(reversed(backward))

    def test_seeds_differ(self):
        a = FaultSchedule(seed=1, transient_rate=0.5)
        b = FaultSchedule(seed=2, transient_rate=0.5)
        assert any(a.decide("read", i) != b.decide("read", i)
                   for i in range(100))

    def test_rates_zero_means_clean(self):
        s = FaultSchedule(seed=9)
        assert all(s.decide("write", i).kind == OK for i in range(100))

    def test_explicit_injections_override(self):
        s = (PinnedFaults(seed=1)
             .fail_read(3, transient=True, failures=2)
             .fail_write(5)
             .tear_write(7, landed_blocks=2))
        assert s.decide("read", 3).kind == TRANSIENT
        assert s.decide("read", 3).failures == 2
        assert s.decide("write", 5).kind == HARD
        torn = s.decide("write", 7)
        assert torn.kind == TORN and torn.torn_blocks == 2
        assert s.decide("write", 6).kind == OK


class TestProxyTransparent:
    def test_no_schedule_is_identity(self):
        plain = BlockDevice(TEST_PROFILE)
        faulty = proxy()
        for bno in (0, 7, 100):
            plain.write_block(bno, block(bno))
            faulty.write_block(bno, block(bno))
        assert faulty.read_block(7) == plain.read_block(7)
        assert faulty.read_extent(0, 2) == plain.read_extent(0, 2)
        assert faulty.stats.media_writes == 3
        assert faulty.stats.transient_faults == 0

    def test_batches_route_through_fault_path(self):
        s = PinnedFaults().fail_write(0)
        dev = proxy(schedule=s)
        with pytest.raises(MediaWriteError):
            dev.write_batch({1: block(1), 2: block(2)})
        assert dev.stats.hard_write_faults == 1


class TestTransient:
    def test_absorbed_with_latency(self):
        s = PinnedFaults().fail_write(0, transient=True, failures=2)
        dev = proxy(schedule=s)
        dev.write_block(4, block(4))
        assert dev.read_block(4) == block(4)          # data landed
        assert dev.stats.transient_faults == 2
        # The backoff, then twice that.
        assert_backoff_charged(
            PinnedFaults().fail_write(0, transient=True, failures=2),
            lambda dev: None, lambda dev: dev.write_block(4, block(4)),
            (retry_delay(0), retry_delay(1)))

    def test_exhausted_budget_escalates(self):
        s = PinnedFaults().fail_read(0, transient=True,
                                      failures=RETRY_ATTEMPTS)
        dev = proxy(schedule=s)
        dev.write_block(2, block(2))
        with pytest.raises(MediaReadError):
            dev.read_extent(2, 1)
        assert dev.stats.hard_read_faults == 1


class TestHardAndTorn:
    def test_hard_write_lands_nothing(self):
        s = PinnedFaults().fail_write(0)
        dev = proxy(schedule=s)
        with pytest.raises(MediaWriteError):
            dev.write_extent(10, [block(1), block(2)])
        assert dev.read_block(10) == bytes(BLOCK_SIZE)
        assert dev.stats.media_writes == 0

    def test_hard_read_raises(self):
        s = PinnedFaults().fail_read(0)
        dev = proxy(schedule=s)
        with pytest.raises(MediaReadError):
            dev.read_block(0)

    def test_torn_write_lands_prefix(self):
        s = PinnedFaults().tear_write(0, landed_blocks=2)
        dev = proxy(schedule=s)
        with pytest.raises(MediaWriteError):
            dev.write_extent(20, [block(1), block(2), block(3), block(4)])
        assert dev.read_block(20) == block(1)
        assert dev.read_block(21) == block(2)
        assert dev.read_block(22) == bytes(BLOCK_SIZE)
        assert dev.stats.torn_writes == 1
        assert dev.stats.media_writes == 2


class TestPowerCut:
    def test_cut_lands_budget_then_dies(self):
        s = FaultSchedule(power_cut_after_write=3)
        dev = proxy(schedule=s, journal=True)
        dev.write_extent(5, [block(1), block(2)])     # 2 writes landed
        with pytest.raises(PowerLoss):
            dev.write_extent(8, [block(3), block(4)])  # 1 more, then cut
        assert dev.stats.media_writes == 3
        assert dev.dead
        with pytest.raises(PowerLoss):
            dev.read_block(0)
        with pytest.raises(PowerLoss):
            dev.write_block(0, block(0))
        with pytest.raises(PowerLoss):
            dev.flush()

    def test_image_at_replays_prefix(self):
        dev = proxy(journal=True)
        for i in range(5):
            dev.write_block(30 + i, block(i + 1))
        image = dev.image_at(3)
        assert image.peek_block(30) == block(1)
        assert image.peek_block(32) == block(3)
        assert image.peek_block(33) == bytes(BLOCK_SIZE)
        full = dev.image_at()
        assert full.peek_block(34) == block(5)

    def test_image_at_requires_journal(self):
        dev = proxy()
        with pytest.raises(ValueError):
            dev.image_at(0)


class TestFileSystemOverFaults:
    """Transient faults the drive absorbs must be invisible to fsck."""

    @pytest.mark.parametrize("maker,check", [(make_ffs, fsck_ffs),
                                             (make_cffs, fsck_cffs)])
    def test_transient_faults_stay_clean(self, maker, check):
        fs = maker()
        fs.device = FaultyBlockDevice(
            fs.device,
            schedule=FaultSchedule(seed=42, transient_rate=0.2,
                                   max_transient_failures=2),
        )
        fs.cache.device = fs.device
        fs.mkdir("/d")
        for i in range(25):
            fs.write_file("/d/f%02d" % i, b"v" * (400 * (i + 1)))
        for i in range(0, 25, 3):
            fs.unlink("/d/f%02d" % i)
        fs.sync()
        assert fs.device.stats.transient_faults > 0
        report = check(fs.device)
        assert report.pristine, report.render()
        fs.drop_caches()
        assert fs.read_file("/d/f01") == b"v" * 800


class TestBatchPaths:
    """read_batch/write_batch must route through the same fault machinery
    as the extent paths: transients absorbed with latency, hard faults
    raised with nothing landed, location faults honoured per block."""

    def test_read_batch_clean_roundtrip(self):
        dev = proxy()
        dev.write_batch({4: block(4), 9: block(9), 10: block(10)})
        out = dev.read_batch([4, 9, 10])
        assert out == {4: block(4), 9: block(9), 10: block(10)}

    def test_read_batch_transient_absorbed_with_latency(self):
        s = PinnedFaults().fail_read(0, transient=True, failures=1)
        dev = proxy(schedule=s)
        dev.write_batch({4: block(4), 9: block(9)})
        out = dev.read_batch([4, 9])
        assert out == {4: block(4), 9: block(9)}
        assert dev.stats.transient_faults == 1

        def warm(dev):
            # Hit the drive's read cache in the step: a media read would
            # wait for the platter and could hide the backoff in that wait.
            dev.write_batch({4: block(4), 9: block(9)})
            dev.flush()
            dev.read_batch([4, 9])                 # read requests 0 and 1

        assert_backoff_charged(                    # the backoff was paid
            PinnedFaults().fail_read(2, transient=True, failures=1),
            warm, lambda dev: dev.read_batch([4, 9]), (retry_delay(0),))

    def test_read_batch_hard_fault_raises(self):
        s = PinnedFaults().fail_read(0)
        dev = proxy(schedule=s)
        with pytest.raises(MediaReadError):
            dev.read_batch([3, 4, 5])
        assert dev.stats.hard_read_faults == 1

    def test_write_batch_transient_lands_everything(self):
        s = PinnedFaults().fail_write(0, transient=True, failures=2)
        dev = proxy(schedule=s)
        nrequests = dev.write_batch({10: block(1), 11: block(2), 40: block(3)})
        assert nrequests == 2  # coalesced runs [10,11] and [40]
        for bno, tag in ((10, 1), (11, 2), (40, 3)):
            assert dev.read_block(bno) == block(tag)
        assert dev.stats.transient_faults == 2

    def test_write_batch_hard_fault_lands_nothing_of_that_request(self):
        s = PinnedFaults().fail_write(0)
        dev = proxy(schedule=s)
        with pytest.raises(MediaWriteError):
            dev.write_batch({10: block(1), 11: block(2)})
        assert dev.read_block(10) == bytes(BLOCK_SIZE)
        assert dev.read_block(11) == bytes(BLOCK_SIZE)

    def test_read_batch_weak_block_costs_latency_not_data(self):
        s = FaultSchedule(seed=5).weaken_reads([30])
        dev = proxy(schedule=s)
        dev.write_batch({29: block(9), 30: block(7)})
        before = dev.clock.now
        out = dev.read_batch([29, 30])
        assert out[29] == block(9) and out[30] == block(7)
        assert dev.stats.weak_reads == 1
        assert dev.clock.now > before

    def test_read_batch_bad_block_poisons_covering_request(self):
        s = FaultSchedule(seed=5).break_reads([31])
        dev = proxy(schedule=s)
        dev.write_batch({30: block(1), 31: block(2), 32: block(3)})
        with pytest.raises(MediaReadError):
            dev.read_batch([30, 31, 32])   # coalesces over the bad block
        assert dev.read_block(30) == block(1)  # neighbours still fine alone
        assert dev.stats.hard_read_faults >= 1

    def test_write_batch_bad_block_refuses_covering_request(self):
        s = FaultSchedule(seed=5).break_writes([21])
        dev = proxy(schedule=s)
        with pytest.raises(MediaWriteError):
            dev.write_batch({20: block(1), 21: block(2)})
        assert dev.read_block(20) == bytes(BLOCK_SIZE)
        assert dev.stats.hard_write_faults == 1

    def test_read_batch_rot_corrupts_silently_once(self):
        s = FaultSchedule(seed=5).rot([42])
        dev = proxy(schedule=s)
        dev.write_batch({41: block(1), 42: block(2)})
        s.rot([42])                       # re-arm: the write cancelled decay
        out = dev.read_batch([41, 42])
        assert out[41] == block(1)
        assert out[42] != block(2)        # flipped bits, no error raised
        assert sum(a != b for a, b in zip(out[42], block(2))) == 1
        assert dev.stats.rot_corruptions == 1
        # Decay is sticky: the same corrupt bytes on every later read.
        assert dev.read_batch([42])[42] == out[42]
        assert dev.stats.rot_corruptions == 1
