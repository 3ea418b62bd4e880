"""Tests for the simulated clock and CPU cost model."""

import pytest

from repro.clock import COPY_US_PER_KB, DIRENT_SCAN_NS, SYSCALL_US, CpuModel, SimClock


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_starts_at_given_time(self):
        assert SimClock(5.0).now == 5.0

    def test_advance_moves_forward(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now == pytest.approx(2.0)

    def test_advance_rejects_negative(self):
        with pytest.raises(ValueError):
            SimClock().advance(-0.1)

    def test_advance_zero_is_noop(self):
        clock = SimClock(3.0)
        clock.advance(0.0)
        assert clock.now == 3.0

    def test_advance_to_future(self):
        clock = SimClock()
        clock.advance_to(7.0)
        assert clock.now == 7.0

    def test_advance_to_past_is_noop(self):
        clock = SimClock(10.0)
        clock.advance_to(4.0)
        assert clock.now == 10.0


class TestCpuModel:
    def test_syscall_charges_time(self):
        clock = SimClock()
        CpuModel(clock).charge_syscall()
        assert SYSCALL_US == 20.0
        assert clock.now == pytest.approx(20e-6)

    def test_copy_scales_with_bytes(self):
        clock = SimClock()
        CpuModel(clock).charge_copy(4096)
        assert COPY_US_PER_KB == 25.0
        assert clock.now == pytest.approx(100e-6)

    def test_copy_of_nothing_is_free(self):
        clock = SimClock()
        CpuModel(clock).charge_copy(0)
        assert clock.now == 0.0

    def test_dirent_scan_scales_with_entries(self):
        clock = SimClock()
        CpuModel(clock).charge_dirent_scan(1000)
        assert DIRENT_SCAN_NS == 400.0
        assert clock.now == pytest.approx(400e-9 * 1000)
