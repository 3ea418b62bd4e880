"""Tests for seek and rotation models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk.mechanics import RotationModel, SeekCurve


def curve() -> SeekCurve:
    return SeekCurve.from_three_points(1.0, 8.0, 16.0, 2000)


class TestSeekCurve:
    def test_zero_distance_is_free(self):
        assert curve().seek_time(0) == 0.0

    def test_single_cylinder_matches(self):
        assert curve().seek_time(1) == pytest.approx(1.0e-3, rel=0.15)

    def test_average_point_matches(self):
        d_avg = max(2, 2000 // 3)
        assert curve().seek_time(d_avg) == pytest.approx(8.0e-3, rel=0.05)

    def test_full_stroke_matches(self):
        assert curve().seek_time(1999) == pytest.approx(16.0e-3, rel=0.02)

    def test_symmetric_in_direction(self):
        c = curve()
        assert c.seek_time(-500) == c.seek_time(500)

    def test_short_seeks_rise_quickly(self):
        """'this cost rises quickly for slightly longer seek distances'
        [Worthington95]: the sqrt region is concave."""
        c = curve()
        assert c.seek_time(4) - c.seek_time(1) > c.seek_time(104) - c.seek_time(101)

    def test_rejects_bad_ordering(self):
        with pytest.raises(ValueError):
            SeekCurve.from_three_points(10.0, 8.0, 16.0, 2000)
        with pytest.raises(ValueError):
            SeekCurve.from_three_points(0.0, 8.0, 16.0, 2000)

    def test_rejects_tiny_disk(self):
        with pytest.raises(ValueError):
            SeekCurve.from_three_points(1.0, 8.0, 16.0, 2)

    @given(st.integers(min_value=1, max_value=1998))
    @settings(max_examples=200)
    def test_monotone_nondecreasing(self, d):
        c = curve()
        assert c.seek_time(d + 1) >= c.seek_time(d)

    @given(st.integers(min_value=1, max_value=1999))
    @settings(max_examples=100)
    def test_bounded_by_endpoints(self, d):
        c = curve()
        assert c.seek_time(1) <= c.seek_time(d) <= c.seek_time(1999) + 1e-12


class TestRotation:
    def test_period(self):
        assert RotationModel(5400).period_s == pytest.approx(60.0 / 5400)

    def test_angle_wraps(self):
        r = RotationModel(5400)
        assert r.angle_at(r.period_s) == pytest.approx(0.0, abs=1e-9)

    def test_wait_for_current_sector_is_zero(self):
        r = RotationModel(6000)
        # At t=0 the platter is at angle 0, sector 0 is under the head.
        assert r.wait_for_sector(0.0, 0, 32) == pytest.approx(0.0, abs=1e-12)

    def test_wait_for_opposite_sector_is_half_period(self):
        r = RotationModel(6000)
        assert r.wait_for_sector(0.0, 16, 32) == pytest.approx(r.period_s / 2)

    def test_wait_never_exceeds_period(self):
        r = RotationModel(7200)
        for s in range(64):
            assert 0.0 <= r.wait_for_sector(0.123, s, 64) < r.period_s

    def test_a_track_of_sectors_takes_one_period(self):
        r = RotationModel(5400)
        assert 80 * r.sector_time(80) == pytest.approx(r.period_s)
        assert r.sector_time(80) == r.period_s / 80

    @given(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        st.integers(min_value=0, max_value=79),
    )
    @settings(max_examples=200)
    def test_wait_lands_exactly_on_sector(self, t, sector):
        """After waiting, the platter angle is exactly the sector start."""
        r = RotationModel(5400)
        wait = r.wait_for_sector(t, sector, 80)
        angle = r.angle_at(t + wait)
        target = sector / 80
        assert angle == pytest.approx(target, abs=1e-6) or angle == pytest.approx(
            target + 1.0, abs=1e-6
        )
