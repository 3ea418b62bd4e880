"""Tests for zoned disk geometry and address translation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk.geometry import SECTOR_SIZE, DiskGeometry, Zone
from repro.errors import AddressError


def two_zone() -> DiskGeometry:
    return DiskGeometry(4, [Zone(100, 40), Zone(100, 24)])


class TestConstruction:
    def test_total_sectors(self):
        g = two_zone()
        assert g.total_sectors == 100 * 4 * 40 + 100 * 4 * 24

    def test_capacity_bytes(self):
        g = two_zone()
        assert g.capacity_bytes == g.total_sectors * SECTOR_SIZE

    def test_uniform_constructor(self):
        g = DiskGeometry(2, [Zone(10, 8)])
        assert g.total_sectors == 160
        assert g.cylinders == 10

    def test_rejects_no_zones(self):
        with pytest.raises(ValueError):
            DiskGeometry(2, [])

    def test_rejects_zero_heads(self):
        with pytest.raises(ValueError):
            DiskGeometry(0, [Zone(5, 5)])

    def test_zone_validation(self):
        with pytest.raises(ValueError):
            Zone(0, 10)
        with pytest.raises(ValueError):
            Zone(10, 0)


class TestTranslation:
    def test_lba_zero(self):
        assert two_zone().chs(0) == (0, 0, 0)

    def test_last_sector_of_first_track(self):
        assert two_zone().chs(39) == (0, 0, 39)

    def test_head_advance(self):
        assert two_zone().chs(40) == (0, 1, 0)

    def test_cylinder_advance(self):
        g = two_zone()
        assert g.chs(40 * 4) == (1, 0, 0)

    def test_zone_boundary(self):
        g = two_zone()
        first_of_zone2 = 100 * 4 * 40
        assert g.chs(first_of_zone2) == (100, 0, 0)

    def test_sectors_per_track_by_zone(self):
        g = two_zone()
        assert g.sectors_per_track_at(0) == 40
        assert g.sectors_per_track_at(150) == 24

    def test_out_of_range_lba(self):
        g = two_zone()
        with pytest.raises(AddressError):
            g.chs(g.total_sectors)
        with pytest.raises(AddressError):
            g.chs(-1)

    def test_out_of_range_cylinder(self):
        with pytest.raises(AddressError):
            two_zone().zone_of_cylinder(200)

    def test_bad_head_rejected(self):
        with pytest.raises(AddressError):
            two_zone().lba(0, 4, 0)

    def test_bad_sector_rejected(self):
        with pytest.raises(AddressError):
            two_zone().lba(0, 0, 40)

    @given(st.integers(min_value=0, max_value=100 * 4 * 40 + 100 * 4 * 24 - 1))
    @settings(max_examples=200)
    def test_roundtrip(self, lba):
        g = two_zone()
        cyl, head, sector = g.chs(lba)
        assert g.lba(cyl, head, sector) == lba

    @given(st.integers(min_value=0, max_value=100 * 4 * 40 + 100 * 4 * 24 - 2))
    @settings(max_examples=100)
    def test_monotone(self, lba):
        """(cylinder, head, sector) increases lexicographically with LBA."""
        g = two_zone()
        assert g.chs(lba + 1) > g.chs(lba)
