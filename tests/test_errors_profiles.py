"""Tests for the error hierarchy and the drive profile catalogue."""

import pytest

from repro import errors
from repro.disk.profiles import (
    HP_C2247,
    HP_C3653,
    PROFILES,
    QUANTUM_ATLAS_II,
    SEAGATE_BARRACUDA_4LP,
    TABLE1_DRIVES,
)


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(errors.FileNotFound, errors.FileSystemError)
        assert issubclass(errors.FileSystemError, errors.ReproError)
        assert issubclass(errors.AddressError, errors.DiskError)
        assert issubclass(errors.DiskError, errors.ReproError)

    def test_errno_names(self):
        assert errors.FileNotFound.errno_name == "ENOENT"
        assert errors.FileExists.errno_name == "EEXIST"
        assert errors.DirectoryNotEmpty.errno_name == "ENOTEMPTY"
        assert errors.NoSpace.errno_name == "ENOSPC"
        assert errors.BadFileDescriptor.errno_name == "EBADF"

    def test_catchable_as_base(self):
        with pytest.raises(errors.ReproError):
            raise errors.CorruptFileSystem("boom")


class TestProfiles:
    def test_catalogue_complete(self):
        assert len(PROFILES) == 5
        for profile in PROFILES.values():
            assert profile.capacity_bytes > 0
            assert profile.cylinders > 100

    def test_seek_curves_fit_for_all(self):
        """Every published profile yields a monotone seek curve hitting
        its three published points."""
        for profile in PROFILES.values():
            curve = profile.seek_curve()
            assert curve.seek_time(1) == pytest.approx(
                profile.single_cyl_seek_ms * 1e-3, rel=0.01
            )
            assert curve.seek_time(profile.cylinders - 1) == pytest.approx(
                profile.full_seek_ms * 1e-3, rel=0.05
            )
            prev = 0.0
            for d in (1, 10, 100, 1000, profile.cylinders - 1):
                t = curve.seek_time(d)
                assert t >= prev
                prev = t

    def test_geometry_consistent(self):
        for profile in PROFILES.values():
            geometry = profile.geometry()
            assert geometry.cylinders == profile.cylinders
            assert geometry.capacity_bytes == profile.capacity_bytes

    def test_paper_seek_values_encoded(self):
        assert HP_C3653.avg_seek_ms == 8.7
        assert SEAGATE_BARRACUDA_4LP.avg_seek_ms == 8.0
        assert QUANTUM_ATLAS_II.avg_seek_ms == 7.9
        assert HP_C3653.full_seek_ms == 16.5
        assert SEAGATE_BARRACUDA_4LP.full_seek_ms == 19.0
        assert QUANTUM_ATLAS_II.full_seek_ms == 18.0

    def test_c2247_claim(self):
        """Paper: the HP C2247 'had only half as many sectors on each
        track as the HP C3653 ... but an average access time that was
        only 33% higher'."""
        ratio = HP_C2247.zone_table[0][1] / HP_C3653.zone_table[0][1]
        assert ratio == pytest.approx(0.5)
        c2247_access = HP_C2247.avg_seek_ms + HP_C2247.rotation_ms / 2
        c3653_access = HP_C3653.avg_seek_ms + HP_C3653.rotation_ms / 2
        assert c2247_access / c3653_access == pytest.approx(1.33, abs=0.12)

    def test_bandwidth_improved_faster_than_access_time(self):
        """The motivating trend: per-byte costs fall much faster than
        per-request costs."""
        bw_ratio = HP_C3653.max_media_mb_per_s / HP_C2247.max_media_mb_per_s
        access_ratio = (
            (HP_C2247.avg_seek_ms + HP_C2247.rotation_ms / 2)
            / (HP_C3653.avg_seek_ms + HP_C3653.rotation_ms / 2)
        )
        assert bw_ratio > 2.0
        assert access_ratio < 1.5

    def test_table1_drives_are_the_1996_trio(self):
        names = {p.name for p in TABLE1_DRIVES}
        assert names == {"HP C3653", "Seagate Barracuda 4LP", "Quantum Atlas II"}
