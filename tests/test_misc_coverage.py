"""Coverage for remaining corners: config grid, CLI regroup, image
edge cases, drive idle drains, zone-boundary transfers, breakdown
driver."""


from dataclasses import replace

import pytest

from repro.blockdev.device import BLOCK_SIZE, BlockDevice
from repro.cache.policy import MetadataPolicy
from repro.cli import main
from repro.core.filesystem import CFFSConfig
from repro.disk.drive import SimulatedDisk
from repro.errors import InvalidArgument
from repro.workloads.configs import CONFIG_GRID, config_for
from tests.conftest import TEST_PROFILE, make_cffs


class TestConfigGrid:
    def test_four_configurations(self):
        assert set(CONFIG_GRID) == {"conventional", "embedded", "grouping", "cffs"}

    def test_flags_match_labels(self):
        assert CONFIG_GRID["conventional"] == (False, False)
        assert CONFIG_GRID["cffs"] == (True, True)

    def test_ffs_is_the_conventional_baseline(self):
        assert config_for("ffs") == config_for("conventional")
        assert "ffs" not in CONFIG_GRID   # the artefact grid runs it once
        with pytest.raises(InvalidArgument):
            config_for("ext2")

    def test_config_for_builds_matching_config(self):
        cfg = config_for("embedded", MetadataPolicy.DELAYED_METADATA)
        assert cfg.embedded_inodes is True
        assert cfg.explicit_grouping is False
        assert cfg.policy is MetadataPolicy.DELAYED_METADATA

    def test_config_labels(self):
        assert CFFSConfig().label == "cffs"
        assert CFFSConfig(embedded_inodes=False).label == "ffs+group"
        assert CFFSConfig(explicit_grouping=False).label == "ffs+embed"
        assert CFFSConfig(embedded_inodes=False,
                          explicit_grouping=False).label == "conventional"

    def test_overrides_forwarded(self):
        cfg = config_for("cffs", group_span=8, cache_blocks=256)
        assert cfg.group_span == 8
        assert cfg.cache_blocks == 256


class TestDriveCorners:
    def test_read_across_zone_boundary(self):
        disk = SimulatedDisk(TEST_PROFILE)
        # TEST_PROFILE zone 0: 100 cyls x 4 heads x 40 spt = 16000 sectors.
        boundary = 100 * 4 * 40
        disk.read(boundary - 16, 32)  # spans the zone change
        assert disk.clock.now > 0

    def test_read_of_last_sectors(self):
        disk = SimulatedDisk(TEST_PROFILE)
        disk.read(disk.total_sectors - 8, 8)
        assert disk.stats.reads == 1

    def test_idle_lets_background_drain(self):
        disk = SimulatedDisk(TEST_PROFILE)
        for i in range(8):
            disk.write(1000 + i * 640, 8)
        assert not disk.write_buffer.empty
        disk.clock.advance(2.0)      # idle time, then the next request
        disk.read(0, 8)
        assert disk.write_buffer.empty

    def test_multi_track_transfer_charges_switches(self):
        disk = SimulatedDisk(replace(
            TEST_PROFILE, cache_segments=0, readahead_sectors=0,
            write_cache=False))
        # 120 sectors spans 3 tracks of 40 in zone 0.
        disk.read(0, 120)
        single = SimulatedDisk(replace(
            TEST_PROFILE, cache_segments=0, readahead_sectors=0,
            write_cache=False))
        single.read(0, 30)
        assert disk.stats.transfer_time > single.stats.transfer_time * 3


class TestImageEdgeCases:
    def test_truncated_payload_rejected(self, tmp_path):
        device = BlockDevice(TEST_PROFILE)
        device.poke_block(3, b"d" * BLOCK_SIZE)
        path = str(tmp_path / "x.img")
        device.save_image(path)
        raw = open(path, "rb").read()
        open(path, "wb").write(raw[:-20])
        with pytest.raises(Exception):
            BlockDevice.load_image(path, profile=TEST_PROFILE)

    def test_wrong_profile_capacity_rejected(self, tmp_path):
        device = BlockDevice(TEST_PROFILE)
        path = str(tmp_path / "x.img")
        device.save_image(path)
        small = replace(TEST_PROFILE, name="smaller",
                        zone_table=((50, 40), (50, 24)))
        with pytest.raises(InvalidArgument):
            BlockDevice.load_image(path, profile=small)


class TestCliRegroup:
    def test_regroup_command(self, tmp_path, capsys):
        image = str(tmp_path / "r.img")
        assert main(["mkfs", image]) == 0
        assert main(["mkdir", image, "/d"]) == 0
        host = tmp_path / "payload"
        host.write_bytes(b"q" * 3000)
        assert main(["put", image, str(host), "/d/a"]) == 0
        assert main(["regroup", image, "/d"]) == 0
        out = capsys.readouterr().out
        assert "moved" in out
        assert main(["fsck", image]) == 0

    def test_regroup_rejects_ffs(self, tmp_path, capsys):
        image = str(tmp_path / "f.img")
        assert main(["mkfs", image, "--fs", "ffs"]) == 0
        assert main(["regroup", image, "/"]) == 2


class TestBreakdownDriver:
    def test_breakdown_shapes(self):
        from repro.bench import breakdown_read_time

        out = breakdown_read_time(n_files=300)
        rows = out.data["rows"]
        conv = rows["conventional"]
        cffs = rows["cffs"]
        conv_pos = conv["seek"] + conv["rotation"]
        cffs_pos = cffs["seek"] + cffs["rotation"]
        assert conv_pos > cffs_pos
        assert "positioning share" in out.text
        # The rows are the read phase's window, not the drive's lifetime
        # counters (mkfs + create + read): its disk time fits inside
        # the phase's own seconds.
        assert "(read phase)" in out.text
        for row in rows.values():
            disk_time = sum(row[part] for part in
                            ("seek", "rotation", "transfer", "overhead"))
            assert 0 < disk_time <= 300 / row["read_files_per_s"]


class TestHintedSiteDeterminism:
    def test_build_site_deterministic(self):
        from repro.workloads.hypertext import build_site

        a = build_site(make_cffs(), n_documents=6)
        b = build_site(make_cffs(), n_documents=6)
        assert [d.paths for d in a] == [d.paths for d in b]
        assert [d.total_bytes for d in a] == [d.total_bytes for d in b]
