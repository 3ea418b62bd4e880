"""Version-1 images are refused by name, never misread.

Format version 1 sealed the journal and the resilience region with a
different checksum (Castagnoli's polynomial).  No version-1 reader is
kept: every entry point must end in the taxonomy error that names the
version — not in a CRC mismatch, not in ``struct.error``.  The headers
here are genuine version-1 headers, seal included, built in-test.
"""

import struct

import pytest

from repro.blockdev.device import BLOCK_SIZE, BlockDevice
from repro.cache.policy import MetadataPolicy
from repro.cli import main
from repro.core import layout as clayout
from repro.core.filesystem import CFFS, CFFSConfig
from repro.errors import CorruptFileSystem, JournalCorrupt
from repro.faults.harness import FAULTSIM_PROFILE
from repro.fsck import check_image, fsck_cffs
from repro.journal import replay_journal
from repro.resilience import ResilientBlockDevice


def _castagnoli(data: bytes) -> int:
    """Bit-at-a-time checksum of format version 1."""
    crc = 0xFFFFFFFF
    for byte in data:
        crc ^= byte
        for _ in range(8):
            crc = (crc >> 1) ^ 0x82F63B78 if crc & 1 else crc >> 1
    return crc ^ 0xFFFFFFFF


def _v1_block(body: bytes) -> bytes:
    sealed = body + struct.pack("<I", _castagnoli(body))
    return sealed + bytes(BLOCK_SIZE - len(sealed))


def v1_journal_header(nblocks: int) -> bytes:
    return _v1_block(struct.pack("<8sIIQ", b"CFFSJRNL", 1, nblocks, 0))


def v1_resilience_header(geo) -> bytes:
    return _v1_block(struct.pack(
        "<8sHQIIIII", b"CFRESIL1", 1, geo.usable_blocks, geo.n_crc_blocks,
        geo.n_spares, 0, 0, 0))


def test_the_v1_seal_is_the_real_one():
    assert _castagnoli(b"123456789") == 0xE3069283


class TestJournalV1:
    def image(self):
        fs = CFFS.mkfs(BlockDevice(FAULTSIM_PROFILE), CFFSConfig(
            blocks_per_cg=512, cache_blocks=256,
            policy=MetadataPolicy.JOURNAL_METADATA))
        fs.sync()
        sb = clayout.unpack_superblock(fs.device.peek_block(0))
        start, nblocks = sb["journal_start"], sb["journal_blocks"]
        fs.device.poke_block(start, v1_journal_header(nblocks))
        return fs.device, start, nblocks

    def test_mount_refuses(self):
        device, _, _ = self.image()
        with pytest.raises(JournalCorrupt, match="version 1 unsupported"):
            CFFS.mount(device)

    def test_replay_refuses(self):
        device, start, nblocks = self.image()
        with pytest.raises(JournalCorrupt, match="version 1 unsupported"):
            replay_journal(device, start, nblocks)

    def test_fsck_reports_it(self):
        device, _, _ = self.image()
        report = fsck_cffs(device)
        assert not report.ok
        assert any("journal format version 1 unsupported" in line
                   for line in report.errors)


class TestResilienceV1:
    def image(self):
        dev = ResilientBlockDevice.format(BlockDevice(FAULTSIM_PROFILE))
        dev.inner.poke_block(dev.geometry.header_block,
                             v1_resilience_header(dev.geometry))
        return dev.inner

    def test_attach_refuses(self):
        with pytest.raises(CorruptFileSystem, match="version 1 unsupported"):
            ResilientBlockDevice.attach(self.image())

    def test_fsck_reports_it(self):
        report = check_image(self.image(), repair=True).resilience
        assert not report.ok and not report.fixed
        assert any("version 1 unsupported" in line for line in report.errors)


class TestCli:
    def test_fsck_journal_v1(self, tmp_path, capsys):
        path = str(tmp_path / "j.img")
        assert main(["mkfs", path, "--policy", "journal"]) == 0
        device = BlockDevice.load_image(path)
        sb = clayout.unpack_superblock(device.peek_block(0))
        device.poke_block(sb["journal_start"],
                          v1_journal_header(sb["journal_blocks"]))
        device.save_image(path)
        capsys.readouterr()
        assert main(["fsck", path]) == 1
        assert "journal format version 1 unsupported" in capsys.readouterr().out
        assert main(["ls", path, "/"]) == 1
        assert ("error: journal format version 1 unsupported"
                in capsys.readouterr().err)

    def test_fsck_resilience_v1(self, tmp_path, capsys):
        path = str(tmp_path / "r.img")
        assert main(["mkfs", path, "--resilient"]) == 0
        device = BlockDevice.load_image(path)
        geo = ResilientBlockDevice.attach(device).geometry
        device.poke_block(geo.header_block, v1_resilience_header(geo))
        device.save_image(path)
        capsys.readouterr()
        assert main(["fsck", path]) == 1
        assert ("resilience header version 1 unsupported"
                in capsys.readouterr().out)
        assert main(["ls", path, "/"]) == 1
        assert ("error: resilience header version 1 unsupported"
                in capsys.readouterr().err)
