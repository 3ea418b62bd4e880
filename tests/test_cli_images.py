"""Tests for device-image persistence and the command-line interface."""

import os

import pytest

from repro.blockdev.device import BLOCK_SIZE, BlockDevice
from repro.cli import main
from repro.core import layout as clayout
from repro.core.filesystem import CFFS
from repro.errors import InvalidArgument
from repro.ffs import cylgroup
from tests.conftest import TEST_PROFILE, make_cffs


class TestImages:
    def test_roundtrip(self, tmp_path):
        device = BlockDevice(TEST_PROFILE)
        device.poke_block(5, b"five" * 1024)
        device.poke_block(900, b"nine" * 1024)
        path = str(tmp_path / "dev.img")
        device.save_image(path)
        back = BlockDevice.load_image(path, profile=TEST_PROFILE)
        assert back.peek_block(5) == b"five" * 1024
        assert back.peek_block(900) == b"nine" * 1024
        assert back.peek_block(6) == bytes(BLOCK_SIZE)
        assert back.total_blocks == device.total_blocks

    def test_sparse(self, tmp_path):
        device = BlockDevice(TEST_PROFILE)
        device.poke_block(0, bytes(BLOCK_SIZE))
        path = str(tmp_path / "dev.img")
        device.save_image(path)
        assert os.path.getsize(path) < 4096  # compressed, sparse

    def test_not_an_image(self, tmp_path):
        path = str(tmp_path / "junk")
        with open(path, "wb") as handle:
            handle.write(b"not an image at all")
        with pytest.raises(InvalidArgument):
            BlockDevice.load_image(path)

    def test_filesystem_survives_image_roundtrip(self, tmp_path):
        fs = make_cffs()
        fs.mkdir("/d")
        fs.write_file("/d/file", b"persisted" * 100)
        fs.sync()
        path = str(tmp_path / "fs.img")
        fs.device.save_image(path)
        device = BlockDevice.load_image(path, profile=TEST_PROFILE)
        remounted = CFFS.mount(device)
        assert remounted.read_file("/d/file") == b"persisted" * 100

    def test_mount_derives_config_from_superblock(self, tmp_path):
        fs = make_cffs(grouping=False)
        fs.create("/marker")
        fs.sync()
        path = str(tmp_path / "fs.img")
        fs.device.save_image(path)
        device = BlockDevice.load_image(path, profile=TEST_PROFILE)
        remounted = CFFS.mount(device)  # no config passed
        assert remounted.config.explicit_grouping is False
        assert remounted.config.embedded_inodes is True
        assert remounted.exists("/marker")


class TestCli:
    def img(self, tmp_path) -> str:
        path = str(tmp_path / "cli.img")
        assert main(["mkfs", path]) == 0
        return path

    def test_mkfs_and_info(self, tmp_path, capsys):
        self.img(tmp_path)
        out = capsys.readouterr().out
        assert "cffs" in out

    def test_put_ls_get_roundtrip(self, tmp_path, capsys):
        image = self.img(tmp_path)
        host = tmp_path / "hello.txt"
        host.write_bytes(b"hello from the host\n")
        assert main(["put", image, str(host), "/hello"]) == 0
        assert main(["ls", image, "/"]) == 0
        out = capsys.readouterr().out
        assert "hello" in out
        dest = tmp_path / "back.txt"
        assert main(["get", image, "/hello", str(dest)]) == 0
        assert dest.read_bytes() == b"hello from the host\n"

    def test_mkdir_stat(self, tmp_path, capsys):
        image = self.img(tmp_path)
        assert main(["mkdir", image, "/sub"]) == 0
        assert main(["stat", image, "/sub"]) == 0
        out = capsys.readouterr().out
        assert "directory" in out

    def test_rm(self, tmp_path, capsys):
        image = self.img(tmp_path)
        host = tmp_path / "f"
        host.write_bytes(b"x")
        main(["put", image, str(host), "/f"])
        assert main(["rm", image, "/f"]) == 0
        capsys.readouterr()
        main(["ls", image, "/"])
        assert capsys.readouterr().out.strip() == ""  # directory now empty

    def test_fsck_clean(self, tmp_path, capsys):
        image = self.img(tmp_path)
        assert main(["fsck", image]) == 0
        assert "clean" in capsys.readouterr().out

    def test_fsck_detects_corruption(self, tmp_path, capsys):
        image = self.img(tmp_path)
        host = tmp_path / "f"
        host.write_bytes(b"payload" * 100)
        main(["put", image, str(host), "/f"])
        device = BlockDevice.load_image(image)
        block = bytearray(device.peek_block(0))
        block[0] ^= 0xFF
        device.poke_block(0, bytes(block))
        device.save_image(image)
        assert main(["fsck", image]) == 2  # unrecognizable magic

    def test_ffs_images(self, tmp_path, capsys):
        path = str(tmp_path / "ffs.img")
        assert main(["mkfs", path, "--fs", "ffs"]) == 0
        host = tmp_path / "f"
        host.write_bytes(b"ffs data")
        assert main(["put", path, str(host), "/f"]) == 0
        assert main(["get", path, "/f", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out").read_bytes() == b"ffs data"
        assert main(["fsck", path]) == 0

    def test_technique_flags(self, tmp_path, capsys):
        path = str(tmp_path / "plain.img")
        assert main(["mkfs", path, "--no-embed", "--no-group"]) == 0
        assert main(["info", path]) == 0
        out = capsys.readouterr().out
        assert "embedded=False grouping=False" in out

    def test_bench_runs(self, capsys):
        assert main(["bench", "--files", "150", "--configs", "cffs"]) == 0
        assert "create" in capsys.readouterr().out

    def test_missing_image(self, tmp_path, capsys):
        assert main(["ls", str(tmp_path / "nope.img")]) == 1

    def test_unknown_profile(self, tmp_path, capsys):
        assert main(["mkfs", str(tmp_path / "x.img"), "--profile", "Floppy"]) == 2


def _digest(path) -> str:
    return BlockDevice.load_image(path).content_digest()


def _run(capsys, *argv):
    """Exit code, stdout and stderr of one command."""
    capsys.readouterr()
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def _image(tmp_path, capsys, *mkfs_flags) -> str:
    """A fresh image holding one 4800-byte file at /f."""
    path = str(tmp_path / "fs.img")
    host = tmp_path / "payload"
    host.write_bytes(b"payload " * 600)
    assert main(["mkfs", path, *mkfs_flags]) == 0
    assert main(["put", path, str(host), "/f"]) == 0
    capsys.readouterr()
    return path


class TestOfflineImages:
    """What ``fsck``, ``ls`` and ``journal`` print and write back, byte
    for byte, on damaged and resilient images."""

    def test_fsck_repairs_a_stale_sidecar_and_a_cleared_bitmap_bit(
            self, tmp_path, capsys):
        path = _image(tmp_path, capsys, "--resilient")
        device = BlockDevice.load_image(path)
        sb = clayout.unpack_superblock(device.peek_block(0))
        bno = cylgroup.bitmap_block(cylgroup.cg_base(0, sb["blocks_per_cg"]))
        bitmap = bytearray(device.peek_block(bno))
        cylgroup.clear_bit(bitmap, sb["data_start"])
        # A raw write: the bitmap block's sidecar CRC goes stale with it.
        device.poke_block(bno, bytes(bitmap))
        device.save_image(path)
        damaged = _digest(path)

        assert _run(capsys, "fsck", path) == (0, FSCK_STALE, "")
        assert _digest(path) == damaged
        assert _run(capsys, "fsck", path, "--repair") == (
            0, FSCK_STALE_REPAIR, "")
        assert _digest(path) == STALE_REPAIRED_DIGEST
        assert _run(capsys, "fsck", path) == (0, FSCK_RESILIENT_CLEAN, "")

    @pytest.mark.parametrize("fs", ["ffs", "cffs"])
    def test_smashed_magic_is_restored_from_the_replica(
            self, tmp_path, capsys, fs):
        path = _image(tmp_path, capsys, "--fs", fs)
        device = BlockDevice.load_image(path)
        block = bytearray(device.peek_block(0))
        block[0] ^= 0xFF
        device.poke_block(0, bytes(block))
        device.save_image(path)
        damaged = _digest(path)

        assert _run(capsys, "fsck", path) == (
            2, "", "unrecognizable file system (magic 0x%x)\n"
            % SMASHED_MAGIC[fs])
        assert _digest(path) == damaged
        assert _run(capsys, "fsck", path, "--repair") == (
            1, FSCK_REPLICA_RESTORE[fs], "")
        assert _digest(path) == REPLICA_RESTORED_DIGEST[fs]
        code, out, _ = _run(capsys, "fsck", path)
        assert (code, out.splitlines()[-1]) == (0, "clean")

    def test_broken_header_crc_is_not_clean(self, tmp_path, capsys):
        path = _image(tmp_path, capsys, "--resilient")
        device = BlockDevice.load_image(path)
        header = bytearray(device.peek_block(device.total_blocks - 1))
        header[26] ^= 0x01          # spares used: only the CRC notices
        device.poke_block(device.total_blocks - 1, bytes(header))
        device.save_image(path)
        damaged = _digest(path)

        for argv in (["fsck", path], ["fsck", path, "--repair"]):
            assert _run(capsys, *argv) == (1, FSCK_BAD_HEADER, "")
            assert _digest(path) == damaged

    def test_ls_and_journal_on_a_resilient_journaled_image(
            self, tmp_path, capsys):
        path = _image(tmp_path, capsys, "--resilient", "--policy", "journal")
        before = _digest(path)
        assert _run(capsys, "ls", path, "/") == (0, LS_F, "")
        assert _run(capsys, "journal", path) == (0, JOURNAL_RESILIENT, "")
        assert _digest(path) == before == JOURNALED_DIGEST


FSCK_STALE = """\
fsck(resilience): 0 files, 0 directories, 0 blocks in use
repair: sidecar CRC for block 2 is 0xaf51e95e, media holds 0x6c6b3a24
clean
fsck(cffs): 1 files, 1 directories, 3 blocks in use
repair: block 11 in use but free in bitmap
clean
"""
FSCK_STALE_REPAIR = """\
fsck(resilience): 0 files, 0 directories, 0 blocks in use
repair: sidecar CRC for block 2 is 0xaf51e95e, media holds 0x6c6b3a24
fixed: rebuilt 1 sidecar entries from media content
clean
fsck(cffs): 1 files, 1 directories, 3 blocks in use
repair: block 11 in use but free in bitmap
fixed: cg 0: bitmap rebuilt
clean
"""
FSCK_RESILIENT_CLEAN = """\
fsck(resilience): 0 files, 0 directories, 0 blocks in use
clean
fsck(cffs): 1 files, 1 directories, 3 blocks in use
clean
"""
STALE_REPAIRED_DIGEST = (
    "b7944002cfcab680b2720985df0b5007a93710c18f7fb5a3932735d7a7c16711")
SMASHED_MAGIC = {"ffs": 0x119ab, "cffs": 0xcff5168}
FSCK_REPLICA_RESTORE = {fs: """\
fsck(%s): 1 files, 1 directories, 3 blocks in use
ERROR: bad superblock magic 0x%x
fixed: superblock restored from replica block 230849
NOT CLEAN
""" % (fs, magic) for fs, magic in SMASHED_MAGIC.items()}
REPLICA_RESTORED_DIGEST = {
    "ffs": "17c7f3466255cd43df92594ed288b03bcf0ed28ac49abb6fe33caf24c2c549d5",
    "cffs": "3f5fa6171658240cd502724102763b61f967fb7dad4fb5c026787561521c6eeb",
}
FSCK_BAD_HEADER = """\
fsck(resilience): 0 files, 0 directories, 0 blocks in use
ERROR: resilience header unreadable: resilience header CRC mismatch
NOT CLEAN
"""
LS_F = "-     4800  f\n"
JOURNAL_RESILIENT = """\
journal: blocks 229377..230400 (1024 blocks), checkpoint seq 0
log: 0 transaction(s), 1 of 1024 blocks used
  (empty: volume is checkpointed)
"""
JOURNALED_DIGEST = (
    "69a4e2daa8fdaebf323c33502df341cb49aeb92a8074fc840bd9e88d70a37f03")
