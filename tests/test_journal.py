"""Tests for the crash-consistency subsystem: the write-ahead journal
(log format, group commit, replay) and the soft-updates dependency
tracker.

The integration claims — every crash point recovers under the journal
policy, fsck replays before its walk — live in test_faultsim.py and
test_crash_consistency.py; this file covers the subsystem itself:
record formats, torn-tail handling, replay idempotence, the
fast-remount speedup, and the tracker's ordering decisions.
"""

import pytest

from repro.blockdev.device import BLOCK_SIZE, BlockDevice
from repro.cache.policy import MetadataPolicy
from repro.core.filesystem import CFFS, CFFSConfig
from repro.core import layout as clayout
from repro.disk.profiles import SEAGATE_ST31200
from repro.errors import JournalCorrupt, ReplayError
from repro.faults.harness import FAULTSIM_PROFILE
from repro.ffs.filesystem import FFS, FFSConfig
from repro.fsck import check_image, fsck_cffs, mount_image, timed_fsck
from repro.journal import (
    SoftDepTracker,
    attach_pipeline,
    default_journal_blocks,
    describe_journal,
    replay_journal,
    scan_journal,
    timed_replay,
)
from repro.journal import wal


def block(tag: int) -> bytes:
    return bytes([tag % 256]) * BLOCK_SIZE


class TestLogFormat:
    def test_header_roundtrip(self):
        raw = wal.pack_header(128, 42)
        assert len(raw) == BLOCK_SIZE
        assert wal.unpack_header(raw) == {"nblocks": 128, "checkpoint_seq": 42}

    def test_header_crc_rejected(self):
        raw = bytearray(wal.pack_header(128, 42))
        raw[16] ^= 0xFF    # checkpoint_seq, inside the sealed body
        assert wal.unpack_header(bytes(raw)) is None

    def test_header_wrong_magic(self):
        assert wal.unpack_header(bytes(BLOCK_SIZE)) is None

    def test_descriptor_roundtrip(self):
        raw = wal.pack_descriptor(7, [3, 99, 1000])
        assert wal.parse_descriptor(raw) == (7, [3, 99, 1000])

    def test_descriptor_crc_rejected(self):
        raw = bytearray(wal.pack_descriptor(7, [3, 99]))
        raw[6] ^= 1
        assert wal.parse_descriptor(bytes(raw)) is None

    def test_commit_roundtrip(self):
        crc = wal.extent_crc([block(1), block(2)])
        raw = wal.pack_commit(9, 2, crc)
        assert wal.parse_commit(raw) == (9, 2, crc)

    def test_zeroed_block_is_neither(self):
        zero = bytes(BLOCK_SIZE)
        assert wal.parse_descriptor(zero) is None
        assert wal.parse_commit(zero) is None

    def test_default_region_clamps(self):
        assert default_journal_blocks(100) == 32          # floor
        assert default_journal_blocks(64 * 500) == 500    # ~1.5%
        assert default_journal_blocks(10 ** 7) == 1024    # ceiling

    def test_format_too_small_rejected(self):
        device = BlockDevice(FAULTSIM_PROFILE)
        with pytest.raises(JournalCorrupt):
            wal.Journal.format(device, 100, wal.MIN_JOURNAL_BLOCKS - 1)


def write_txn(device, pos: int, seq: int, bnos, images, good_commit=True):
    """Hand-write one transaction record at log position ``pos``."""
    device.poke_block(pos, wal.pack_descriptor(seq, bnos))
    for i, image in enumerate(images):
        device.poke_block(pos + 1 + i, image)
    crc = wal.extent_crc(images) if good_commit else 0xDEADBEEF
    device.poke_block(pos + 1 + len(images), wal.pack_commit(seq, len(images), crc))
    return pos + len(images) + 2


class TestReplay:
    START, NBLOCKS = 200, 64

    def fresh_log(self):
        device = BlockDevice(FAULTSIM_PROFILE)
        device.poke_block(self.START, wal.pack_header(self.NBLOCKS, 0))
        return device

    def test_committed_tail_applied(self):
        device = self.fresh_log()
        pos = write_txn(device, self.START + 1, 1, [5, 6], [block(5), block(6)])
        write_txn(device, pos, 2, [7], [block(7)])
        stats = replay_journal(device, self.START, self.NBLOCKS)
        assert (stats.txns, stats.blocks, stats.discarded) == (2, 3, 0)
        assert device.peek_block(5) == block(5)
        assert device.peek_block(7) == block(7)
        header = wal.unpack_header(device.peek_block(self.START))
        assert header["checkpoint_seq"] == 2

    def test_replay_idempotent(self):
        """Replaying twice leaves a byte-identical image: the first
        replay advances the checkpoint, the second applies nothing."""
        device = self.fresh_log()
        write_txn(device, self.START + 1, 1, [5, 6], [block(5), block(6)])
        replay_journal(device, self.START, self.NBLOCKS)
        before = dict(device._blocks)
        again = replay_journal(device, self.START, self.NBLOCKS)
        assert again.txns == 0 and again.blocks == 0
        assert dict(device._blocks) == before

    def test_torn_commit_discarded(self):
        """A transaction whose commit record fails its CRC never
        reaches the home locations."""
        device = self.fresh_log()
        pos = write_txn(device, self.START + 1, 1, [5], [block(5)])
        write_txn(device, pos, 2, [6], [block(6)], good_commit=False)
        stats = replay_journal(device, self.START, self.NBLOCKS)
        assert (stats.txns, stats.discarded) == (1, 1)
        assert device.peek_block(5) == block(5)
        assert device.peek_block(6) != block(6)

    def test_missing_commit_discarded(self):
        device = self.fresh_log()
        device.poke_block(self.START + 1, wal.pack_descriptor(1, [5]))
        device.poke_block(self.START + 2, block(5))
        stats = replay_journal(device, self.START, self.NBLOCKS)
        assert stats.txns == 0 and stats.discarded == 1
        assert device.peek_block(5) != block(5)

    def test_stale_seq_stops_scan(self):
        """Records at or before the checkpoint are leftovers from
        before the head reset, never replayed."""
        device = BlockDevice(FAULTSIM_PROFILE)
        device.poke_block(self.START, wal.pack_header(self.NBLOCKS, 7))
        write_txn(device, self.START + 1, 7, [5], [block(5)])
        scan = scan_journal(device, self.START, self.NBLOCKS)
        assert scan.replayable == []

    def test_target_outside_volume_rejected(self):
        device = self.fresh_log()
        write_txn(device, self.START + 1, 1, [device.total_blocks + 5],
                  [block(1)])
        with pytest.raises(ReplayError):
            replay_journal(device, self.START, self.NBLOCKS)

    def test_target_inside_log_rejected(self):
        device = self.fresh_log()
        write_txn(device, self.START + 1, 1, [self.START + 3], [block(1)])
        with pytest.raises(ReplayError):
            replay_journal(device, self.START, self.NBLOCKS)

    def test_bad_header_raises(self):
        device = BlockDevice(FAULTSIM_PROFILE)
        with pytest.raises(JournalCorrupt):
            scan_journal(device, self.START, self.NBLOCKS)

    def test_no_region_is_noop(self):
        device = BlockDevice(FAULTSIM_PROFILE)
        assert replay_journal(device, 0, 0).txns == 0
        assert timed_replay(device, 0, 0).txns == 0
        assert "no journal region" in describe_journal(device, 0, 0)

    def test_describe_lists_txns(self):
        device = self.fresh_log()
        pos = write_txn(device, self.START + 1, 1, [5, 6], [block(5), block(6)])
        write_txn(device, pos, 2, [7], [block(7)], good_commit=False)
        text = describe_journal(device, self.START, self.NBLOCKS)
        assert "committed" in text and "TORN" in text


class TestSoftDepTracker:
    def test_untracked_block_writes_through(self):
        tracker = SoftDepTracker()
        assert tracker.prepare(10, block(1)) == (block(1), True)

    def test_dependent_write_deferred(self):
        """A directory entry (block 20) requiring an inode write
        (block 10) is deferred until the inode is durable."""
        tracker = SoftDepTracker()
        ino = tracker.record(10, block(1))
        tracker.record(20, block(2), requires=(ino,))
        assert tracker.prepare(20, block(2)) is None      # inode not home
        assert not tracker.ready(20)
        image, clean = tracker.prepare(10, block(1))
        assert clean
        tracker.committed([10])
        assert tracker.is_durable(ino)
        assert tracker.prepare(20, block(2)) == (block(2), True)

    def test_rollback_to_safe_prefix(self):
        """Version 0 has no requirements, version 1 does: the flush
        writes the version-0 image (rolled back) and keeps the block
        dirty for roll-forward."""
        tracker = SoftDepTracker()
        other = tracker.record(10, block(1))
        tracker.record(20, block(2))                      # v0, safe
        tracker.record(20, block(3), requires=(other,))   # v1, blocked
        image, clean = tracker.prepare(20, b"cache-content")
        assert image == block(2) and not clean
        tracker.committed([20])
        # After the prerequisite lands, the current content is safe.
        tracker.prepare(10, block(1))
        tracker.committed([10])
        assert tracker.prepare(20, b"cache-content") == (b"cache-content", True)

    def test_gate_blocks_freed_block_reuse(self):
        tracker = SoftDepTracker()
        clear = tracker.record(10, block(1))
        tracker.gate(55, (clear,))
        assert tracker.prepare(55, block(9)) is None      # pointer not cleared
        tracker.prepare(10, block(1))
        tracker.committed([10])
        assert tracker.prepare(55, block(9)) == (block(9), True)

    def test_forgotten_is_vacuous_durability(self):
        tracker = SoftDepTracker()
        token = tracker.record(10, block(1))
        tracker.record(20, block(2), requires=(token,))
        tracker.forgotten(10)
        assert tracker.is_durable(token)
        assert tracker.prepare(20, block(2)) == (block(2), True)

    def test_transitive_chain_converges(self):
        """a <- b <- c drains in recording order over repeated passes —
        the topological-progress argument."""
        tracker = SoftDepTracker()
        a = tracker.record(1, block(1))
        b = tracker.record(2, block(2), requires=(a,))
        tracker.record(3, block(3), requires=(b,))
        order = []
        for _ in range(5):
            for bno in (3, 2, 1):  # worst-case pass order
                if bno in order:
                    continue  # already drained; tracking ended
                res = tracker.prepare(bno, block(bno))
                if res is not None:
                    tracker.committed([bno])
                    order.append(bno)
            if len(order) == 3:
                break
        assert order == [1, 2, 3]


class TestAttachPipeline:
    def test_journal_without_region_rejected(self):
        fs = CFFS.mkfs(BlockDevice(FAULTSIM_PROFILE),
                       CFFSConfig(blocks_per_cg=512, cache_blocks=256))
        with pytest.raises(JournalCorrupt):
            attach_pipeline(fs.cache, MetadataPolicy.JOURNAL_METADATA)

    def test_sync_gets_no_pipeline(self):
        fs = CFFS.mkfs(BlockDevice(FAULTSIM_PROFILE),
                       CFFSConfig(blocks_per_cg=512, cache_blocks=256))
        assert fs.cache.write_pipeline is None

    def test_softdep_gets_tracker(self):
        fs = CFFS.mkfs(BlockDevice(FAULTSIM_PROFILE), CFFSConfig(
            blocks_per_cg=512, cache_blocks=256,
            policy=MetadataPolicy.DELAYED_METADATA))
        assert isinstance(fs.cache.write_pipeline, SoftDepTracker)

    def test_journal_gets_journal(self):
        fs = CFFS.mkfs(BlockDevice(FAULTSIM_PROFILE), CFFSConfig(
            blocks_per_cg=512, cache_blocks=256,
            policy=MetadataPolicy.JOURNAL_METADATA))
        assert isinstance(fs.cache.write_pipeline, wal.Journal)


def journal_fs(cls, config_cls, n_files=30, profile=FAULTSIM_PROFILE):
    """A synced journal-policy file system with a populated tree."""
    fs = cls.mkfs(BlockDevice(profile), config_cls(
        blocks_per_cg=512, cache_blocks=512,
        policy=MetadataPolicy.JOURNAL_METADATA))
    fs.mkdir("/d")
    for i in range(n_files):
        fs.write_file("/d/f%03d" % i, b"x%04d" % i * 100)
    fs.sync()
    return fs


class TestJournaledFileSystems:
    @pytest.mark.parametrize("cls,config_cls", [(CFFS, CFFSConfig),
                                                (FFS, FFSConfig)])
    def test_remount_after_clean_sync(self, cls, config_cls):
        fs = journal_fs(cls, config_cls, n_files=10)
        back = cls.mount(fs.device)
        assert back.read_file("/d/f003") == b"x0003" * 100

    def test_mkfs_reserves_region_only_for_journal(self):
        sync_fs = CFFS.mkfs(BlockDevice(FAULTSIM_PROFILE),
                            CFFSConfig(blocks_per_cg=512, cache_blocks=256))
        jrnl_fs = journal_fs(CFFS, CFFSConfig, n_files=1)
        sb_sync = clayout.unpack_superblock(sync_fs.device.peek_block(0))
        sb_jrnl = clayout.unpack_superblock(jrnl_fs.device.peek_block(0))
        assert sb_sync["journal_start"] == 0
        assert sb_jrnl["journal_start"] > 0
        assert sb_jrnl["journal_blocks"] >= wal.MIN_JOURNAL_BLOCKS
        # The region costs cylinder groups, never the replica slot.
        assert sb_jrnl["n_cgs"] <= sb_sync["n_cgs"]

    def test_synced_log_is_checkpointed(self):
        fs = journal_fs(CFFS, CFFSConfig, n_files=5)
        sb = clayout.unpack_superblock(fs.device.peek_block(0))
        scan = scan_journal(fs.device, sb["journal_start"],
                            sb["journal_blocks"])
        assert scan.replayable == []
        assert scan.checkpoint_seq > 0  # commits happened, then homed


def crash_after_last_log_write(n_files=40):
    """A power-cut image cut immediately after the last write into the
    log region — committed transactions present, home writes not."""
    from repro.faults.harness import run_journaled_workload

    device, checkpoints = run_journaled_workload(
        "cffs", MetadataPolicy.JOURNAL_METADATA, n_files=n_files)
    sb = clayout.unpack_superblock(device.peek_block(0))
    start, nblocks = sb["journal_start"], sb["journal_blocks"]
    log_writes = [i for i, (bno, _) in enumerate(device.journal)
                  if start < bno < start + nblocks]
    assert log_writes, "workload never wrote the log"
    k = log_writes[-1] + 1
    return device.image_at(k), start, nblocks, checkpoints, k


class TestCrashImageReplay:
    def test_crash_image_has_pending_txns(self):
        image, start, nblocks, _, _ = crash_after_last_log_write()
        scan = scan_journal(image, start, nblocks)
        assert scan.replayable

    def test_replay_idempotent_on_real_log(self):
        image, start, nblocks, _, _ = crash_after_last_log_write()
        replay_journal(image, start, nblocks)
        before = dict(image._blocks)
        replay_journal(image, start, nblocks)
        assert dict(image._blocks) == before

    def test_replayed_image_checks_clean_and_remounts(self):
        image, start, nblocks, checkpoints, k = crash_after_last_log_write()
        report = check_image(image, repair=True)
        assert check_image(image).pristine, report.render()
        fs = mount_image(image)
        durable = [c for c in checkpoints if c.journal_len <= k][-1]
        final = checkpoints[-1].files
        for path, body in durable.files.items():
            if final.get(path) == body:
                assert fs.read_file(path) == body

    def test_journal_command_shows_the_pending_log_of_a_resilient_crash_image(
            self, tmp_path, capsys):
        """``repro journal`` reads the log as the crash left it: a mount
        would replay it first, and on a resilient image would refuse the
        blocks whose sidecar the crash left stale."""
        from repro.cli import main
        from repro.faults.proxy import FaultyBlockDevice
        from repro.resilience import ResilientBlockDevice

        device = FaultyBlockDevice(BlockDevice(SEAGATE_ST31200),
                                   record_journal=True)
        fs = CFFS.mkfs(ResilientBlockDevice.format(device), CFFSConfig(
            policy=MetadataPolicy.JOURNAL_METADATA))
        fs.write_file("/f", b"x" * 3000)
        fs.sync()
        sb = clayout.unpack_superblock(device.peek_block(0))
        start, nblocks = sb["journal_start"], sb["journal_blocks"]
        k = 1 + max(i for i, (bno, _) in enumerate(device.journal)
                    if start < bno < start + nblocks)
        path = str(tmp_path / "crash.img")
        device.image_at(k).save_image(path)
        capsys.readouterr()
        assert main(["journal", path]) == 0
        out = capsys.readouterr().out
        assert "log: 1 transaction(s)" in out and "committed" in out, out


class TestFastRemount:
    def test_replay_beats_fsck_10x(self, tmp_path):
        """The tentpole speed claim: journal replay on an aged image is
        at least 10x faster (simulated time) than the full fsck walk."""
        fs = journal_fs(CFFS, CFFSConfig, n_files=120,
                        profile=SEAGATE_ST31200)
        for i in range(0, 120, 3):
            fs.unlink("/d/f%03d" % i)           # age: holes in groups
        for i in range(120, 200):
            fs.write_file("/d/g%03d" % i, b"y" * 2048)
        fs.sync()
        image = str(tmp_path / "journal_aged.img")
        fs.device.save_image(image)
        sb = clayout.unpack_superblock(fs.device.peek_block(0))

        replay_dev = BlockDevice.load_image(image)
        stats = timed_replay(replay_dev, sb["journal_start"],
                             sb["journal_blocks"])

        fsck_dev = BlockDevice.load_image(image)
        _report, walk_seconds = timed_fsck(fsck_dev, fsck_cffs)

        assert stats.elapsed > 0.0
        assert walk_seconds >= 10.0 * stats.elapsed, (
            "replay %.6fs vs fsck walk %.6fs" % (stats.elapsed, walk_seconds))

    def test_mount_charges_replay_to_clock(self):
        """Mounting a crash image replays on the timed path."""
        image, _start, _nblocks, _, _ = crash_after_last_log_write(n_files=20)
        before = image.clock.now
        CFFS.mount(image)
        assert image.clock.now > before
