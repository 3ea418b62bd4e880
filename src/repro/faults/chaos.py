"""The chaos soak: a small-file workload over decaying media.

This is the integration proof for the self-healing device layer.  A
seeded soak formats a resilient device over a fault-injecting proxy,
mounts a real file system on it, then runs a smallfile-style workload
while the media decays underneath: weak locations cost in-drive
retries, bad locations fail every request, scheduled blocks silently
rot, and every request risks transient and torn faults.  A scrubber
sweeps the device between operations.

The soak asserts the layer's contract, not the absence of faults:

- **zero undetected corruption** — every read either returns
  verified-correct bytes or surfaces
  :class:`~repro.errors.ChecksumError`; wrong bytes without an
  exception is the one unforgivable outcome;
- **graceful degradation** — the device heals what it can (remaps,
  rewrites, scrub rescues) and *demotes* to READ_ONLY when the spare
  pool runs out, instead of crashing;
- **repairability** — after the soak, the offline check
  (:func:`~repro.fsck.check_image`) repairs the resilience region and
  then the file system to pristine;
- **determinism** — the same config renders a byte-identical report.

Runs via ``repro chaos`` (see :mod:`repro.cli`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.blockdev.device import BlockDevice
from repro.cache.policy import MetadataPolicy
from repro.errors import (
    ChecksumError,
    DeviceDegraded,
    ReadOnlyFileSystem,
    ReproError,
)
from repro.faults.harness import FAULTSIM_PROFILE, _mkfs, workload_script
from repro.faults.proxy import FaultyBlockDevice
from repro.faults.schedule import FaultSchedule
from repro.fsck import check_image, format_for
from repro.resilience import HealthState, ResilientBlockDevice, Scrubber
from repro.resilience.device import DEFAULT_SPARES

_FAILED = object()   # sentinel: the operation raised (and was recorded)

#: Operations between scrubber steps.
SCRUB_EVERY = 6
#: Files written between syncs of the soak's workload.
SYNC_EVERY = 8
#: Per-request probabilities of a transient and of a torn fault.
TRANSIENT_RATE = 0.02
TORN_RATE = 0.005


@dataclass(frozen=True)
class ChaosConfig:
    """One deterministic soak.  Every field feeds the report header."""

    label: str = "cffs"
    seed: int = 2026
    n_files: int = 150
    n_spares: int = DEFAULT_SPARES
    #: Locations that cost in-drive retries on every read.
    weak_count: int = 32
    #: Locations where every write fails (remap fodder).
    bad_write_count: int = 32
    #: Locations where every read fails.
    bad_read_count: int = 6
    #: Blocks that silently corrupt on their next read.
    rot_count: int = 6
    #: Whether the scenario is built to exhaust the spare pool (the
    #: soak then asserts the READ_ONLY demotion *happened*).
    expect_readonly: bool = False


#: Named scenarios ``repro chaos`` exposes.
CHAOS_SCENARIOS: Dict[str, ChaosConfig] = {
    "sustained": ChaosConfig(),
    "exhaust": ChaosConfig(n_spares=6, bad_write_count=90,
                           expect_readonly=True),
}


@dataclass
class OpStats:
    """Per-operation accounting over the whole soak."""

    total: int = 0
    ok: int = 0
    failed: int = 0
    detected_checksum: int = 0   # ChecksumError surfaced to the caller
    detected_io: int = 0         # other detected failures (media, fs)
    readonly_refused: int = 0    # mutations refused after demotion
    skipped_mutations: int = 0   # not attempted once read-only
    in_service_total: int = 0    # ops issued while HEALTHY/DEGRADED
    in_service_ok: int = 0
    undetected_corruption: int = 0   # wrong bytes with no exception

    @property
    def in_service_rate(self) -> float:
        if not self.in_service_total:
            return 1.0
        return self.in_service_ok / self.in_service_total


@dataclass
class ChaosReport:
    """Everything the soak measured, renderable deterministically."""

    config: ChaosConfig
    ops: OpStats = field(default_factory=OpStats)
    health_log: List[Tuple[float, str, str, str]] = field(default_factory=list)
    final_state: str = "HEALTHY"
    resilience: Dict[str, int] = field(default_factory=dict)
    faults: Dict[str, int] = field(default_factory=dict)
    scrub: Dict[str, int] = field(default_factory=dict)
    scrub_passes: int = 0
    files_verified: int = 0
    files_unverifiable: int = 0   # tainted by a failed mutation
    fsck_res_repairs: int = 0
    fsck_res_errors: int = 0
    fsck_res_clean: bool = False
    fsck_fs_errors: int = 0
    fsck_fs_repairs: int = 0
    fsck_fs_fixes: int = 0
    fsck_fs_clean: bool = False
    completed: bool = False

    def verdict(self) -> Tuple[bool, List[str]]:
        """(passed, reasons-it-did-not) for this scenario's contract."""
        reasons: List[str] = []
        if not self.completed:
            reasons.append("soak did not run to completion")
        if self.ops.undetected_corruption:
            reasons.append("%d reads returned wrong bytes undetected"
                           % self.ops.undetected_corruption)
        if self.config.expect_readonly:
            if self.final_state not in ("READ_ONLY", "DEGRADED"):
                reasons.append("expected demotion, device ended %s"
                               % self.final_state)
            if not any(t[2] == "READ_ONLY" for t in self.health_log):
                reasons.append("spare exhaustion never demoted to READ_ONLY")
        else:
            if self.ops.in_service_rate < 0.99:
                reasons.append(
                    "only %.2f%% of in-service ops succeeded (need 99%%)"
                    % (100.0 * self.ops.in_service_rate))
        if self.fsck_res_errors or not self.fsck_res_clean:
            reasons.append("resilience metadata not clean after repair")
        if not self.fsck_fs_clean:
            reasons.append("file system not pristine after repair")
        return (not reasons, reasons)


def run_chaos(config: Optional[ChaosConfig] = None) -> ChaosReport:
    """Run one seeded soak; everything about it is deterministic."""
    cfg = config if config is not None else ChaosConfig()
    report = ChaosReport(config=cfg)

    schedule = FaultSchedule(seed=cfg.seed, transient_rate=TRANSIENT_RATE,
                             torn_rate=TORN_RATE)
    faulty = FaultyBlockDevice(BlockDevice(FAULTSIM_PROFILE), schedule)
    resilient = ResilientBlockDevice.format(faulty, n_spares=cfg.n_spares)
    fs = _mkfs(cfg.label, MetadataPolicy.SYNC_METADATA, resilient)
    fs.mkdir("/data")
    fs.sync()

    # Decay starts after mkfs: locations are drawn over the usable
    # region (block 0 spared — losing the superblock is a different
    # experiment), disjoint per kind.
    rng = random.Random("chaos:%d" % cfg.seed)
    picks = rng.sample(range(1, resilient.total_blocks),
                       cfg.weak_count + cfg.bad_write_count
                       + cfg.bad_read_count + cfg.rot_count)
    cut1 = cfg.weak_count
    cut2 = cut1 + cfg.bad_write_count
    cut3 = cut2 + cfg.bad_read_count
    schedule.weaken_reads(picks[:cut1])
    schedule.break_writes(picks[cut1:cut2])
    schedule.break_reads(picks[cut2:cut3])
    schedule.rot(picks[cut3:])

    scrubber = Scrubber(resilient)
    soak = _Soak(cfg, fs, resilient, scrubber, report.ops)
    soak.run()

    report.completed = True
    report.health_log = resilient.health.summary()
    report.final_state = resilient.health.state.name
    report.resilience = _public_counters(resilient.stats)
    report.faults = _public_counters(faulty.stats)
    report.scrub = dict(sorted(scrubber.stats.verdicts.items()))
    report.scrub_passes = scrubber.stats.scrub_passes
    report.files_verified = soak.files_verified
    report.files_unverifiable = len(soak.tainted)

    _offline_repair(report, faulty)
    return report


class _Soak:
    """The operation loop: create/overwrite/delete/sync/read + scrub."""

    def __init__(self, cfg: ChaosConfig, fs, resilient: ResilientBlockDevice,
                 scrubber: Scrubber, ops: OpStats) -> None:
        self.cfg = cfg
        self.fs = fs
        self.resilient = resilient
        self.scrubber = scrubber
        self.ops = ops
        self.live: Dict[str, bytes] = {}
        self.tainted: set = set()      # paths a failed mutation touched
        self.checkpoint: Dict[str, bytes] = {}   # live at last good sync
        self.read_only = False
        self.files_verified = 0
        self._since_scrub = 0

    # -- op plumbing -----------------------------------------------------------

    def _attempt(self, fn: Callable[[], object], mutating: bool) -> object:
        if mutating and self.read_only:
            self.ops.skipped_mutations += 1
            return _FAILED
        in_service = (self.resilient.health.state.value
                      <= HealthState.DEGRADED.value)
        self.ops.total += 1
        if in_service:
            self.ops.in_service_total += 1
        try:
            result = fn()
        except ChecksumError:
            self.ops.detected_checksum += 1
        except ReadOnlyFileSystem:
            self.ops.readonly_refused += 1
            self.read_only = True
        except DeviceDegraded:
            self.ops.detected_io += 1
        except ReproError:
            self.ops.detected_io += 1
        else:
            self.ops.ok += 1
            if in_service:
                self.ops.in_service_ok += 1
            return result
        self.ops.failed += 1
        return _FAILED

    def _maybe_scrub(self) -> None:
        self._since_scrub += 1
        if self._since_scrub >= SCRUB_EVERY:
            self._since_scrub = 0
            if self.resilient.health.state is not HealthState.FAILED:
                self.scrubber.step()

    # -- mutations (content bookkeeping keeps verification sound) --------------

    def _write(self, path: str, body: bytes) -> None:
        if self._attempt(lambda: self.fs.write_file(path, body),
                         mutating=True) is _FAILED:
            # Outcome unknown: old, new or mixed content may survive.
            self.live.pop(path, None)
            self.tainted.add(path)
        else:
            self.live[path] = body
            self.tainted.discard(path)
        self._maybe_scrub()

    def _unlink(self, path: str) -> None:
        if self._attempt(lambda: self.fs.unlink(path),
                         mutating=True) is _FAILED:
            self.live.pop(path, None)
            self.tainted.add(path)
        else:
            self.live.pop(path, None)
            self.tainted.discard(path)
        self._maybe_scrub()

    def _sync(self) -> bool:
        ok = self._attempt(self.fs.sync, mutating=True) is not _FAILED
        if ok:
            self.checkpoint = dict(self.live)
        self._maybe_scrub()
        return ok

    def _read_verify(self, path: str, expect: bytes) -> None:
        got = self._attempt(lambda: self.fs.read_file(path), mutating=False)
        if got is not _FAILED and got != expect:
            self.ops.undetected_corruption += 1
        self._maybe_scrub()

    # -- the workload ----------------------------------------------------------

    def run(self) -> None:
        cfg = self.cfg
        for op, path, body in workload_script(
                cfg.seed, cfg.n_files, SYNC_EVERY, self.live):
            if op == "write":
                self._write(path, body)
            elif op == "unlink":
                self._unlink(path)
            elif self._sync():
                # Spot-read a couple of just-synced files: after a good
                # sync the device must hold exactly this content.
                stable = [p for p in sorted(self.checkpoint)
                          if p not in self.tainted]
                for p in stable[-2:]:
                    self._read_verify(p, self.checkpoint[p])
        self._sync()

        # Remount before verifying: a fresh buffer cache means every
        # read-back below actually goes to the media through the
        # checksum-verified path, instead of being a warm cache hit.
        mounted = self._attempt(self._remount, mutating=False)
        if mounted is not _FAILED:
            self.fs = mounted

        # Verification phase: every file of the last good checkpoint
        # that no later (or failed) mutation touched must read back
        # byte-exact — or fail *detected*.
        for path in sorted(self.checkpoint):
            if path in self.tainted:
                continue
            if self.live.get(path) != self.checkpoint[path]:
                continue   # modified/deleted after the checkpoint
            self.files_verified += 1
            self._read_verify(path, self.checkpoint[path])

        try:
            self.resilient.flush()
        except ReproError:
            pass   # a device too sick to flush is judged by fsck next

    def _remount(self):
        return format_for(self.cfg.label).mount(self.resilient)


def _offline_repair(report: ChaosReport, faulty: FaultyBlockDevice) -> None:
    """Post-soak: repair the image offline, then check it again."""
    first = check_image(faulty, repair=True)
    second = check_image(faulty)
    report.fsck_res_errors = len(first.resilience.errors)
    report.fsck_res_repairs = len(first.resilience.repairs)
    report.fsck_res_clean = second.resilience.pristine
    if first.filesystem is None or second.filesystem is None:
        report.fsck_fs_clean = False
        return
    report.fsck_fs_errors = len(first.filesystem.errors)
    report.fsck_fs_repairs = len(first.filesystem.repairs)
    report.fsck_fs_fixes = len(first.filesystem.fixed)
    report.fsck_fs_clean = second.filesystem.pristine


def _public_counters(stats: object) -> Dict[str, int]:
    """Dataclass counters as a sorted name->value dict (render order)."""
    out = {}
    for name in sorted(vars(stats)):
        value = getattr(stats, name)
        if isinstance(value, int):
            out[name] = value
    return out


def _render_counters(counters: Dict[str, int]) -> str:
    return " ".join("%s=%d" % (k, v) for k, v in counters.items() if v)


def render_chaos(report: ChaosReport) -> str:
    """The deterministic soak report (the CI smoke diffs two of these)."""
    cfg = report.config
    ops = report.ops
    passed, reasons = report.verdict()
    lines = [
        "chaos soak: %s seed=%d files=%d spares=%d%s"
        % (cfg.label, cfg.seed, cfg.n_files, cfg.n_spares,
           " (expect read-only)" if cfg.expect_readonly else ""),
        "  faults: weak=%d bad-write=%d bad-read=%d rot=%d "
        "transient=%.3f torn=%.3f"
        % (cfg.weak_count, cfg.bad_write_count, cfg.bad_read_count,
           cfg.rot_count, TRANSIENT_RATE, TORN_RATE),
        "  ops: %d total, %d ok, %d failed (checksum=%d io=%d "
        "readonly=%d), %d mutations skipped"
        % (ops.total, ops.ok, ops.failed, ops.detected_checksum,
           ops.detected_io, ops.readonly_refused, ops.skipped_mutations),
        "  in-service success: %d/%d (%.2f%%)   undetected corruption: %d"
        % (ops.in_service_ok, ops.in_service_total,
           100.0 * ops.in_service_rate, ops.undetected_corruption),
        "  verified %d checkpointed files (%d unverifiable after "
        "failed mutations)"
        % (report.files_verified, report.files_unverifiable),
    ]
    lines.append("  health: final=%s" % report.final_state)
    for when, prev, state, reason in report.health_log:
        lines.append("    %.6fs  %s -> %s: %s" % (when, prev, state, reason))
    lines.append("  resilience: " + _render_counters(report.resilience))
    lines.append("  device faults: " + _render_counters(report.faults))
    lines.append(
        "  scrub: %d passes, %s"
        % (report.scrub_passes, _render_counters(report.scrub) or "idle"))
    lines.append(
        "  fsck: resilience errors=%d repairs=%d clean-after=%s | "
        "%s errors=%d repairs=%d fixes=%d pristine-after=%s"
        % (report.fsck_res_errors, report.fsck_res_repairs,
           report.fsck_res_clean, cfg.label, report.fsck_fs_errors,
           report.fsck_fs_repairs, report.fsck_fs_fixes,
           report.fsck_fs_clean))
    lines.append("  verdict: %s" % ("PASS" if passed else "FAIL"))
    for reason in reasons:
        lines.append("    FAIL: %s" % reason)
    return "\n".join(lines)


def scenario(name: str) -> ChaosConfig:
    """A named scenario."""
    if name not in CHAOS_SCENARIOS:
        raise ReproError("unknown chaos scenario %r; known: %s"
                         % (name, ", ".join(sorted(CHAOS_SCENARIOS))))
    return CHAOS_SCENARIOS[name]


__all__ = [
    "CHAOS_SCENARIOS",
    "ChaosConfig",
    "ChaosReport",
    "OpStats",
    "render_chaos",
    "run_chaos",
    "scenario",
]
