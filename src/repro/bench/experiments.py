"""Drivers that regenerate every table and figure of the evaluation.

See DESIGN.md §4 for the experiment index.  Each driver is pure
simulation: results are deterministic for a given parameter set.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.analysis.metrics import percent_improvement
from repro.analysis.report import Table, bar_chart, format_series
from repro.cache.policy import MetadataPolicy
from repro.disk.drive import SimulatedDisk
from repro.disk.profiles import SEAGATE_ST31200, TABLE1_DRIVES
from repro.workloads.aging import age_filesystem, read_aged_files
from repro.workloads.appsuite import build_source_tree, run_app_suite
from repro.workloads.configs import CONFIG_GRID, build_filesystem
from repro.workloads.measure import run_script, window
from repro.workloads.sizes import run_size_sweep
from repro.workloads.smallfile import (
    PHASES,
    SmallFileResult,
    run_smallfile,
    smallfile_ops,
    smallfile_paths,
)

GRID = list(CONFIG_GRID.keys())
#: The two configurations every figure past Figure 6 compares.
PAIR = ("conventional", "cffs")
#: The paper's small file, bytes.
FILE_SIZE = 1024


@dataclass
class ExperimentOutput:
    """Structured results plus the rendered text artifact."""

    experiment: str
    text: str
    data: Dict[str, object] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.text


# ---------------------------------------------------------------------------
# Table 1 / Table 2 — drive characteristics.
# ---------------------------------------------------------------------------

def table1_drives() -> ExperimentOutput:
    """Table 1: characteristics of three 1996 drives."""
    table = Table(
        "Table 1: Characteristics of three modern disk drives",
        ["Characteristic"] + [p.name for p in TABLE1_DRIVES],
    )
    rows = [
        ("RPM", lambda p: "%d" % p.rpm),
        ("Capacity (GB)", lambda p: "%.2f" % (p.capacity_bytes / 1e9)),
        ("Single-cyl seek (ms)", lambda p: "%.1f" % p.single_cyl_seek_ms),
        ("Average seek (ms)", lambda p: "%.1f" % p.avg_seek_ms),
        ("Maximum seek (ms)", lambda p: "%.1f" % p.full_seek_ms),
        ("Rotation (ms)", lambda p: "%.2f" % p.rotation_ms),
        ("Max media rate (MB/s)", lambda p: "%.2f" % p.max_media_mb_per_s),
        ("Sectors/track (outer)", lambda p: "%d" % p.zone_table[0][1]),
    ]
    for label, fn in rows:
        table.add_row(label, *(fn(p) for p in TABLE1_DRIVES))
    table.caption = (
        "Seek figures quoted from the paper's Table 1; geometry "
        "reconstructed from vendor spec sheets."
    )
    return ExperimentOutput(
        "table1", table.render(),
        {p.name: p for p in TABLE1_DRIVES},
    )


def table2_platform() -> ExperimentOutput:
    """Table 2: the experimental platform's Seagate ST31200."""
    p = SEAGATE_ST31200
    table = Table("Table 2: Experimental platform disk (Seagate ST31200)", ["Parameter", "Value"])
    table.add_row("RPM", "%d" % p.rpm)
    table.add_row("Capacity (GB)", "%.2f" % (p.capacity_bytes / 1e9))
    table.add_row("Cylinders", p.cylinders)
    table.add_row("Heads", p.heads)
    table.add_row("Single-cyl seek (ms)", p.single_cyl_seek_ms)
    table.add_row("Average seek (ms)", p.avg_seek_ms)
    table.add_row("Maximum seek (ms)", p.full_seek_ms)
    table.add_row("Media rate, outer zone (MB/s)", "%.2f" % p.max_media_mb_per_s)
    table.add_row("Command overhead (ms)", p.command_overhead_ms)
    table.add_row("Bus rate (MB/s)", p.bus_mb_per_s)
    return ExperimentOutput("table2", table.render(), {"profile": p})


# ---------------------------------------------------------------------------
# Figure 2 — average access time vs request size.
# ---------------------------------------------------------------------------

def fig2_access_time(
    sizes_kb: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024),
    samples: int = 200,
) -> ExperimentOutput:
    """Average access time for random requests as a function of size.

    The paper's point: below ~100 KB the access time is flat (dominated
    by positioning), so moving 64 KB costs barely more than moving 4 KB.
    """
    max_sectors = max(sizes_kb) * 2
    series: List[Tuple[str, List[float]]] = []
    per_drive: Dict[str, List[float]] = {}
    for profile in TABLE1_DRIVES:
        disk = SimulatedDisk(profile)
        # Paired sampling: the same request positions for every size,
        # so the curves differ only in transfer length.
        rng = random.Random(11)
        positions = [
            rng.randrange(0, disk.total_sectors - max_sectors)
            for _ in range(samples)
        ]
        averages: List[float] = []
        for kb in sizes_kb:
            nsectors = kb * 2
            start_t = disk.clock.now
            for lba in positions:
                disk.read(lba, nsectors)
                disk.read_cache.invalidate_all()  # independent random accesses
            averages.append((disk.clock.now - start_t) / samples * 1000.0)
        series.append((profile.name, averages))
        per_drive[profile.name] = averages
    text = format_series(
        "Figure 2: average access time vs request size",
        "KB", list(sizes_kb), series, unit="ms",
    )
    return ExperimentOutput(
        "fig2", text, {"sizes_kb": list(sizes_kb), "averages_ms": per_drive},
    )


# ---------------------------------------------------------------------------
# Figures 5/6 — the small-file microbenchmark across the grid.
# ---------------------------------------------------------------------------

def _smallfile_grid(policy: MetadataPolicy,
                    n_files: int) -> Dict[str, SmallFileResult]:
    results: Dict[str, SmallFileResult] = {}
    for label in GRID:
        fs = build_filesystem(label, policy)
        results[label] = run_smallfile(
            fs, n_files=n_files, file_size=FILE_SIZE, label=label
        )
    return results


def _with_journal_series(results: Dict[str, SmallFileResult],
                         n_files: int) -> Dict[str, SmallFileResult]:
    """Append the write-ahead-journaling run of the full C-FFS
    configuration — the third integrity mode next to synchronous
    writes and soft updates."""
    fs = build_filesystem("cffs", MetadataPolicy.JOURNAL_METADATA)
    results["cffs-journal"] = run_smallfile(
        fs, n_files=n_files, file_size=FILE_SIZE, label="cffs-journal"
    )
    return results


def _render_smallfile(title: str, results: Dict[str, SmallFileResult]) -> str:
    table = Table(title, ["configuration"] + ["%s (files/s)" % p for p in PHASES])
    for label, res in results.items():
        table.add_row(label, *("%.0f" % res[p].files_per_second for p in PHASES))
    base = results.get("conventional")
    if base is not None:
        table.caption = "speedups vs conventional: " + "; ".join(
            "%s %s x%.1f" % (label, phase, res[phase].files_per_second
                             / base[phase].files_per_second)
            for label, res in results.items() if label != "conventional"
            for phase in PHASES
        )
    charts = "\n\n".join(
        bar_chart(
            "%s throughput (files/s)" % phase,
            [(label, res[phase].files_per_second) for label, res in results.items()],
        )
        for phase in ("create", "read")
    )
    return table.render() + "\n\n" + charts


def fig5_smallfile(n_files: int = 10000) -> ExperimentOutput:
    """Small-file benchmark, synchronous metadata (paper §4.2), plus
    the journaling C-FFS series for the integrity-mode comparison."""
    results = _smallfile_grid(MetadataPolicy.SYNC_METADATA, n_files)
    results = _with_journal_series(results, n_files)
    return ExperimentOutput(
        "fig5",
        _render_smallfile("Small-file benchmark, sync metadata", results),
        {"results": results},
    )


def fig6_smallfile_softdep(n_files: int = 10000) -> ExperimentOutput:
    """Figure 6: the same benchmark with dependency-tracked soft
    updates, plus the journaling C-FFS series."""
    results = _smallfile_grid(MetadataPolicy.DELAYED_METADATA, n_files)
    results = _with_journal_series(results, n_files)
    return ExperimentOutput(
        "fig6",
        _render_smallfile("Small-file benchmark, soft updates", results),
        {"results": results},
    )


def table3_requests(n_files: int = 10000) -> ExperimentOutput:
    """Disk requests per file per phase — the order-of-magnitude claim."""
    results = _smallfile_grid(MetadataPolicy.SYNC_METADATA, n_files)
    table = Table(
        "Table 3: disk requests per file (sync metadata)",
        ["configuration"] + ["%s" % p for p in PHASES] + ["read reduction"],
    )
    base_read = results["conventional"]["read"].requests_per_file
    for label, res in results.items():
        reduction = ""
        if label != "conventional":
            reduction = "x%.1f" % (base_read / res["read"].requests_per_file)
        table.add_row(
            label, *("%.2f" % res[p].requests_per_file for p in PHASES), reduction
        )
    return ExperimentOutput("table3", table.render(), {"results": results})


# ---------------------------------------------------------------------------
# Figure 7 — throughput vs file size.
# ---------------------------------------------------------------------------

def fig7_size_sweep(
    file_sizes: Sequence[int] = (1024, 2048, 4096, 8192, 16384, 32768, 65536),
    total_bytes: int = 4 << 20,
) -> ExperimentOutput:
    """Create and read throughput as file size grows."""
    sweeps = {}
    for label in PAIR:
        fs = build_filesystem(label, MetadataPolicy.SYNC_METADATA)
        sweeps[label] = run_size_sweep(fs, file_sizes, total_bytes=total_bytes)
    series_read = [
        (label, [pt.read_mb_per_s for pt in pts]) for label, pts in sweeps.items()
    ]
    series_create = [
        (label, [pt.create_mb_per_s for pt in pts]) for label, pts in sweeps.items()
    ]
    text = "\n\n".join([
        format_series(
            "Figure 7a: read throughput vs file size",
            "bytes", list(file_sizes), series_read, unit="MB/s",
        ),
        format_series(
            "Figure 7b: create throughput vs file size",
            "bytes", list(file_sizes), series_create, unit="MB/s",
        ),
    ])
    return ExperimentOutput("fig7", text, {"sweeps": sweeps})


# ---------------------------------------------------------------------------
# Figure 8 — aging.
# ---------------------------------------------------------------------------

def fig8_aging(
    utilizations: Sequence[float] = (0.1, 0.3, 0.5, 0.7),
    operations: int = 6000,
    n_files: int = 1500,
) -> ExperimentOutput:
    """Small-file performance on aged file systems (§4.3).

    Three measurements per point: fresh-file read and create throughput
    on the aged image (new allocations must cope with fragmented free
    space), and cold reads of the *surviving aged files* themselves
    (their groups carry real holes); 300 of them per point.
    """
    read_series: Dict[str, List[float]] = {label: [] for label in PAIR}
    create_series: Dict[str, List[float]] = {label: [] for label in PAIR}
    aged_read_series: Dict[str, List[float]] = {label: [] for label in PAIR}
    aging_info: Dict[str, List[object]] = {label: [] for label in PAIR}
    for label in PAIR:
        for util in utilizations:
            fs = build_filesystem(label, MetadataPolicy.SYNC_METADATA)
            info = age_filesystem(
                fs, target_utilization=util, operations=operations, seed=42
            )
            aging_info[label].append(info)
            aged_read_series[label].append(
                read_aged_files(fs, info, sample=300).files_per_second)
            res = run_smallfile(fs, n_files=n_files, file_size=FILE_SIZE,
                                label=label)
            read_series[label].append(res["read"].files_per_second)
            create_series[label].append(res["create"].files_per_second)
    xs = ["%.0f%%" % (u * 100) for u in utilizations]
    text = "\n\n".join([
        format_series(
            "Figure 8a: fresh-file read throughput on aged file systems",
            "utilization", xs,
            [(label, read_series[label]) for label in PAIR],
            unit="files/s",
        ),
        format_series(
            "Figure 8b: fresh-file create throughput on aged file systems",
            "utilization", xs,
            [(label, create_series[label]) for label in PAIR],
            unit="files/s",
        ),
        format_series(
            "Figure 8c: cold reads of surviving aged files",
            "utilization", xs,
            [(label, aged_read_series[label]) for label in PAIR],
            unit="files/s",
        ),
    ])
    return ExperimentOutput(
        "fig8", text,
        {"utilizations": list(utilizations), "read": read_series,
         "create": create_series, "aged_read": aged_read_series,
         "aging": aging_info},
    )


# ---------------------------------------------------------------------------
# Table 4 — software-development applications.
# ---------------------------------------------------------------------------

def table4_apps(
    n_dirs: int = 12,
    files_per_dir: int = 40,
) -> ExperimentOutput:
    """The software-development suite; paper reports 10-300% gains."""
    results = {}
    for label in PAIR:
        fs = build_filesystem(label, MetadataPolicy.SYNC_METADATA)
        tree = build_source_tree(fs, n_dirs=n_dirs, files_per_dir=files_per_dir)
        results[label] = run_app_suite(fs, tree, label=label)
    table = Table(
        "Table 4: software-development applications (seconds, simulated)",
        ["pass"] + list(PAIR) + ["improvement"],
    )
    improvements: Dict[str, float] = {}
    base, cffs = (results[label].seconds for label in PAIR)
    for pass_name in base:
        imp = percent_improvement(base[pass_name], cffs[pass_name])
        improvements[pass_name] = imp
        table.add_row(pass_name, "%.2f" % base[pass_name],
                      "%.2f" % cffs[pass_name], "%.0f%%" % imp)
    return ExperimentOutput(
        "table4", table.render(), {"results": results, "improvements": improvements},
    )


# ---------------------------------------------------------------------------
# Ablations.
# ---------------------------------------------------------------------------

def ablation_group_size(
    spans: Sequence[int] = (4, 8, 16),
    n_files: int = 2000,
) -> ExperimentOutput:
    """Read throughput and request counts as the group span varies.

    The span is a mkfs-time parameter (it fixes the extent geometry);
    each point builds a fresh file system.  Files are read back in
    *random* order: sequential access streams off the drive's own
    read-ahead regardless of span, so random co-access — the case group
    amortization exists for — is where the span shows.  The paper uses
    16 blocks (64 KB); smaller groups amortize fewer files per
    positioning operation.  The files are spread over eight directories.
    """
    reads: List[float] = []
    requests_per_file: List[float] = []
    creates: List[float] = []
    for span in spans:
        fs = build_filesystem("cffs", MetadataPolicy.SYNC_METADATA,
                              group_span=span)
        res = run_smallfile(fs, n_files=n_files, file_size=FILE_SIZE,
                            n_dirs=8, label="span%d" % span,
                            phases=("create",))
        creates.append(res["create"].files_per_second)
        paths = smallfile_paths("/bench", n_files, 8)
        random.Random(23).shuffle(paths)
        fs.drop_caches()
        read = run_script(fs, smallfile_ops(paths, FILE_SIZE, "read"))
        reads.append(n_files / read.seconds)
        requests_per_file.append(read.disk_requests / n_files)
    text = format_series(
        "Ablation: explicit group span (random-order reads)",
        "span (blocks)", list(spans),
        [("read files/s", reads),
         ("requests/file", requests_per_file),
         ("create files/s", creates)],
    )
    return ExperimentOutput(
        "ablation_group_size", text,
        {"spans": list(spans), "read": reads,
         "requests_per_file": requests_per_file, "create": creates},
    )


def ablation_embed_dirsize(
    entry_counts: Sequence[int] = (100, 400, 1600),
) -> ExperimentOutput:
    """The directory-size cost of embedding (paper §"Directory sizes").

    Embedded entries are ~5x larger than external ones, so full
    directory scans read more blocks.  This measures cold full-scan
    (readdir) time for both entry formats.
    """
    scan_times: Dict[str, List[float]] = {"embedded": [], "external": []}
    dir_blocks: Dict[str, List[int]] = {"embedded": [], "external": []}
    for label, key in (("embedded", "embedded"), ("conventional", "external")):
        for count in entry_counts:
            fs = build_filesystem(label, MetadataPolicy.DELAYED_METADATA)
            fs.mkdir("/d")
            for i in range(count):
                fs.create("/d/e%06d" % i)
            fs.sync()
            fs.drop_caches()
            with window(fs) as scan:
                names = fs.readdir("/d")
            if len(names) != count:
                raise AssertionError("directory scan lost entries")
            scan_times[key].append(scan.seconds)
            dir_blocks[key].append(fs.stat("/d").nblocks)
    text = format_series(
        "Ablation: directory scan cost, embedded vs external entries",
        "entries", list(entry_counts),
        [
            ("embedded scan (s)", scan_times["embedded"]),
            ("external scan (s)", scan_times["external"]),
            ("embedded blocks", [float(b) for b in dir_blocks["embedded"]]),
            ("external blocks", [float(b) for b in dir_blocks["external"]]),
        ],
    )
    return ExperimentOutput(
        "ablation_embed", text, {"scan_times": scan_times, "dir_blocks": dir_blocks},
    )


def breakdown_read_time(n_files: int = 4000) -> ExperimentOutput:
    """Supplementary: where the read phase's disk time goes.

    The paper's Section 2 argument in one table: the conventional
    system spends its time *positioning* (seek + rotation) while C-FFS
    spends its time *transferring* — the only cost that scales with
    useful data.
    """
    rows: Dict[str, Dict[str, float]] = {}
    for label in PAIR:
        fs = build_filesystem(label, MetadataPolicy.SYNC_METADATA)
        res = run_smallfile(
            fs, n_files=n_files, file_size=FILE_SIZE, label=label,
            phases=("create", "read"),
        )
        stats = res["read"].measured.disk
        rows[label] = {
            "seek": stats.seek_time,
            "rotation": stats.rotation_time,
            "transfer": stats.transfer_time,
            "overhead": stats.overhead_time + stats.bus_time,
            "read_files_per_s": res["read"].files_per_second,
        }
    table = Table(
        "Supplementary: disk time breakdown (read phase)",
        ["configuration", "seek s", "rotation s", "transfer s",
         "overhead s", "positioning share"],
    )
    for label, row in rows.items():
        positioning = row["seek"] + row["rotation"]
        total = positioning + row["transfer"] + row["overhead"]
        table.add_row(
            label, "%.2f" % row["seek"], "%.2f" % row["rotation"],
            "%.2f" % row["transfer"], "%.2f" % row["overhead"],
            "%.0f%%" % (100.0 * positioning / total if total else 0.0),
        )
    table.caption = (
        "conventional systems buy locality (short seeks) but still pay a "
        "rotation per object; grouping converts that budget into transfer"
    )
    return ExperimentOutput("breakdown", table.render(), {"rows": rows})


def ablation_cache_size(
    cache_blocks: Sequence[int] = (256, 1024, 4096),
    n_files: int = 2000,
) -> ExperimentOutput:
    """Sensitivity of the small-file benchmark to buffer cache size."""
    reads: Dict[str, List[float]] = {l: [] for l in PAIR}
    for label in PAIR:
        for blocks in cache_blocks:
            fs = build_filesystem(
                label, MetadataPolicy.SYNC_METADATA, cache_blocks=blocks
            )
            res = run_smallfile(fs, n_files=n_files, file_size=FILE_SIZE,
                                label=label)
            reads[label].append(res["read"].files_per_second)
    text = format_series(
        "Ablation: buffer cache size vs cold read throughput",
        "cache blocks", list(cache_blocks),
        [(l, reads[l]) for l in PAIR],
        unit="files/s",
    )
    return ExperimentOutput(
        "ablation_cache", text, {"cache_blocks": list(cache_blocks), "read": reads},
    )


def multiclient_scaling_experiment(
    client_counts: Sequence[int] = (1, 2, 4, 8, 16),
    files_per_client: int = 40,
) -> ExperimentOutput:
    """Latency under load: sweep client count over FFS vs. C-FFS.

    Runs the multi-client engine (queued disk scheduling, per-client
    contexts) and reports aggregate files/s, read p99, mean queue depth
    and fairness at every client count.
    """
    from repro.engine import multiclient_scaling, render_scaling

    points = multiclient_scaling(
        client_counts=client_counts, files_per_client=files_per_client)
    return ExperimentOutput(
        "multiclient_scaling", render_scaling(points), {"points": points},
    )


def faultsim_recovery(
    n_files: int = 50,
    stride: int = 1,
) -> ExperimentOutput:
    """Recovery experiment: exhaustive crash-point sweep, both formats.

    For every media block write the small-file workload issues, cut
    power right after it, run fsck in repair mode, remount, and verify
    every file the application had synced (and not since modified)
    survives byte-exact.  Reported per (format, metadata policy):
    crash points tested, recovery rate, and fsck fixes applied —
    the integrity side of the paper's sync-vs-soft-updates trade-off.
    """
    from repro.analysis.report import Table as _Table
    from repro.faults.harness import crash_point_sweep

    seed = 1997
    results = [
        crash_point_sweep(label, policy=policy, n_files=n_files,
                          seed=seed, stride=stride)
        for label in ("ffs", "cffs")
        for policy in (MetadataPolicy.SYNC_METADATA,
                       MetadataPolicy.DELAYED_METADATA,
                       MetadataPolicy.JOURNAL_METADATA)
    ]
    table = _Table(
        "Crash-point sweep: power-cut after every media write, "
        "repair, remount, verify",
        ["fs", "policy", "media writes", "crash points", "recovered",
         "fsck fixes", "verdict"],
    )
    for r in results:
        table.add_row(
            r.label, r.policy, r.total_writes - r.journal_base,
            r.n_points, "%d/%d" % (r.n_recovered, r.n_points),
            r.total_fixes, "OK" if r.all_recovered else "FAIL",
        )
    table.caption = (
        "%d-file workload, seed %d, stride %d; recovery = repaired image "
        "re-checks pristine, remounts, and no synced file lost a byte"
        % (n_files, seed, stride))
    return ExperimentOutput(
        "faultsim", table.render(), {"results": results},
    )
