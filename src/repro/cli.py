"""Command-line interface: work with simulated file system images.

::

    python -m repro mkfs site.img                    # fresh C-FFS image
    python -m repro mkfs site.img --fs ffs           # classic FFS instead
    python -m repro put site.img README.md /readme
    python -m repro ls site.img /
    python -m repro get site.img /readme
    python -m repro stat site.img /readme
    python -m repro rm site.img /readme
    python -m repro regroup site.img /dir            # re-co-locate small files
    python -m repro fsck site.img
    python -m repro fsck site.img --repair            # fix and write back
    python -m repro mkfs site.img --policy journal    # reserve a log region
    python -m repro journal site.img                  # inspect the log
    python -m repro faultsim --files 50               # crash-point sweep
    python -m repro mkfs site.img --resilient         # self-healing device
    python -m repro chaos --scenario sustained        # decaying-media soak
    python -m repro info site.img
    python -m repro bench --files 2000               # small-file benchmark
    python -m repro multiclient --clients 8 --fs cffs  # concurrency engine
    python -m repro cluster --shards 4 --clients 1000  # sharded replay
    python -m repro trace --workload smallfile --format chrome  # span export

Images are sparse compressed snapshots of the simulated disk; the drive
profile (and therefore the timing model) travels inside the image.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from repro.blockdev.device import BlockDevice
from repro.cache.policy import MetadataPolicy
from repro.core.filesystem import CFFS
from repro.disk.profiles import PROFILES, SEAGATE_ST31200
from repro.errors import ReproError, UnknownFormat
from repro.fsck import (FORMAT_LABELS, check_image, format_for,
                        mount_image, open_image)
from repro.resilience import ResilientBlockDevice
from repro.resilience.device import DEFAULT_SPARES


#: ``--fs`` of the commands that run the paper's configuration grid.
GRID_FS_HELP = ("conventional, embedded, grouping or cffs: the C-FFS code "
                "with the techniques toggled; ffs here means conventional, "
                "the paper's baseline (mkfs, faultsim and chaos build the "
                "classic FFS class instead)")

#: CLI spelling -> metadata policy; the single place the mapping lives.
POLICY_NAMES = {
    "sync": MetadataPolicy.SYNC_METADATA,
    "softdep": MetadataPolicy.DELAYED_METADATA,
    "journal": MetadataPolicy.JOURNAL_METADATA,
}


def add_policy_argument(parser) -> None:
    """The common ``--policy`` flag shared by every command that builds
    a file system."""
    parser.add_argument(
        "--policy", choices=tuple(POLICY_NAMES), default="sync",
        help="metadata policy: synchronous ordering writes, soft-update "
             "dependency tracking, or write-ahead journaling")


def policy_from_args(args) -> MetadataPolicy:
    """Resolve the shared policy flag to a :class:`MetadataPolicy`."""
    return POLICY_NAMES[args.policy]


def _mount(path: str):
    return mount_image(BlockDevice.load_image(path))


def _save(fs, path: str) -> None:
    fs.sync()
    fs.device.save_image(path)


def cmd_mkfs(args) -> int:
    profile = PROFILES.get(args.profile)
    if profile is None:
        print("unknown profile %r; known: %s" % (args.profile, ", ".join(PROFILES)),
              file=sys.stderr)
        return 2
    device = BlockDevice(profile)
    target = device
    if args.resilient:
        target = ResilientBlockDevice.format(device, n_spares=args.spares)
    fmt = format_for(args.fs)
    techniques = ({"embedded_inodes": not args.no_embed,
                   "explicit_grouping": not args.no_group}
                  if fmt is CFFS else {})
    fs = fmt.mkfs(target, fmt.Config(policy=policy_from_args(args),
                                     **techniques))
    _save(fs, args.image)
    print("created %s: %s on %s (%.2f GB)%s" % (
        args.image, fs.name, profile.name, profile.capacity_bytes / 1e9,
        " with resilience region (%d spares)" % args.spares
        if args.resilient else "",
    ))
    return 0


def cmd_info(args) -> int:
    fs = _mount(args.image)
    profile = fs.device.disk.profile
    print("file system : %s" % fs.name)
    if isinstance(fs.device, ResilientBlockDevice):
        header = fs.device.header
        print("resilience  : %s, %d/%d spares used, %d remaps, %d lost" % (
            fs.device.health.state.name, header.spares_used,
            header.geometry.n_spares, len(header.remap), len(header.lost),
        ))
    print("drive       : %s (%.2f GB, %.0f RPM)" % (
        profile.name, profile.capacity_bytes / 1e9, profile.rpm,
    ))
    print("free blocks : %d / %d" % (fs.free_blocks(), fs.total_data_blocks()))
    if isinstance(fs, CFFS):
        print("group span  : %d blocks (%d KB)" % (
            fs.config.group_span, fs.config.group_span * 4,
        ))
        print("techniques  : embedded=%s grouping=%s" % (
            fs.config.embedded_inodes, fs.config.explicit_grouping,
        ))
    return 0


def cmd_ls(args) -> int:
    fs = _mount(args.image)
    for name in sorted(fs.readdir(args.path)):
        child = args.path.rstrip("/") + "/" + name
        st = fs.stat(child)
        kind = "d" if st.is_dir else "-"
        print("%s %8d  %s" % (kind, st.size, name))
    return 0


def cmd_put(args) -> int:
    fs = _mount(args.image)
    with open(args.hostfile, "rb") as handle:
        data = handle.read()
    fs.write_file(args.fspath, data)
    _save(fs, args.image)
    print("wrote %d bytes to %s" % (len(data), args.fspath))
    return 0


def cmd_get(args) -> int:
    fs = _mount(args.image)
    data = fs.read_file(args.fspath)
    if args.hostfile:
        with open(args.hostfile, "wb") as handle:
            handle.write(data)
        print("read %d bytes into %s" % (len(data), args.hostfile))
    else:
        sys.stdout.buffer.write(data)
    return 0


def cmd_rm(args) -> int:
    fs = _mount(args.image)
    fs.unlink(args.fspath)
    _save(fs, args.image)
    return 0


def cmd_mkdir(args) -> int:
    fs = _mount(args.image)
    fs.mkdir(args.fspath)
    _save(fs, args.image)
    return 0


def cmd_stat(args) -> int:
    fs = _mount(args.image)
    st = fs.stat(args.fspath)
    print("path     : %s" % args.fspath)
    print("kind     : %s" % st.kind.value)
    print("size     : %d" % st.size)
    print("nlink    : %d" % st.nlink)
    print("blocks   : %d" % st.nblocks)
    print("file id  : %d" % st.file_id)
    print("embedded : %s" % st.embedded)
    print("grouped  : %s" % st.grouped)
    return 0


def cmd_regroup(args) -> int:
    fs = _mount(args.image)
    if not isinstance(fs, CFFS):
        print("regroup requires a C-FFS image", file=sys.stderr)
        return 2
    moved = fs.regroup_directory(args.fspath)
    _save(fs, args.image)
    print("moved %d blocks into fresh groups" % moved)
    return 0


def cmd_fsck(args) -> int:
    device = BlockDevice.load_image(args.image)
    result = check_image(device, repair=args.repair)
    if result.filesystem is not None and result.fixed:
        device.save_image(args.image)
    text = result.render()
    if text:
        print(text)
    if result.unknown_magic is not None:
        print("unrecognizable file system (magic 0x%x)%s" % (
            result.unknown_magic,
            ", no usable superblock replica" if args.repair else ""),
            file=sys.stderr)
        return 2
    return 0 if result.ok else 1


def cmd_journal(args) -> int:
    from repro.journal import describe_journal

    try:
        device, fmt = open_image(BlockDevice.load_image(args.image))
    except UnknownFormat as exc:
        print(exc, file=sys.stderr)
        return 2
    sb = fmt.unpack_superblock(device.peek_block(0))
    print(describe_journal(device, int(sb["journal_start"]),
                           int(sb["journal_blocks"])))
    return 0


def cmd_faultsim(args) -> int:
    from repro.faults.harness import crash_point_sweep, render_sweep

    labels = ([f.strip() for f in args.fs.split(",")]
              if args.fs != "both" else list(FORMAT_LABELS))
    for label in labels:
        if label not in FORMAT_LABELS:
            print("unknown file system %r; known: both, %s"
                  % (label, ", ".join(FORMAT_LABELS)), file=sys.stderr)
            return 2
    if args.policy == "all":
        policies = list(POLICY_NAMES.values())
    elif args.policy == "both":
        policies = [MetadataPolicy.SYNC_METADATA,
                    MetadataPolicy.DELAYED_METADATA]
    else:
        policies = [policy_from_args(args)]
    results = [
        crash_point_sweep(label, policy=policy, n_files=args.files,
                          seed=args.seed, stride=args.stride,
                          resilient=args.resilient)
        for label in labels for policy in policies
    ]
    print(render_sweep(results))
    return 0 if all(r.all_recovered for r in results) else 1


def cmd_chaos(args) -> int:
    from dataclasses import replace

    from repro.faults.chaos import render_chaos, run_chaos, scenario

    cfg = scenario(args.scenario, seed=args.seed)
    if args.fs:
        cfg = replace(cfg, label=args.fs)
    if args.files:
        cfg = replace(cfg, n_files=args.files)
    report = run_chaos(cfg)
    text = render_chaos(report)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
    print(text)
    passed, _reasons = report.verdict()
    return 0 if passed else 1


#: Default export file name per trace format.
TRACE_DEFAULT_OUT = {
    "chrome": "trace.json",
    "jsonl": "trace.jsonl",
    "flame": "trace.flame.txt",
}


def _write_trace(tracer, path: str, fmt: str) -> None:
    from repro.obs.export import write_export

    write_export(tracer, path, fmt)
    print("trace: %d spans -> %s (%s)" % (len(tracer.spans), path, fmt))


def cmd_bench(args) -> int:
    from repro import obs
    from repro.workloads import build_filesystem, run_smallfile

    policy = policy_from_args(args)
    print("small-file benchmark: %d x %d B files, %s metadata" % (
        args.files, args.size, policy.value,
    ))
    tracer = obs.Tracer() if args.trace else None
    try:
        for label in args.configs.split(","):
            fs = build_filesystem(label.strip(), policy)
            if tracer is not None:
                # Each config gets a fresh simulation (its own clock);
                # a root span per config keeps the stacks separable.
                tracer.clock = fs.cache.device.clock
                obs.install(tracer)
                with tracer.span("bench", label.strip()):
                    result = run_smallfile(fs, n_files=args.files,
                                           file_size=args.size)
            else:
                result = run_smallfile(fs, n_files=args.files,
                                       file_size=args.size)
            row = "  ".join("%s %7.1f/s" % (p, r.files_per_second)
                            for p, r in result.phases.items())
            print("%-14s %s" % (label.strip(), row))
    finally:
        if tracer is not None:
            obs.uninstall()
    if tracer is not None:
        _write_trace(tracer, args.trace, args.trace_format)
    return 0


def cmd_multiclient(args) -> int:
    from repro.engine import render_multiclient, run_multiclient

    policy = policy_from_args(args)
    tracer = None
    if args.trace:
        from repro import obs

        tracer = obs.Tracer()
    result = run_multiclient(
        label=args.fs,
        n_clients=args.clients,
        files_per_client=args.files,
        file_size=args.size,
        phases=tuple(p.strip() for p in args.phases.split(",")),
        scheduler=args.scheduler,
        policy=policy,
        workload=args.workload,
        tracer=tracer,
    )
    print(render_multiclient(result))
    if tracer is not None:
        _write_trace(tracer, args.trace, args.trace_format)
    return 0


def _cluster_traffic_config(args):
    """Shared TrafficConfig assembly for cluster and cluster-chaos."""
    from repro.cluster import TrafficConfig, parse_fault_spec

    faults = None
    if getattr(args, "faults", None):
        faults = parse_fault_spec(args.faults, args.shards)
    return TrafficConfig(
        shards=args.shards,
        clients=args.clients,
        ops_per_client=args.ops,
        dirs=args.dirs,
        zipf_theta=args.zipf,
        read_fraction=args.read_mix,
        rename_fraction=args.rename_mix,
        file_size=args.size,
        label=args.fs,
        policy=policy_from_args(args),
        scheduler=args.scheduler,
        router=args.router,
        seed=args.seed,
        faults=faults,
    )


def _write_summary(path: str, summary: dict) -> None:
    """The ``--json`` summary file of cluster and cluster-chaos."""
    import json

    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    # stderr: the stdout report must stay byte-identical across
    # identically-seeded runs regardless of the summary's filename.
    print("summary -> %s" % path, file=sys.stderr)


def cmd_cluster(args) -> int:
    from repro.cluster import (
        TrafficConfig,
        cluster_summary,
        render_cluster,
        run_cluster_traffic,
    )

    cfg = _cluster_traffic_config(args)
    result = run_cluster_traffic(cfg)
    print(render_cluster(result))
    if args.baseline:
        single = run_cluster_traffic(
            TrafficConfig(**{**vars(cfg), "shards": 1, "faults": None}))
        print()
        print("1-shard baseline: %.1f ops/s  ->  %d-shard speedup %.2fx"
              % (single.ops_per_second, cfg.shards,
                 result.ops_per_second / single.ops_per_second))
    if args.json:
        _write_summary(args.json, cluster_summary(result))
    return 0


def cmd_cluster_chaos(args) -> int:
    from repro.cluster import (
        ChaosConfig,
        chaos_summary,
        render_chaos,
        run_cluster_chaos,
    )

    traffic = _cluster_traffic_config(args)
    cfg = ChaosConfig(
        traffic=traffic,
        fail_shard=args.fail_shard,
        fail_op=args.fail_op,
        warm_fraction=args.warm_fraction,
        availability_floor=args.floor,
        extra_faults=traffic.faults,
    )
    result = run_cluster_chaos(cfg)
    print(render_chaos(result))
    if args.json:
        _write_summary(args.json, chaos_summary(result))
    return 0 if result.verdict() == "PASS" else 1


def cmd_trace(args) -> int:
    from repro import obs
    from repro.workloads import build_filesystem, run_smallfile
    from repro.workloads.hypertext import build_site, serve_documents
    from repro.workloads.postmark import PostmarkConfig, run_postmark

    policy = policy_from_args(args)
    fs = build_filesystem(args.fs, policy)
    tracer = obs.Tracer(clock=fs.cache.device.clock)
    obs.install(tracer)
    try:
        with tracer.span("run", args.workload, fs=args.fs,
                         files=args.files):
            if args.workload == "smallfile":
                run_smallfile(fs, n_files=args.files, file_size=args.size)
            elif args.workload == "postmark":
                run_postmark(fs, PostmarkConfig(
                    n_files=args.files, n_transactions=2 * args.files,
                    seed=args.seed))
            else:
                documents = build_site(fs, n_documents=args.files,
                                       seed=args.seed)
                serve_documents(fs, documents, order_seed=args.seed)
    finally:
        obs.uninstall()
    out = args.out if args.out else TRACE_DEFAULT_OUT[args.format]
    print("traced %s on %s: %.3f simulated seconds" % (
        args.workload, args.fs, fs.cache.device.clock.now))
    _write_trace(tracer, out, args.format)
    if args.metrics:
        # Every layer of the stack counts into its drive's registry.
        obs.write_metrics(fs.cache.device.disk.registry, args.metrics)
        print("metrics snapshot -> %s" % args.metrics)
    return 0


def cmd_lint(args) -> int:
    from repro.lint import lint_paths
    from repro.lint.reporters import render_json, render_text

    rule_ids = ([r.strip() for r in args.rules.split(",")] if args.rules else None)
    result = lint_paths(args.paths, rule_ids)
    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result, show_suppressed=args.show_suppressed))
    return 0 if result.ok else 1


def _add_scheduler_argument(parser, help: str) -> None:
    from repro.engine import SCHEDULERS

    parser.add_argument("--scheduler", choices=SCHEDULERS, default="clook",
                        metavar="SCHEDULER", help=help)


def _add_trace_arguments(parser) -> None:
    """``--trace PATH`` / ``--trace-format`` of the benchmark commands."""
    parser.add_argument(
        "--trace", metavar="PATH",
        help="record spans during the run and export them here")
    parser.add_argument("--trace-format", choices=tuple(TRACE_DEFAULT_OUT),
                        default="chrome")


def _add_cluster_traffic_arguments(p, clients: int, dirs: int) -> None:
    """The traffic model both cluster commands replay; they differ only
    in how many clients and directories they default to.  The other
    defaults are :class:`~repro.cluster.TrafficConfig`'s."""
    from repro.cluster import ROUTER_KINDS, TrafficConfig

    p.add_argument("--shards", type=int, default=TrafficConfig.shards)
    p.add_argument("--clients", type=int, default=clients,
                   help="concurrent simulated clients (default %d)" % clients)
    p.add_argument("--ops", type=int, default=TrafficConfig.ops_per_client,
                   help="operations per client")
    p.add_argument("--dirs", type=int, default=dirs,
                   help="top-level directories the load targets")
    p.add_argument("--zipf", type=float, default=TrafficConfig.zipf_theta,
                   help="Zipf theta for directory popularity")
    p.add_argument("--read-mix", type=float,
                   default=TrafficConfig.read_fraction,
                   help="fraction of ops that are reads")
    p.add_argument("--rename-mix", type=float,
                   default=TrafficConfig.rename_fraction,
                   help="fraction of ops that are renames (may cross shards)")
    p.add_argument("--size", type=int, default=TrafficConfig.file_size,
                   help="file size written by write ops")
    p.add_argument("--fs", default=TrafficConfig.label, help=GRID_FS_HELP)
    _add_scheduler_argument(
        p, "per-shard queue discipline: fcfs, sstf or clook")
    p.add_argument("--router", choices=ROUTER_KINDS,
                   default=TrafficConfig.router,
                   help="placement policy: consistent hashing or "
                        "utilization-aware least-loaded")
    p.add_argument("--seed", type=int, default=TrafficConfig.seed)
    add_policy_argument(p)


def build_parser() -> argparse.ArgumentParser:
    from repro.cluster import TrafficConfig
    from repro.cluster.chaos import FAIL_OPS, ChaosConfig
    from repro.engine.multiclient import WORKLOADS
    from repro.faults import CHAOS_SCENARIOS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="C-FFS reproduction: simulated file system images",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mkfs", help="create a fresh file system image")
    p.add_argument("image")
    p.add_argument("--fs", choices=FORMAT_LABELS, default="cffs")
    p.add_argument("--profile", default=SEAGATE_ST31200.name)
    p.add_argument("--no-embed", action="store_true",
                   help="disable embedded inodes (C-FFS only)")
    p.add_argument("--no-group", action="store_true",
                   help="disable explicit grouping (C-FFS only)")
    p.add_argument("--resilient", action="store_true",
                   help="reserve a checksum sidecar + spare pool so the "
                        "image self-heals (see docs/RESILIENCE.md)")
    p.add_argument("--spares", type=int, default=DEFAULT_SPARES,
                   help="spare blocks for bad-block remapping "
                        "(with --resilient)")
    add_policy_argument(p)
    p.set_defaults(func=cmd_mkfs)

    p = sub.add_parser("info", help="describe an image")
    p.add_argument("image")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("ls", help="list a directory")
    p.add_argument("image")
    p.add_argument("path", nargs="?", default="/")
    p.set_defaults(func=cmd_ls)

    p = sub.add_parser("put", help="copy a host file into the image")
    p.add_argument("image")
    p.add_argument("hostfile")
    p.add_argument("fspath")
    p.set_defaults(func=cmd_put)

    p = sub.add_parser("get", help="copy a file out of the image")
    p.add_argument("image")
    p.add_argument("fspath")
    p.add_argument("hostfile", nargs="?")
    p.set_defaults(func=cmd_get)

    p = sub.add_parser("rm", help="remove a file")
    p.add_argument("image")
    p.add_argument("fspath")
    p.set_defaults(func=cmd_rm)

    p = sub.add_parser("mkdir", help="create a directory")
    p.add_argument("image")
    p.add_argument("fspath")
    p.set_defaults(func=cmd_mkdir)

    p = sub.add_parser("stat", help="show file metadata")
    p.add_argument("image")
    p.add_argument("fspath")
    p.set_defaults(func=cmd_stat)

    p = sub.add_parser("regroup", help="re-co-locate a directory's small files")
    p.add_argument("image")
    p.add_argument("fspath")
    p.set_defaults(func=cmd_regroup)

    p = sub.add_parser("fsck", help="check an image offline")
    p.add_argument("image")
    p.add_argument("--repair", action="store_true",
                   help="fix what the check finds and write the image back")
    p.set_defaults(func=cmd_fsck)

    p = sub.add_parser(
        "journal",
        help="inspect an image's write-ahead log: geometry, checkpoint, "
             "pending transactions")
    p.add_argument("image")
    p.set_defaults(func=cmd_journal)

    p = sub.add_parser(
        "faultsim",
        help="crash-point sweep: power-cut, repair, remount, verify")
    p.add_argument("--fs", default="both",
                   help="both, or comma-separated subset of: ffs, cffs")
    p.add_argument("--policy",
                   choices=tuple(POLICY_NAMES) + ("both", "all"),
                   default="all",
                   help="one policy, 'both' (sync+softdep), or 'all' "
                        "(sync+softdep+journal; the default)")
    p.add_argument("--files", type=int, default=50,
                   help="workload size (files created during the run)")
    p.add_argument("--stride", type=int, default=1,
                   help="test every Nth crash point (1 = exhaustive)")
    p.add_argument("--seed", type=int, default=1997)
    p.add_argument("--resilient", action="store_true",
                   help="run the workload over the self-healing device "
                        "layer (crash windows cover remap-table writes)")
    p.set_defaults(func=cmd_faultsim)

    p = sub.add_parser(
        "chaos",
        help="soak a file system on decaying media and assert the "
             "self-healing contract")
    p.add_argument("--scenario", choices=tuple(CHAOS_SCENARIOS),
                   default="sustained",
                   help="sustained decay, or spare-pool exhaustion "
                        "(expects the READ_ONLY demotion)")
    p.add_argument("--fs", choices=FORMAT_LABELS,
                   help="override the scenario's file system")
    p.add_argument("--files", type=int,
                   help="override the scenario's workload size")
    p.add_argument("--seed", type=int,
                   help="override the scenario's seed")
    p.add_argument("--out", metavar="PATH",
                   help="also write the report here (CI diffs two runs)")
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser("multiclient",
                       help="run N concurrent clients through the engine")
    p.add_argument("--clients", type=int, default=8)
    p.add_argument("--files", type=int, default=40,
                   help="files (or pool size / documents) per client")
    p.add_argument("--size", type=int, default=1024)
    p.add_argument("--fs", default="cffs", help=GRID_FS_HELP)
    _add_scheduler_argument(p, "queue discipline: fcfs, sstf or clook")
    p.add_argument("--workload", choices=WORKLOADS, default="smallfile")
    p.add_argument("--phases", default="create,read",
                   help="smallfile phases to run (comma-separated)")
    add_policy_argument(p)
    _add_trace_arguments(p)
    p.set_defaults(func=cmd_multiclient)

    p = sub.add_parser(
        "cluster",
        help="replay a Zipfian many-client load over a sharded cluster")
    _add_cluster_traffic_arguments(p, clients=TrafficConfig.clients,
                                   dirs=TrafficConfig.dirs)
    p.add_argument("--faults", metavar="SPEC",
                   help="per-shard fault schedules, e.g. "
                        "'1:write_fail_from=0;2:transient_rate=0.05'")
    p.add_argument("--baseline", action="store_true",
                   help="also run the same load on 1 shard and report speedup")
    p.add_argument("--json", metavar="PATH",
                   help="write the machine-readable summary here")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser(
        "cluster-chaos",
        help="kill one shard mid-traffic and assert the cluster's "
             "fault-tolerance contract")
    _add_cluster_traffic_arguments(p, clients=400, dirs=48)
    p.add_argument("--fail-shard", type=int, default=ChaosConfig.fail_shard,
                   help="the victim shard (armed between warm and storm)")
    p.add_argument("--fail-op", choices=FAIL_OPS, default=ChaosConfig.fail_op,
                   help="which path breaks on the victim")
    p.add_argument("--warm-fraction", type=float,
                   default=ChaosConfig.warm_fraction,
                   help="fraction of clients that run before the fault")
    p.add_argument("--floor", type=float,
                   default=ChaosConfig.availability_floor,
                   help="required availability on surviving shards")
    p.add_argument("--faults", metavar="SPEC",
                   help="additional per-shard fault schedules, e.g. "
                        "'2:transient_rate=0.05'")
    p.add_argument("--json", metavar="PATH",
                   help="write the machine-readable summary here")
    p.set_defaults(func=cmd_cluster_chaos)

    p = sub.add_parser(
        "lint",
        help="reprolint: domain-aware static analysis over the source tree")
    p.add_argument("paths", nargs="*", default=["src"],
                   help="files or directories to lint (default: src)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--rules",
                   help="comma-separated rule ids to run (default: all)")
    p.add_argument("--show-suppressed", action="store_true",
                   help="also list findings silenced by reprolint directives")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("bench", help="run the small-file benchmark")
    p.add_argument("--files", type=int, default=2000)
    p.add_argument("--size", type=int, default=1024)
    p.add_argument("--configs", default="conventional,cffs",
                   help="comma-separated; " + GRID_FS_HELP)
    add_policy_argument(p)
    _add_trace_arguments(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "trace",
        help="run a workload with tracing on and export the spans")
    p.add_argument("--workload", choices=WORKLOADS, default="smallfile")
    p.add_argument("--fs", default="cffs", help=GRID_FS_HELP)
    p.add_argument("--files", type=int, default=200,
                   help="files (or documents) the workload touches")
    p.add_argument("--size", type=int, default=1024,
                   help="file size for smallfile")
    p.add_argument("--format", choices=tuple(TRACE_DEFAULT_OUT),
                   default="chrome")
    p.add_argument("--out", metavar="PATH",
                   help="output path (default: trace.<format extension>)")
    p.add_argument("--metrics", metavar="PATH",
                   help="also write a metrics-registry snapshot JSON here")
    p.add_argument("--seed", type=int, default=1997)
    add_policy_argument(p)
    p.set_defaults(func=cmd_trace)

    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output piped to a consumer that closed early (| head).
        # Detach stdout so interpreter shutdown doesn't retry the
        # flush and print a spurious traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
