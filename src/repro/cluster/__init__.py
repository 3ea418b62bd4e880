"""Sharded multi-volume cluster: scale-out over independent engines.

The paper's systems scale a *single* disk arm by embedding inodes and
grouping small files; this package scales *out*: N complete vertical
stacks (drive, cache, file system — :class:`~repro.cluster.core.Shard`)
coupled under one shared event loop, fronted by a namespace router that
places top-level directory subtrees on shards
(:mod:`~repro.cluster.router`), a crash-safe cross-shard rename
protocol (:mod:`~repro.cluster.intent`), a FileSystem-shaped facade so
existing workloads run unmodified (:mod:`~repro.cluster.facade`), and a
Zipfian many-client traffic model (:mod:`~repro.cluster.traffic`).

Fault tolerance (PR 10) lives in three more modules: per-shard health
classification (:mod:`~repro.cluster.health`), crash-safe shard
evacuation (:mod:`~repro.cluster.evacuate`), and the cluster-wide
chaos harness (:mod:`~repro.cluster.chaos`).
"""

from repro.cluster.chaos import (
    CHAOS_SCHEMA,
    ChaosConfig,
    ChaosResult,
    chaos_summary,
    parse_fault_spec,
    render_chaos,
    run_cluster_chaos,
)
from repro.cluster.core import Cluster, ClusterClient, ClusterOp, Leg, Shard
from repro.cluster.evacuate import (
    EvacuatedTop,
    adopted_tops,
    evacuate_shard,
    evacuate_top,
    recover_shard_evacs,
)
from repro.cluster.facade import ClusterFS, split_top
from repro.cluster.health import ClusterHealth, HealthState
from repro.cluster.intent import (
    ADOPT,
    CLUSTER_DIR,
    EVAC,
    INTENT,
    encode_record,
    parse_record,
    recover_shard_intents,
    scan_records,
)
from repro.cluster.router import (
    DEGRADED_PRESSURE,
    ROUTE_CPU_SECONDS,
    ROUTER_KINDS,
    VNODES,
    HashRouter,
    Router,
    UtilizationRouter,
    make_router,
)
from repro.cluster.traffic import (
    CLUSTER_SCHEMA,
    ClusterTrafficResult,
    ShardBalance,
    TrafficConfig,
    ZipfSampler,
    cluster_summary,
    render_cluster,
    run_cluster_traffic,
)

__all__ = [
    "ADOPT",
    "CHAOS_SCHEMA",
    "CLUSTER_DIR",
    "CLUSTER_SCHEMA",
    "ChaosConfig",
    "ChaosResult",
    "Cluster",
    "ClusterClient",
    "ClusterFS",
    "ClusterHealth",
    "ClusterOp",
    "ClusterTrafficResult",
    "DEGRADED_PRESSURE",
    "EVAC",
    "EvacuatedTop",
    "HashRouter",
    "HealthState",
    "INTENT",
    "Leg",
    "ROUTER_KINDS",
    "ROUTE_CPU_SECONDS",
    "Router",
    "Shard",
    "ShardBalance",
    "TrafficConfig",
    "UtilizationRouter",
    "VNODES",
    "ZipfSampler",
    "adopted_tops",
    "chaos_summary",
    "cluster_summary",
    "encode_record",
    "evacuate_shard",
    "evacuate_top",
    "make_router",
    "parse_record",
    "parse_fault_spec",
    "recover_shard_evacs",
    "recover_shard_intents",
    "render_chaos",
    "render_cluster",
    "run_cluster_chaos",
    "run_cluster_traffic",
    "scan_records",
    "split_top",
]
