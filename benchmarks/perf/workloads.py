"""The six benchmark workloads.

Each workload owns three things: how its stack is built and
pre-populated (:meth:`Workload.setup`, timed as ``setup_s``), its timed
section (:meth:`Workload.body`), and the output checks on what the
program produced (:meth:`Workload.check`).  Inputs come from
:mod:`benchmarks.perf.generators`, generated once per process from
``--seed``; every repeat makes a fresh workload object over them, so a
repeat never pays for freeing the stack of the one before.

All six are closed loops driven by this one single-threaded process: a
client's next operation is issued when its previous one completes.

Two methods are the ``workloads`` layer's entry points and the only
places the per-layer trace hooks into this file: :meth:`Workload.op`
(one lock-step user operation, which also takes its simulated latency)
and :meth:`Workload.call` (one callback of a scripted engine/cluster
operation).  Both carry the operation's id so every span it causes can
be tied back to it, and both first call :attr:`Workload.pace`, through
which the runner times its reference loop between operations.
"""

from __future__ import annotations

import hashlib
import time
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro import (
    BlockDevice,
    CFFSConfig,
    MetadataPolicy,
    SEAGATE_ST31200,
    fsck_cffs,
    fsck_ffs,
    make_cffs,
    make_ffs,
)
from repro.cluster import Cluster
from repro.core.filesystem import CFFS
from repro.engine import Engine
from repro.errors import ReproError
from repro.faults import FaultSchedule, FaultyBlockDevice
from repro.fsck import timed_fsck
from repro.journal import timed_replay
from repro.resilience import ResilientBlockDevice

from benchmarks.perf import generators as gen

READ, WRITE, OTHER = 0, 1, 2

#: DiskStats fields summed over a workload's drives.
DISK_FIELDS = (
    "reads", "writes", "sectors_read", "sectors_written", "cache_hits",
    "write_absorbed", "seek_time", "rotation_time", "transfer_time",
    "overhead_time", "bus_time", "stall_time",
)

#: QueueAccounting fields summed over a workload's disk queues.
QUEUE_FIELDS = ("submitted", "completed", "retried", "total_queue_delay",
                "depth_area")


def raw_device(device) -> BlockDevice:
    """The BlockDevice under any stack of device proxies."""
    while hasattr(device, "inner"):
        device = device.inner
    return device


class Workload:
    """Base: bookkeeping shared by every workload."""

    name = ""
    fsck = staticmethod(fsck_cffs)

    @staticmethod
    def pace() -> None:
        """Called between user operations; the runner puts its
        ``Reference.pace`` here on timed, untraced repeats."""

    def __init__(self, inputs) -> None:
        self.inputs = inputs
        self.payloads = inputs.payloads
        self.latencies: List[float] = []
        self.kinds: List[int] = []
        self.failures: List[str] = []
        self.user_bytes = 0
        self.phases: Dict[str, Dict[str, float]] = {}
        self.sim_seconds = 0.0
        self.cpu_s = 0.0
        self.wall_s = 0.0
        # Set by the runner on paced repeats, which also takes the
        # slices out of cpu_s: reference-machine CPU-seconds of the
        # timed section, the reference loop's speed during it, and the
        # CPU-seconds its slices took.
        self.host_s = self.speed = self.slices_s = 0.0
        self.delta: Dict[str, float] = {}

    # -- to implement ---------------------------------------------------------

    @classmethod
    def generate(cls, seed: int, scale: int = 1):
        """The workload's inputs for ``seed``, at 1/``scale`` size."""
        raise NotImplementedError

    def setup(self) -> None:
        """Build a fresh stack and pre-populate it."""
        raise NotImplementedError

    def body(self) -> None:
        """The timed section."""
        raise NotImplementedError

    def now(self) -> float:
        """Simulated time on the workload's clock."""
        raise NotImplementedError

    def file_systems(self) -> list:
        """Every mounted volume of the stack (one per shard)."""
        raise NotImplementedError

    def sizes(self) -> Dict[str, int]:
        """The input sizes actually used (recorded with the results)."""
        raise NotImplementedError

    # -- shared ---------------------------------------------------------------

    def counters(self) -> Dict[str, float]:
        """Public counters of the stack's layers, summed over volumes."""
        out: Dict[str, float] = {}
        for name in DISK_FIELDS:
            out["disk." + name] = 0
        out["cache.hits"] = out["cache.misses"] = out["cache.evictions"] = 0
        for fs in self.file_systems():
            stats = fs.cache.device.disk.stats
            for name in DISK_FIELDS:
                out["disk." + name] += getattr(stats, name)
            out["cache.hits"] += fs.cache.hits
            out["cache.misses"] += fs.cache.misses
            out["cache.evictions"] += fs.cache.evictions
        return out

    def run(self) -> None:
        """One timed section: simulated and host time around the body,
        and the layers' public counters on either side of it."""
        self.latencies = []
        self.kinds = []
        self.failures = []
        self.user_bytes = 0
        self.phases = {}
        before = self.counters()
        start = self.now()
        cpu, wall = time.process_time(), time.perf_counter()
        self.body()
        self.cpu_s = time.process_time() - cpu
        self.wall_s = time.perf_counter() - wall
        self.sim_seconds = self.now() - start
        after = self.counters()
        self.delta = {key: after[key] - before[key] for key in after}

    def finish(self) -> None:
        """Untimed: gather per-op samples the body did not take inline."""

    def write_sample(self) -> Tuple[List[float], float, int]:
        """(write-op latencies, sectors written, user bytes written)."""
        writes = [lat for lat, kind in zip(self.latencies, self.kinds)
                  if kind == WRITE]
        return writes, self.delta["disk.sectors_written"], self.user_bytes

    def check(self) -> List[str]:
        """Output checks on the final image(s); returns what failed."""
        problems = list(self.failures[:5])
        for fs in self.file_systems():
            report = self.fsck(fs.cache.device)
            if not report.pristine:
                problems.append("fsck not pristine on %s: %s" % (
                    fs.name, "; ".join((report.errors + report.repairs)[:3])))
        return problems

    def digest(self) -> str:
        """One fingerprint over every volume's final contents."""
        hasher = hashlib.sha256()
        for fs in self.file_systems():
            image = raw_device(fs.cache.device)
            hasher.update(image.content_digest().encode())
        return hasher.hexdigest()

    def recover(self) -> Optional[Dict[str, object]]:
        """The crash-recovery stage, for workloads that have one."""
        return None

    # -- the `workloads` layer's two entry points ------------------------------

    def op(self, op_id: int, kind: int, fn: Callable, *args) -> None:
        """One lock-step user operation, with its simulated latency."""
        self.pace()
        start = self.now()
        try:
            fn(*args)
        except ReproError as exc:
            self.failures.append("op %d raised %s: %s"
                                 % (op_id, type(exc).__name__, exc))
        self.latencies.append(self.now() - start)
        self.kinds.append(kind)

    def call(self, op_id: int, cid: int, fn: Callable, *args):
        """One callback of scripted operation ``op_id`` of client ``cid``."""
        self.pace()
        return fn(*args)

    # -- operations shared by several workloads --------------------------------

    # (The file system comes last so that scripted operations, which
    # are handed it by the engine, can be built with functools.partial.)

    def _write(self, path: str, key: int, size: int, fs) -> None:
        fs.write_file(path, self.payloads.cut(key, size))
        self.user_bytes += size

    def _read(self, path: str, pieces, fs) -> None:
        if fs.read_file(path) != self.payloads.join(pieces):
            self.failures.append("read of %s returned wrong bytes" % path)


class LockStep(Workload):
    """One client calling one file system synchronously."""

    def now(self) -> float:
        return self.clock.now

    def file_systems(self) -> list:
        return [self.fs]

    def _mount(self, fs) -> None:
        self.fs = fs
        self.clock = fs.cache.device.clock
        self.disk = fs.cache.device.disk

    def _phase(self, name: str, start: float, requests: int) -> None:
        self.phases[name] = {
            "sim_s": self.clock.now - start,
            "disk_requests": self.disk.stats.total_requests - requests,
        }


# -- smallfile-cffs / smallfile-ffs ------------------------------------------------


class SmallFile(LockStep):
    """Paper section 4.2: create / read / overwrite / delete N small
    files, each phase ending in a sync and starting cold."""

    N_FILES = 10000

    @classmethod
    def generate(cls, seed: int, scale: int = 1):
        return gen.smallfile_inputs(seed, cls.N_FILES // scale)

    def sizes(self) -> Dict[str, int]:
        inp = self.inputs
        return {"files": len(inp.paths), "file_size": gen.SMALLFILE_SIZE,
                "bytes": sum(inp.sizes),
                "dirs": len(inp.dirs), "ops": 4 * len(inp.paths),
                "cache_blocks": self.fs.cache.capacity}

    def setup(self) -> None:
        self._mount(self.make())
        self.fs.mkdir("/bench")
        for d in self.inputs.dirs:
            self.fs.mkdir(d)
        self.fs.drop_caches()

    def body(self) -> None:
        fs, op = self.fs, self.op
        paths, sizes = self.inputs.paths, self.inputs.sizes
        n = len(paths)
        for number, phase in enumerate(gen.SMALLFILE_PHASES):
            start, requests = self.clock.now, self.disk.stats.total_requests
            first = number * n + 1
            if phase == "create":
                for i, path in enumerate(paths):
                    op(first + i, WRITE, self._write, path, i, sizes[i], fs)
            elif phase == "read":
                for i, path in enumerate(paths):
                    op(first + i, READ, self._read, path,
                       ((i, sizes[i]),), fs)
            elif phase == "overwrite":
                for i, path in enumerate(paths):
                    op(first + i, WRITE, self._write, path, n + i,
                       sizes[i], fs)
            else:
                for i, path in enumerate(paths):
                    op(first + i, OTHER, fs.unlink, path)
            fs.sync()
            self._phase(phase, start, requests)
            fs.drop_caches()


class SmallFileCFFS(SmallFile):
    name = "smallfile-cffs"
    make = staticmethod(make_cffs)


class SmallFileFFS(SmallFile):
    name = "smallfile-ffs"
    make = staticmethod(make_ffs)
    fsck = staticmethod(fsck_ffs)


# -- postmark-journal --------------------------------------------------------------


class PostmarkJournal(LockStep):
    """PostMark churn on journaled C-FFS over a write-recording device,
    plus the crash-recovery stage that gives journal/fsck their numbers."""

    name = "postmark-journal"
    N_FILES = 3000
    N_TRANSACTIONS = 12000
    # The pool (about 31 MB of blocks) must fit the buffer cache: with
    # dirty grouped blocks under eviction pressure, C-FFS's group fetch
    # can re-install a sibling it has just written back from the stale
    # pre-write-back image, and a later read then returns old bytes
    # (seen on about one seed in four with the default 16 MB cache).
    # This benchmark may not edit the program, so the workload stays
    # off that path; see README.md, "Found while building this".
    CACHE_BLOCKS = 16384

    @classmethod
    def generate(cls, seed: int, scale: int = 1):
        return gen.postmark_inputs(
            seed, cls.N_FILES // scale, cls.N_TRANSACTIONS // scale)

    def sizes(self) -> Dict[str, int]:
        inp = self.inputs
        transactions = sum(len(run) for run in inp.transactions)
        return {"pool_files": len(inp.pool_ops),
                "transactions": transactions,
                "syncs": len(inp.transactions) + 2,
                "ops": (len(inp.pool_ops) + transactions
                        + len(inp.survivors)),
                "min_size": gen.POSTMARK_FILE_SIZES[0],
                "max_size": gen.POSTMARK_FILE_SIZES[1],
                "cache_blocks": self.fs.cache.capacity}

    def setup(self) -> None:
        self.device = FaultyBlockDevice(
            BlockDevice(SEAGATE_ST31200), FaultSchedule(),
            record_journal=True)
        self._mount(CFFS.mkfs(self.device, CFFSConfig(
            policy=MetadataPolicy.JOURNAL_METADATA,
            cache_blocks=self.CACHE_BLOCKS)))
        self.fs.mkdir("/postmark")
        for d in self.inputs.dirs:
            self.fs.mkdir(d)
        self.fs.drop_caches()

    def counters(self) -> Dict[str, float]:
        out = super().counters()
        start = self.fs.sb["journal_start"]
        end = start + self.fs.sb["journal_blocks"]
        landed = self.device.journal
        log = [bno for bno, _ in landed if start <= bno < end]
        out["journal.media_writes"] = len(landed)
        out["journal.log_writes"] = len(log)
        out["journal.header_writes"] = log.count(start)
        return out

    def _append(self, path: str, key: int, size: int, fs) -> None:
        at = fs.stat(path).size
        fd = fs.open(path)
        try:
            fs.pwrite(fd, at, self.payloads.cut(key, size))
        finally:
            fs.close(fd)
        self.user_bytes += size

    def _transact(self, first: int, ops: List[tuple]) -> None:
        fs, op = self.fs, self.op
        for i, (what, path, arg) in enumerate(ops):
            if what == "read":
                op(first + i, READ, self._read, path, arg, fs)
            elif what == "append":
                op(first + i, WRITE, self._append, path, *arg, fs)
            elif what == "create":
                op(first + i, WRITE, self._write, path, *arg, fs)
            else:
                op(first + i, OTHER, fs.unlink, path)

    def body(self) -> None:
        inp, fs = self.inputs, self.fs
        start, requests = self.clock.now, self.disk.stats.total_requests
        self._transact(1, inp.pool_ops)
        fs.sync()
        self._phase("pool", start, requests)

        start, requests = self.clock.now, self.disk.stats.total_requests
        first = 1 + len(inp.pool_ops)
        for run in inp.transactions:
            self._transact(first, run)
            first += len(run)
            landed = len(self.device.journal)
            fs.sync()
        self._phase("transactions", start, requests)
        self.cut = self._after_last_log_write(landed)

        start, requests = self.clock.now, self.disk.stats.total_requests
        for i, path in enumerate(inp.survivors):
            self.op(first + i, OTHER, fs.unlink, path)
        fs.sync()
        self._phase("delete", start, requests)

    def _after_last_log_write(self, since: int) -> int:
        """Where the recover stage cuts power: inside the last sync of
        the transactions, right after its last write into the log.  The
        commit record is on the media, no home write it covers is, and
        the file data the sync was about to write is lost."""
        start = self.fs.sb["journal_start"]
        end = start + self.fs.sb["journal_blocks"]
        cut = since
        for k in range(since, len(self.device.journal)):
            # (The header block is rewritten by the checkpoint, after
            # the home writes; it is not part of the commit.)
            if start < self.device.journal[k][0] < end:
                cut = k + 1
        return cut

    def recover(self) -> Dict[str, object]:
        """Crash at ``self.cut``; replay, fsck, remount, read back.

        Owed byte-exact: every file that was durable at the last
        completed sync and that no later transaction touched.
        """
        inp = self.inputs
        start = self.fs.sb["journal_start"]
        nblocks = self.fs.sb["journal_blocks"]
        out: Dict[str, object] = {"cut": self.cut, "problems": []}
        problems: List[str] = out["problems"]  # type: ignore[assignment]

        # The fsck path: the walk a volume without a log would need.
        walked = self.device.image_at(self.cut)
        reads = walked.disk.stats.sectors_read
        began = time.process_time()
        report, walk_sim = timed_fsck(walked, fsck_cffs)
        out["walk_host_s"] = time.process_time() - began
        out["walk_sim_s"] = walk_sim
        out["blocks_read"] = (walked.disk.stats.sectors_read - reads) // 8
        if report.errors:
            problems.append("crash image has fsck errors: %s"
                            % "; ".join(report.errors[:3]))

        # The mount path: replay the log, then use the volume.
        image = self.device.image_at(self.cut)
        began = time.process_time()
        stats = timed_replay(image, start, nblocks)
        out["replay_host_s"] = time.process_time() - began
        out["replay_sim_s"] = stats.elapsed
        out["replay_txns"] = stats.txns
        fsck_cffs(image, repair=True)
        after = fsck_cffs(image)
        if not after.pristine:
            problems.append("replayed image not pristine after repair: %s"
                            % "; ".join((after.errors + after.repairs)[:3]))
        fs = CFFS.mount(image)
        checked = 0
        for path, pieces in inp.before_last_run.items():
            if inp.after_last_run.get(path) != pieces:
                continue
            checked += 1
            try:
                intact = fs.read_file(path) == self.payloads.join(pieces)
            except ReproError as exc:
                intact = False
                problems.append("durable file %s unreadable: %s" % (path, exc))
            if not intact:
                problems.append("durable file %s lost its bytes" % path)
        out["files_checked"] = checked
        if not checked:
            problems.append("recover stage had no durable file to check")
        del problems[5:]
        return out


# -- webserve-resilient ------------------------------------------------------------


class WebServeResilient(LockStep):
    """Serve a site larger than the cache twice, from C-FFS over the
    checksum-verifying device.  The site is built in set-up, so the two
    write metrics of this workload describe that build."""

    name = "webserve-resilient"
    # Pure-python CRC verification costs about 2 ms of host time per
    # block read, so the site is sized for a repeat to fit the run
    # three times over: about 830 files, 5.3 MB.
    N_DOCUMENTS = 150
    # 2.25 MB, under half the site: pass 2 still misses, and about 7 % of
    # reads take two or more disk requests.  With a cache near the
    # site's size that share is under 2 %, which puts sim_p99_ms on the
    # step between one-request reads (up to 32 ms) and two-request
    # reads (from 40 ms), on either side of it by seed.
    CACHE_BLOCKS = 576

    @classmethod
    def generate(cls, seed: int, scale: int = 1):
        return gen.site_inputs(seed, cls.N_DOCUMENTS // scale)

    def sizes(self) -> Dict[str, int]:
        files = self.inputs.files
        return {"documents": len(self.inputs.documents), "files": len(files),
                "site_bytes": sum(size for _, _, size in files),
                "ops": len(self.inputs.serve_order),
                "cache_blocks": self.fs.cache.capacity}

    def setup(self) -> None:
        self._mount(CFFS.mkfs(
            ResilientBlockDevice.format(BlockDevice(SEAGATE_ST31200)),
            CFFSConfig(cache_blocks=self.CACHE_BLOCKS)))
        fs = self.fs
        written = self.disk.stats.sectors_written
        for d in gen.SITE_DIRS:
            fs.mkdir(d)
        for i, (path, key, size) in enumerate(self.inputs.files):
            self.op(-i, WRITE, self._write, path, key, size, fs)
        fs.sync()
        self.build = (self.latencies,
                      self.disk.stats.sectors_written - written,
                      self.user_bytes)
        fs.drop_caches()

    def counters(self) -> Dict[str, float]:
        out = super().counters()
        stats = self.fs.cache.device.stats
        for name in ("verified_reads", "checksum_failures", "sidecar_flushes"):
            out["resilience." + name] = getattr(stats, name)
        return out

    def write_sample(self) -> Tuple[List[float], float, int]:
        return self.build

    def body(self) -> None:
        fs, op = self.fs, self.op
        order = self.inputs.serve_order
        one_pass = len(order) // gen.SITE_PASSES
        for number in range(gen.SITE_PASSES):
            start, requests = self.clock.now, self.disk.stats.total_requests
            first = number * one_pass
            for i in range(first, first + one_pass):
                path, key, size = order[i]
                op(i + 1, READ, self._read, path, ((key, size),), fs)
            self._phase("pass%d" % (number + 1), start, requests)


# -- multiclient-8 -----------------------------------------------------------------


class Scripted(Workload):
    """Shared by the engine-driven workloads: per-op samples come from
    the clients' records once the timed section is over."""

    def finish(self) -> None:
        for client in self.clients:
            for record in client.records:
                self.latencies.append(record.latency)
                self.kinds.append(
                    READ if record.label == "read"
                    else WRITE if record.label == "write" else OTHER)
                if record.error is not None:
                    self.failures.append("%s op of client %d failed: %s" % (
                        record.label, record.client, record.error))

    def _queue_counters(self, out: Dict[str, float], queues, loop) -> None:
        for name in QUEUE_FIELDS:
            out["engine." + name] = sum(
                getattr(q.stats, name) for q in queues)
        out["engine.events"] = loop.events_run


class MultiClient8(Scripted):
    """Eight smallfile clients interleaving on one C-FFS volume through
    the event loop and a C-LOOK disk queue."""

    name = "multiclient-8"
    N_CLIENTS = 8
    FILES_PER_CLIENT = 1000

    @classmethod
    def generate(cls, seed: int, scale: int = 1):
        return gen.multiclient_inputs(
            seed, cls.N_CLIENTS, cls.FILES_PER_CLIENT // scale)

    def sizes(self) -> Dict[str, int]:
        per_client = len(self.inputs.orders[0]["create"])
        return {"clients": self.N_CLIENTS, "files_per_client": per_client,
                "file_size": gen.SMALLFILE_SIZE,
                "ops": 4 * self.N_CLIENTS * per_client,
                "cache_blocks": self.fs.cache.capacity}

    def now(self) -> float:
        return self.engine.now

    def file_systems(self) -> list:
        return [self.fs]

    def counters(self) -> Dict[str, float]:
        out = super().counters()
        self._queue_counters(out, [self.engine.queue], self.engine.loop)
        return out

    def setup(self) -> None:
        inp = self.inputs
        self.fs = make_cffs()
        self.engine = Engine(self.fs, scheduler="clook")
        self.clients = [self.engine.add_client("c%02d" % cid)
                        for cid in range(self.N_CLIENTS)]

        def prepare(fs) -> None:
            fs.mkdir("/mc")
            for d in inp.dirs:
                fs.mkdir(d)
            fs.drop_caches()

        self.engine.run_sync(prepare)
        total = self.N_CLIENTS * len(inp.orders[0]["create"])
        self.scripts: Dict[str, dict] = {}
        op_id = 0
        for number, phase in enumerate(gen.SMALLFILE_PHASES):
            per_client = {}
            for cid, client in enumerate(self.clients):
                ops = []
                for index, path, size in inp.orders[cid][phase]:
                    op_id += 1
                    if phase == "read":
                        ops.append(("read", partial(
                            self.call, op_id, cid, self._read,
                            path, ((index, size),))))
                    elif phase == "delete":
                        ops.append(("delete", partial(
                            self.call, op_id, cid, self._unlink, path)))
                    else:
                        key = index + (total if number else 0)
                        ops.append(("write", partial(
                            self.call, op_id, cid, self._write,
                            path, key, size)))
                per_client[client] = ops
            self.scripts[phase] = per_client

    @staticmethod
    def _unlink(path: str, fs) -> None:
        fs.unlink(path)

    def body(self) -> None:
        engine = self.engine
        disk = self.fs.cache.device.disk
        for phase in gen.SMALLFILE_PHASES:
            start, requests = engine.now, disk.stats.total_requests
            engine.run_phase(self.scripts[phase], phase)
            engine.run_sync(_sync)
            self.phases[phase] = {
                "sim_s": engine.now - start,
                "disk_requests": disk.stats.total_requests - requests,
            }
            engine.run_sync(_drop_caches)


def _sync(fs) -> None:
    fs.sync()


def _drop_caches(fs) -> None:
    fs.drop_caches()


# -- cluster-zipf ------------------------------------------------------------------


class ClusterZipf(Scripted):
    """A thousand short-lived clients over Zipf-popular directories on
    a four-shard cluster behind the utilisation router."""

    name = "cluster-zipf"
    N_SHARDS = 4
    N_CLIENTS = 1000
    OPS_PER_CLIENT = 16

    @classmethod
    def generate(cls, seed: int, scale: int = 1):
        return gen.cluster_inputs(
            seed, cls.N_CLIENTS // scale, cls.OPS_PER_CLIENT)

    def sizes(self) -> Dict[str, int]:
        inp = self.inputs
        return {"shards": self.N_SHARDS, "clients": len(inp.scripts),
                "ops_per_client": self.OPS_PER_CLIENT,
                "dirs": len(inp.seed_sizes),
                "file_size": gen.CLUSTER_FILE_SIZE,
                "ops": len(inp.scripts) * self.OPS_PER_CLIENT,
                "cache_blocks": self.cluster.shards[0].fs.cache.capacity}

    def now(self) -> float:
        return self.cluster.now

    def file_systems(self) -> list:
        return [shard.fs for shard in self.cluster.shards]

    def counters(self) -> Dict[str, float]:
        out = super().counters()
        cluster = self.cluster
        self._queue_counters(
            out, [shard.queue for shard in cluster.shards], cluster.loop)
        metrics = cluster.metrics
        out["cluster.routes"] = metrics.counter("cluster.router.routes").value
        out["cluster.cross_shard_renames"] = metrics.counter(
            "cluster.rename.cross_shard").value
        out["cluster.retry_attempts"] = metrics.counter(
            "cluster.retry.attempts").value
        for shard in cluster.shards:
            out["cluster.ops.%s" % shard.name] = metrics.counter(
                "cluster.%s.ops" % shard.name).value
        return out

    def setup(self) -> None:
        inp = self.inputs
        self.cluster = Cluster(n_shards=self.N_SHARDS, label="cffs",
                               router="util", scheduler="clook")
        self.created: set = set()
        self.assignments = {}
        self.clients = []
        per_client = self.OPS_PER_CLIENT
        for cid, script in enumerate(inp.scripts):
            client = self.cluster.add_client()
            self.clients.append(client)
            written: List[str] = []
            ops = []
            for k, (kind, rank, extra) in enumerate(script):
                op_id = cid * per_client + k + 1
                top = "d%03d" % rank
                path = "/%s/c%04d_%02d" % (top, cid, k)
                if kind == "read":
                    ops.append(("read", partial(
                        self.call, op_id, cid, self._resolve_read,
                        op_id, cid, top, rank, extra)))
                    continue
                # A rename with nothing to rename yet falls back to the
                # write this client would otherwise have made.
                size = extra if kind == "write" else extra[2]
                write = partial(self.call, op_id, cid, self._resolve_write,
                                op_id, cid, top, path, size, written)
                if kind == "write":
                    ops.append(("write", write))
                else:
                    ops.append(("rename", partial(
                        self.call, op_id, cid, self._resolve_rename,
                        op_id, cid, "d%03d" % extra[0], extra[1], written,
                        write)))
            self.assignments[client] = ops

    # Resolvers run at operation start (routing sees the namespace as it
    # is then) and return the operation's legs, as cluster ops must.

    def _seed_piece(self, rank: int, index: int) -> Tuple[int, int]:
        sizes = self.inputs.seed_sizes[rank]
        return 1000000 + rank * len(sizes) + index, sizes[index]

    def _claim(self, top: str) -> bool:
        """Whether this operation is the first to touch ``top``."""
        first = top not in self.created
        self.created.add(top)
        return first

    def _ensure_dir(self, top: str, shard, fs) -> None:
        # The first toucher materialises the directory and its seed
        # files; the cost lands inside that operation.
        rank = int(top[1:])
        fs.mkdir("/" + top)
        sizes = self.inputs.seed_sizes[rank]
        for s in range(len(sizes)):
            self._write("/%s/f%d" % (top, s), *self._seed_piece(rank, s), fs)
        self.cluster.account(shard, bytes_written=sum(sizes))

    def _leg(self, op_id: int, cid: int, fn: Callable, *args) -> Callable:
        return partial(self.call, op_id, cid, fn, *args)

    def _resolve_write(self, op_id, cid, top, path, size, written) -> list:
        shard = self.cluster.route(top)
        first = self._claim(top)
        self.cluster.account(shard, bytes_written=size)
        written.append(path)
        return [(shard, self._leg(op_id, cid, self._write_leg,
                                  first, top, shard, path, op_id, size))]

    def _write_leg(self, first, top, shard, path, key, size, fs) -> None:
        if first:
            self._ensure_dir(top, shard, fs)
        self._write(path, key, size, fs)

    def _resolve_read(self, op_id, cid, top, rank, index) -> list:
        shard = self.cluster.route(top)
        first = self._claim(top)
        path = "/%s/f%d" % (top, index)
        pieces = (self._seed_piece(rank, index),)
        return [(shard, self._leg(op_id, cid, self._read_leg,
                                  first, top, shard, path, pieces))]

    def _read_leg(self, first, top, shard, path, pieces, fs) -> None:
        if first:
            self._ensure_dir(top, shard, fs)
        self._read(path, pieces, fs)
        self.cluster.account(shard, bytes_read=pieces[0][1])

    def _resolve_rename(self, op_id, cid, dst_top, pick, written,
                        fallback) -> list:
        if not written:
            return fallback()
        cluster = self.cluster
        old = written.pop(int(pick * len(written)) % len(written))
        src_shard = cluster.route(old.split("/")[1])
        dst_shard = cluster.route(dst_top)
        new = "/%s/%s" % (dst_top, old.rsplit("/", 1)[1])
        legs = []
        if self._claim(dst_top):
            legs.append((dst_shard, self._leg(
                op_id, cid, self._ensure_dir, dst_top, dst_shard)))
        written.append(new)
        if src_shard is dst_shard:
            cluster.metrics.counter("cluster.rename.local").inc()
            legs.append((src_shard, self._leg(
                op_id, cid, self._rename_leg, old, new)))
            return legs
        for shard, fn in cluster.rename_legs(src_shard, old, dst_shard, new):
            legs.append((shard, self._leg(op_id, cid, fn)))
        return legs

    @staticmethod
    def _rename_leg(old: str, new: str, fs) -> None:
        fs.rename(old, new)

    def body(self) -> None:
        self.cluster.run_phase(self.assignments, "traffic")
        self.cluster.sync_concurrent()


WORKLOADS = {cls.name: cls for cls in (
    SmallFileCFFS, SmallFileFFS, PostmarkJournal, WebServeResilient,
    MultiClient8, ClusterZipf)}

__all__ = ["READ", "WRITE", "OTHER", "WORKLOADS", "Workload"]
