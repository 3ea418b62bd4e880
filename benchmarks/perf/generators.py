"""Seeded input generators: the benchmark's ``workloads`` layer.

Every generator takes the run's ``--seed`` and returns plain data
(paths, sizes, orders, content keys).  The program under test receives
only that data — never the seed, never an RNG — so two runs with one
seed drive byte-identical work and a different seed drives different
but statistically equal work.

File contents come from :class:`Payloads`: one random pad per run, and
each piece of content is the slice of it that an integer *key* selects.
That gives every file distinct bytes to verify reads against without
holding tens of megabytes of expected data in the benchmark's own
memory (which would otherwise dominate ``host_peak_rss_mb``).
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Tuple

PAD_SPAN = 1 << 16

#: (content key, byte count): one contiguous piece of a file's content.
Piece = Tuple[int, int]


class Payloads:
    """File contents cut from one seeded random pad."""

    def __init__(self, rng: random.Random, max_size: int) -> None:
        self._pad = rng.randbytes(PAD_SPAN + max_size)

    def cut(self, key: int, size: int) -> bytes:
        # 40503 is odd, so keys map onto pad offsets as a permutation.
        off = (key * 40503) % PAD_SPAN
        return self._pad[off:off + size]

    def join(self, pieces) -> bytes:
        return b"".join([self.cut(key, size) for key, size in pieces])


def client_rng(seed: int, cid: int) -> random.Random:
    """The per-client RNG every multi-client generator derives."""
    return random.Random(seed * 1000003 + cid)


def jittered(rng: random.Random, nominal: int) -> int:
    """A file size in the top eighth of ``nominal``.

    Fixed-size files would make most simulated latencies one constant
    (syscall + copy cost), identical for every seed.  Drawing each size
    from (7/8 nominal, nominal] keeps the block count of a nominal-size
    file while letting the seed reach every simulated metric.
    """
    return rng.randint(nominal - nominal // 8 + 1, nominal)


# -- smallfile (paper section 4.2) ------------------------------------------------

SMALLFILE_PHASES = ("create", "read", "overwrite", "delete")
SMALLFILE_DIRS = 10
#: Nominal size of a small file (see jittered()); multiclient-8 uses
#: the same files.
SMALLFILE_SIZE = 4096


@dataclass
class SmallFileInputs:
    dirs: List[str]
    paths: List[str]
    sizes: List[int]
    payloads: Payloads


def smallfile_inputs(seed: int, n_files: int) -> SmallFileInputs:
    """N one-block files; the seed picks each file's directory and size.

    Files are touched in creation order in every phase (the paper's
    discipline); what the seed varies is how creation order interleaves
    the directories, which is what concurrent activity would vary.
    """
    rng = random.Random(seed)
    payloads = Payloads(rng, SMALLFILE_SIZE)
    dirs = ["/bench/d%03d" % d for d in range(SMALLFILE_DIRS)]
    paths = ["%s/f%06d" % (rng.choice(dirs), i) for i in range(n_files)]
    sizes = [jittered(rng, SMALLFILE_SIZE) for _ in range(n_files)]
    return SmallFileInputs(dirs, paths, sizes, payloads)


# -- PostMark churn ---------------------------------------------------------------

POSTMARK_DIRS = 10
#: Size range of a created file, and of one append.
POSTMARK_FILE_SIZES = (512, 16384)
POSTMARK_APPEND_SIZES = (256, 4096)
#: The workload syncs after every run of this many transactions.
POSTMARK_SYNC_EVERY = 1000

@dataclass
class PostmarkInputs:
    dirs: List[str]
    #: ("create", path, piece) for the initial pool.
    pool_ops: List[tuple]
    #: Runs of ("read", path, pieces) | ("append", path, piece) |
    #: ("create", path, piece) | ("delete", path, None); the workload
    #: syncs after each run, as a periodic update daemon would.
    transactions: List[List[tuple]]
    #: Paths alive after the last transaction, in pool order.
    survivors: List[str]
    payloads: Payloads
    #: path -> pieces, as of the sync before the last run of
    #: transactions / as of the end of the last run.
    before_last_run: Dict[str, Tuple[Piece, ...]]
    after_last_run: Dict[str, Tuple[Piece, ...]]


def postmark_inputs(seed: int, n_files: int,
                    n_transactions: int) -> PostmarkInputs:
    """A PostMark stream: pool creation, then an even four-way mix of
    read / append / create / delete over the live pool, in runs of
    ``POSTMARK_SYNC_EVERY`` transactions."""
    rng = random.Random(seed)
    payloads = Payloads(rng, POSTMARK_FILE_SIZES[1])
    dirs = ["/postmark/d%03d" % d for d in range(POSTMARK_DIRS)]
    content: Dict[str, List[Piece]] = {}
    pool: List[str] = []
    serial = 0

    def new_file() -> tuple:
        nonlocal serial
        path = "%s/p%06d" % (rng.choice(dirs), serial)
        piece = (serial, rng.randint(*POSTMARK_FILE_SIZES))
        serial += 1
        content[path] = [piece]
        pool.append(path)
        return ("create", path, piece)

    def snapshot() -> Dict[str, Tuple[Piece, ...]]:
        return {path: tuple(pieces) for path, pieces in content.items()}

    pool_ops = [new_file() for _ in range(n_files)]
    runs: List[List[tuple]] = []
    before_last_run = snapshot()
    for done in range(n_transactions):
        if done % POSTMARK_SYNC_EVERY == 0:
            before_last_run = snapshot()
            runs.append([])
        transactions = runs[-1]
        roll = rng.random()
        if roll < 0.25 and pool:
            victim = rng.choice(pool)
            transactions.append(("read", victim, tuple(content[victim])))
        elif roll < 0.5 and pool:
            victim = rng.choice(pool)
            piece = (serial, rng.randint(*POSTMARK_APPEND_SIZES))
            serial += 1
            content[victim].append(piece)
            transactions.append(("append", victim, piece))
        elif roll < 0.75 or not pool:
            transactions.append(new_file())
        else:
            victim = pool.pop(rng.randrange(len(pool)))
            del content[victim]
            transactions.append(("delete", victim, None))
    return PostmarkInputs(
        dirs=dirs, pool_ops=pool_ops, transactions=runs,
        survivors=list(pool), payloads=payloads,
        before_last_run=before_last_run, after_last_run=snapshot())


# -- hypertext site ---------------------------------------------------------------

SITE_DIRS = ("/pages", "/images", "/styles")
#: Every document is served this many times, once per shuffled pass.
SITE_PASSES = 2


@dataclass
class SiteInputs:
    #: Per document: [(path, content key, size), ...], page first.
    documents: List[List[Tuple[str, int, int]]]
    #: Every file of every document of pass 1, then of pass 2.
    serve_order: List[Tuple[str, int, int]]
    payloads: Payloads

    @property
    def files(self) -> List[Tuple[str, int, int]]:
        return [f for doc in self.documents for f in doc]


def site_inputs(seed: int, n_documents: int) -> SiteInputs:
    """A type-directory web site (page + 3..6 assets per document) and
    a serve order: every document once per pass, each pass shuffled."""
    rng = random.Random(seed)
    payloads = Payloads(rng, 12288)
    documents: List[List[Tuple[str, int, int]]] = []
    key = 0
    for n in range(n_documents):
        name = "doc%04d" % n
        files = [("/pages/%s.html" % name, key, rng.randrange(2048, 8192))]
        key += 1
        for a in range(rng.randrange(3, 7)):
            kind = rng.choice(("/images/%s-a%d.gif", "/styles/%s-a%d.css"))
            files.append((kind % (name, a), key, rng.randrange(1024, 12288)))
            key += 1
        documents.append(files)
    serve_order: List[Tuple[str, int, int]] = []
    for _ in range(SITE_PASSES):
        order = list(documents)
        rng.shuffle(order)
        for doc in order:
            serve_order.extend(doc)
    return SiteInputs(documents, serve_order, payloads)


# -- multi-client smallfile -------------------------------------------------------


@dataclass
class MultiClientInputs:
    dirs: List[str]
    #: Per client, per phase: [(content key, path, size), ...] in touch
    #: order.
    orders: List[Dict[str, List[Tuple[int, str, int]]]]
    payloads: Payloads


def multiclient_inputs(seed: int, n_clients: int,
                       files_per_client: int) -> MultiClientInputs:
    """Each client runs the smallfile phases in its own directory.

    Creation is in index order; each later phase walks the same list
    from a per-client seeded starting point (wrapping), so sequential
    locality is kept while the clients' interleaving varies with the
    seed.
    """
    payloads = Payloads(random.Random(seed), SMALLFILE_SIZE)
    dirs = ["/mc/c%02d" % c for c in range(n_clients)]
    orders = []
    for cid in range(n_clients):
        rng = client_rng(seed, cid)
        files = [(cid * files_per_client + i, "%s/f%06d" % (dirs[cid], i),
                  jittered(rng, SMALLFILE_SIZE))
                 for i in range(files_per_client)]
        per_phase = {"create": files}
        for phase in SMALLFILE_PHASES[1:]:
            start = rng.randrange(files_per_client)
            per_phase[phase] = files[start:] + files[:start]
        orders.append(per_phase)
    return MultiClientInputs(dirs, orders, payloads)


# -- Zipfian cluster traffic ------------------------------------------------------

# The defaults of repro.cluster.traffic.TrafficConfig.
CLUSTER_DIRS = 96
ZIPF_THETA = 0.9
READ_FRACTION = 0.55
RENAME_FRACTION = 0.02
#: Nominal size of a written or seed file (see jittered()).
CLUSTER_FILE_SIZE = 16384
#: Files every directory holds from its first touch, for reads to hit.
SEED_FILES = 2

@dataclass
class ClusterInputs:
    #: Per client: [(kind, directory rank, extra), ...] where kind is
    #: "read" (extra = seed-file index), "write" (extra = size) or
    #: "rename" (extra = (destination rank, pick fraction, size of the
    #: write it falls back to with nothing to rename)).
    scripts: List[List[tuple]]
    #: Per directory rank: the sizes of its seed files.
    seed_sizes: List[List[int]]
    payloads: Payloads


def cluster_inputs(seed: int, n_clients: int,
                   ops_per_client: int) -> ClusterInputs:
    """Many short-lived clients over Zipf-popular top-level directories."""
    cdf: List[float] = []
    total = 0.0
    for rank in range(CLUSTER_DIRS):
        total += 1.0 / (rank + 1) ** ZIPF_THETA
        cdf.append(total)

    def sample(rng: random.Random) -> int:
        return bisect_left(cdf, rng.random() * total)

    scripts: List[List[tuple]] = []
    for cid in range(n_clients):
        rng = client_rng(seed, cid)
        ops: List[tuple] = []
        for _ in range(ops_per_client):
            rank = sample(rng)
            roll = rng.random()
            size = jittered(rng, CLUSTER_FILE_SIZE)
            if roll < RENAME_FRACTION:
                ops.append(("rename", rank,
                            (sample(rng), rng.random(), size)))
            elif roll < RENAME_FRACTION + READ_FRACTION:
                ops.append(("read", rank, rng.randrange(SEED_FILES)))
            else:
                ops.append(("write", rank, size))
        scripts.append(ops)
    rng = random.Random(seed)
    payloads = Payloads(rng, CLUSTER_FILE_SIZE)
    seed_sizes = [[jittered(rng, CLUSTER_FILE_SIZE)
                   for _ in range(SEED_FILES)]
                  for _ in range(CLUSTER_DIRS)]
    return ClusterInputs(scripts, seed_sizes, payloads)
