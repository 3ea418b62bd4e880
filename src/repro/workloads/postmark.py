"""A PostMark-style transaction benchmark.

PostMark (Katcher, 1997 — the same year as the paper) models a busy
mail/news/web server: a pool of small files under constant churn.
Three phases:

1. **create pool** — N files with sizes uniform in
   [:data:`MIN_SIZE`, :data:`MAX_SIZE`], scattered over subdirectories;
2. **transactions** — T operations, each randomly a read, an append,
   a create, or a delete of a pool file (even odds at each choice);
3. **delete pool** — remove whatever remains.

It complements the LFS small-file benchmark: operations are *mixed and
interleaved* rather than phase-separated, so it exercises exactly the
steady-state churn the paper's techniques target (and that explicit
groups must survive: holes appear and refill continuously).
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.vfs.interface import FileSystem
from repro.workloads.measure import Measured, Op, run_script
from repro.workloads.trace import Operation

#: Pool file sizes, bytes (uniform).
MIN_SIZE = 512
MAX_SIZE = 16384
#: Data vs pool transactions, read vs append within "data", create vs
#: delete within "pool".
DATA_FRACTION = 0.5
READ_BIAS = 0.5
CREATE_BIAS = 0.5


@dataclass
class PostmarkConfig:
    """Workload parameters (defaults scaled for simulation speed)."""

    n_files: int = 1000
    n_transactions: int = 2000
    n_dirs: int = 10
    seed: int = 1997


@dataclass
class PostmarkResult:
    """Transaction counts and the three phases' windows for one run."""

    label: str
    reads: int
    appends: int
    creates: int
    deletes: int
    phases: Dict[str, Measured]   # create, transactions, delete

    @property
    def transaction_seconds(self) -> float:
        return self.phases["transactions"].seconds

    @property
    def transactions_per_second(self) -> float:
        total = self.reads + self.appends + self.creates + self.deletes
        if self.transaction_seconds <= 0:
            return float("inf")
        return total / self.transaction_seconds

    @property
    def total_seconds(self) -> float:
        return sum(m.seconds for m in self.phases.values())

    @property
    def disk_requests(self) -> int:
        return sum(m.disk_requests for m in self.phases.values())


def postmark_script(cfg: PostmarkConfig,
                    dirs: Sequence[str]) -> Dict[str, List[Op]]:
    """The three phases as scripts: ``create``, ``transactions``, ``delete``.

    Every directory, size, victim and transaction kind is drawn here
    from ``cfg.seed``; none depends on what the file system answers, so
    the stream is the same however it is later timed or interleaved.
    """
    rng = random.Random(cfg.seed)
    pool: List[str] = []
    serial = itertools.count()

    def create() -> Op:
        path = "%s/p%06d" % (rng.choice(dirs), next(serial))
        size = rng.randint(MIN_SIZE, MAX_SIZE)
        pool.append(path)
        return ("create", Operation("write_file", (path,), size=size,
                                    fill=ord("p")))

    def delete(path: str) -> Op:
        return ("delete", Operation("unlink", (path,)))

    creates = [create() for _ in range(cfg.n_files)]
    transactions: List[Op] = []
    for _ in range(cfg.n_transactions):
        if rng.random() < DATA_FRACTION and pool:
            victim = rng.choice(pool)
            if rng.random() < READ_BIAS:
                transactions.append(
                    ("read", Operation("read_file", (victim,))))
            else:
                transactions.append(("append", Operation(
                    "append", (victim,), size=rng.randint(256, 4096),
                    fill=ord("a"))))
        elif rng.random() < CREATE_BIAS or not pool:
            transactions.append(create())
        else:
            transactions.append(delete(pool.pop(rng.randrange(len(pool)))))
    return {"create": creates, "transactions": transactions,
            "delete": [delete(path) for path in pool]}


def run_postmark(
    fs: FileSystem,
    config: Optional[PostmarkConfig] = None,
    label: str = "",
) -> PostmarkResult:
    """Time the script's three phases; returns simulated seconds."""
    cfg = config if config is not None else PostmarkConfig()
    dirs = ["/postmark/d%03d" % d for d in range(cfg.n_dirs)]
    script = postmark_script(cfg, dirs)

    fs.mkdir("/postmark")
    for d in dirs:
        fs.mkdir(d)

    kinds = Counter(kind for kind, _op in script["transactions"])
    phases = {phase: run_script(fs, ops, sync=True)
              for phase, ops in script.items()}
    return PostmarkResult(label or fs.name, kinds["read"], kinds["append"],
                          kinds["create"], kinds["delete"], phases)
