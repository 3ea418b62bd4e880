"""Hypertext-document workload (paper §6 / [Kaashoek96]).

A web server stores each document as one HTML page plus several assets,
but Unix convention scatters those files across type-based directories
(``/pages``, ``/images``, ``/styles``).  Name-space grouping co-locates
files per *directory*, which is the wrong unit here; the paper proposes
passing application hints so files of one *document* group together.

This workload builds such a site — optionally inside per-document
:meth:`repro.core.filesystem.CFFS.group_context` hints — and then
"serves" documents: for each request, read the page and every asset it
references, cold.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Sequence

from repro.vfs.interface import FileSystem
from repro.workloads.measure import Measured, Op, run_script
from repro.workloads.trace import Operation

DIRECTORIES = ("/pages", "/images", "/styles")


@dataclass
class Document:
    """One hypertext document: its page plus asset paths."""

    name: str
    paths: List[str]
    total_bytes: int


@dataclass
class ServeResult:
    """Cost of serving every document once, cold: one window each."""

    label: str
    served: List[Measured]

    @property
    def documents(self) -> int:
        return len(self.served)

    @property
    def seconds(self) -> float:
        return sum(m.seconds for m in self.served)

    @property
    def disk_requests(self) -> int:
        return sum(m.disk_requests for m in self.served)

    @property
    def documents_per_second(self) -> float:
        return self.documents / self.seconds if self.seconds > 0 else float("inf")

    @property
    def requests_per_document(self) -> float:
        return self.disk_requests / self.documents if self.documents else 0.0


def build_site(
    fs: FileSystem,
    n_documents: int = 60,
    use_hints: bool = False,
    seed: int = 77,
    root: str = "",
) -> List[Document]:
    """Create the site under ``root`` (one per client when several
    share a volume); with ``use_hints`` each document is written inside
    its own group context (C-FFS only)."""
    rng = random.Random(seed)
    for d in DIRECTORIES:
        if not fs.exists(root + d):
            fs.mkdir(root + d)
    documents: List[Document] = []
    for n in range(n_documents):
        name = "doc%04d" % n
        paths: List[str] = []
        page = "%s/pages/%s.html" % (root, name)
        page_bytes = rng.randrange(2048, 8192)
        files = [(page, page_bytes)]
        for a in range(rng.randrange(3, 7)):
            kind = rng.choice(("/images/%s-a%d.gif", "/styles/%s-a%d.css"))
            files.append((root + kind % (name, a), rng.randrange(1024, 12288)))

        def write_all() -> None:
            for path, size in files:
                fs.write_file(path, b"w" * size)
                paths.append(path)

        if use_hints:
            with fs.group_context("doc:" + name):  # type: ignore[attr-defined]
                write_all()
        else:
            write_all()
        documents.append(Document(
            name=name, paths=paths, total_bytes=sum(s for _, s in files),
        ))
    fs.sync()
    return documents


def serve_ops(documents: Sequence[Document], order_seed: int = 5) -> List[Op]:
    """Serve each document once (page plus assets), in shuffled order."""
    order = list(documents)
    random.Random(order_seed).shuffle(order)
    return [("serve", Operation("read_file", tuple(doc.paths)))
            for doc in order]


def _evict_data(fs: FileSystem, documents: Sequence[Document]) -> None:
    for doc in documents:
        for path in doc.paths:
            fs.evict_file_data(path)


def serve_documents(
    fs: FileSystem,
    documents: Sequence[Document],
    label: str = "",
    order_seed: int = 5,
) -> ServeResult:
    """Time :func:`serve_ops`, every document cold.

    Every file's *data* is evicted between documents while metadata
    (directories, inodes) stays warm — a busy server whose data cache
    has turned over between two requests for related files, which is
    the situation the hint interface targets: the only co-location that
    helps is the one on disk.
    """
    fs.sync()
    _evict_data(fs, documents)
    served: List[Measured] = []
    for op in serve_ops(documents, order_seed):
        served.append(run_script(fs, [op]))
        # Full data-cache turnover: group reads install sibling blocks,
        # so every document's data must go, not just the served one's.
        _evict_data(fs, documents)
    return ServeResult(label or fs.name, served)
