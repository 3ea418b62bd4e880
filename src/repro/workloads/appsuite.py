"""Software-development application workloads (§4.4).

The paper reports 10-300% improvements on software-development
applications.  We synthesize a source tree whose file sizes follow the
survey distribution, then run four application-shaped passes over it
through the file system API:

- **copy**    — read every file of the tree and write a parallel tree
  (cp -r / checkout-shaped: small-file reads + creates);
- **scan**    — read every file, walk every directory (grep/diff-shaped:
  pure small-file read traffic);
- **compile** — read each source file plus a stable set of shared
  headers, write one object file (~1.5× source size) per source
  (make-shaped: mixed read/write with hot shared inputs);
- **clean**   — delete all derived objects (rm-shaped: metadata-heavy).

Every pass starts cold (sync + drop caches) and ends with a full
write-back, matching the measurement discipline used elsewhere.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.vfs.interface import FileSystem
from repro.workloads.measure import Measured, window
from repro.workloads.sizes import sample_file_size

PASSES = ("copy", "scan", "compile", "clean")


@dataclass
class SourceTree:
    """The generated tree: directory paths and (file path, size) pairs."""

    root: str
    directories: List[str]
    files: List[Tuple[str, int]]
    headers: List[str]

    @property
    def total_bytes(self) -> int:
        return sum(size for _, size in self.files)


def build_source_tree(
    fs: FileSystem,
    n_dirs: int = 12,
    files_per_dir: int = 40,
    n_headers: int = 12,
    max_file_bytes: int = 256 << 10,
) -> SourceTree:
    """Create a synthetic project tree under ``/src`` on ``fs``."""
    rng = random.Random(1234)
    root = "/src"
    fs.mkdir(root)
    directories = []
    files: List[Tuple[str, int]] = []
    headers: List[str] = []

    include = "%s/include" % root
    fs.mkdir(include)
    directories.append(include)
    for h in range(n_headers):
        size = min(sample_file_size(rng), 32 << 10)
        path = "%s/h%03d.h" % (include, h)
        fs.write_file(path, b"h" * size)
        headers.append(path)
        files.append((path, size))

    for d in range(n_dirs):
        dpath = "%s/mod%02d" % (root, d)
        fs.mkdir(dpath)
        directories.append(dpath)
        for f in range(files_per_dir):
            size = min(sample_file_size(rng), max_file_bytes)
            path = "%s/s%04d.c" % (dpath, f)
            fs.write_file(path, b"c" * size)
            files.append((path, size))
    fs.sync()
    return SourceTree(root=root, directories=directories, files=files, headers=headers)


@dataclass
class AppResult:
    """One window per pass for one configuration."""

    label: str
    passes: Dict[str, Measured] = field(default_factory=dict)

    @property
    def seconds(self) -> Dict[str, float]:
        return {name: m.seconds for name, m in self.passes.items()}

    @property
    def requests(self) -> Dict[str, int]:
        return {name: m.disk_requests for name, m in self.passes.items()}


def run_app_suite(fs: FileSystem, tree: SourceTree, label: str = "") -> AppResult:
    """Run the four passes over an existing tree."""
    result = AppResult(label=label or fs.name)

    def timed(name: str, body) -> None:
        fs.sync()
        fs.drop_caches()
        with window(fs) as measured:
            body()
            fs.sync()
        result.passes[name] = measured

    def do_copy() -> None:
        dst_root = tree.root + "-copy"
        if fs.exists(dst_root):
            _remove_tree(fs, dst_root)
        fs.mkdir(dst_root)
        for d in tree.directories:
            fs.mkdir(dst_root + d[len(tree.root):])
        for path, _size in tree.files:
            data = fs.read_file(path)
            fs.write_file(dst_root + path[len(tree.root):], data)

    def do_scan() -> None:
        for d in [tree.root] + tree.directories:
            fs.readdir(d)
        for path, _size in tree.files:
            fs.read_file(path)

    def do_compile() -> None:
        for path, size in tree.files:
            if not path.endswith(".c"):
                continue
            src = fs.read_file(path)
            for h in tree.headers:
                fs.read_file(h)  # hot after the first source file
            obj = path[:-2] + ".o"
            fs.write_file(obj, b"o" * max(512, int(len(src) * 1.5)))

    def do_clean() -> None:
        for path, _size in tree.files:
            if path.endswith(".c"):
                obj = path[:-2] + ".o"
                if fs.exists(obj):
                    fs.unlink(obj)

    bodies = {"copy": do_copy, "scan": do_scan, "compile": do_compile, "clean": do_clean}
    for name in PASSES:
        timed(name, bodies[name])
    return result


def _remove_tree(fs: FileSystem, root: str) -> None:
    for name in fs.readdir(root):
        path = "%s/%s" % (root, name)
        if fs.stat(path).is_dir:
            _remove_tree(fs, path)
        else:
            fs.unlink(path)
    fs.rmdir(root)
