"""L001 — layering: the import/call DAG over repro subpackages.

The stack, bottom to top::

    disk  ->  blockdev  ->  cache  ->  vfs  ->  ffs  ->  core
                 |                                        |
                 +--- faults / engine / resilience        +--- fsck
                      (device wrappers)

Three load-bearing constraints, straight from the paper's correctness
argument (all metadata ordering guarantees are enforced at the buffer
cache, so nothing above it may talk to the device behind its back):

* ``vfs``/``core``/``ffs`` may not import ``repro.disk.*`` and may
  import ``repro.blockdev.device`` only for structural constants and
  type names (``BLOCK_SIZE``, ``BlockDevice``, ...) — never to do I/O;
* ``workloads`` drive the :class:`~repro.vfs.interface.FileSystem` API
  and may not reach below vfs;
* only ``faults`` and ``engine`` may wrap the device (retry proxies,
  queued scheduling).

``errors``, ``clock`` and ``obs`` are utility leaves: importable from
every layer, themselves importing nothing above the leaves (``obs``
may see ``clock`` and ``errors`` only — observability must not create
back-edges).

The rule also flags direct device-I/O *calls* (``...device.read_block``
and friends) in the file-system layers, which an import check alone
would miss when the device object arrives through the cache.

Mutation row (``tests/test_lint_mutations.py``): a block read from the
device behind the cache in ``BlockFileSystem._fetch_data_blocks``.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator

from repro.lint.core import Finding, LintModule, Rule, iter_imported_repro_modules

# Utility leaves importable from anywhere.  ``obs`` is the cross-layer
# observability seam: every layer may emit spans and counters through
# it, but it must stay a leaf itself (clock and errors only) or the
# tracing instrumentation would re-introduce the very cycles L001 bans.
UTILITY: FrozenSet[str] = frozenset({"errors", "clock", "obs"})

# Allowed repro subpackage dependencies (self and UTILITY are implicit).
LAYER_DAG: Dict[str, FrozenSet[str]] = {
    "obs": frozenset(),
    "disk": frozenset(),
    "blockdev": frozenset({"disk"}),
    "cache": frozenset({"blockdev"}),
    "journal": frozenset({"blockdev", "cache", "resilience"}),
    "vfs": frozenset({"cache"}),
    "ffs": frozenset({"cache", "journal", "vfs"}),
    "core": frozenset({"ffs", "cache", "journal", "vfs"}),
    "fsck": frozenset({"core", "ffs", "cache", "blockdev", "journal",
                       "resilience"}),
    "faults": frozenset(
        {"blockdev", "disk", "cache", "core", "ffs", "fsck", "journal",
         "vfs", "resilience"}
    ),
    "engine": frozenset(
        {"blockdev", "disk", "faults", "cache", "vfs", "workloads",
         "analysis", "resilience"}
    ),
    "resilience": frozenset({"blockdev", "disk"}),
    "workloads": frozenset({"vfs"}),
    "analysis": frozenset({"disk"}),
    "bench": frozenset(
        {
            "analysis", "blockdev", "cache", "cluster", "core", "disk",
            "engine", "faults", "ffs", "fsck", "journal", "resilience",
            "vfs", "workloads",
        }
    ),
    # cluster may import faults (the chaos harness injects per-shard
    # schedules) and resilience (per-shard health monitors), but the
    # edge is one-way: resilience stays cluster-free, so the health
    # machinery remains usable by a single stack.
    "cluster": frozenset(
        {
            "analysis", "blockdev", "cache", "core", "disk", "engine",
            "faults", "resilience", "vfs", "workloads",
        }
    ),
    "lint": frozenset(),
}

# Layers that must not perform device I/O (everything goes through the
# buffer cache) and must keep their hands off repro.disk entirely.
CACHE_ONLY: FrozenSet[str] = frozenset({"vfs", "core", "ffs", "workloads"})

# Names from repro.blockdev.device that describe the on-disk geometry or
# serve as type annotations; importing these does not constitute I/O.
STRUCTURAL_NAMES: FrozenSet[str] = frozenset(
    {"BLOCK_SIZE", "SECTOR_SIZE", "SECTORS_PER_BLOCK", "BlockDevice"}
)

# Device methods that move data or issue barriers.  ``peek_block`` is
# deliberately absent: it is the untimed superblock probe used by
# mount/fsck before any cache exists.
IO_METHODS: FrozenSet[str] = frozenset(
    {
        "read_block", "write_block", "read_batch", "write_batch",
        "read_extent", "write_extent", "flush",
    }
)


def _target_package(target: str) -> str:
    parts = target.split(".")
    return parts[1] if len(parts) >= 2 else ""


class LayeringRule(Rule):
    id = "L001"
    title = "layering: imports and device I/O must follow the layer DAG"
    rationale = (
        "metadata atomicity and ordering are enforced at the buffer "
        "cache; code that bypasses it silently loses those guarantees"
    )

    def check(self, mod: LintModule, context: object) -> Iterator[Finding]:
        pkg = mod.package
        if pkg == "" or pkg not in LAYER_DAG:
            # repro/cli.py, repro/__init__.py, repro/__main__.py are the
            # application shell: they assemble the whole stack.
            return
        allowed = LAYER_DAG[pkg]
        for node, target, names in iter_imported_repro_modules(mod.tree):
            tpkg = _target_package(target)
            if tpkg == "" or tpkg == pkg or tpkg in UTILITY:
                continue
            if tpkg in allowed:
                if pkg in CACHE_ONLY and tpkg == "blockdev":
                    yield from self._check_structural(mod, node, target, names)
                continue
            if pkg in CACHE_ONLY and tpkg == "blockdev":
                yield from self._check_structural(mod, node, target, names)
                continue
            yield self.found(
                mod,
                node,
                "%s imports %s: layer %r may only depend on %s"
                % (
                    mod.module,
                    target,
                    pkg,
                    ", ".join(sorted(allowed | UTILITY)) or "nothing",
                ),
            )
        if pkg in CACHE_ONLY:
            yield from self._check_device_calls(mod)

    def _check_structural(
        self, mod: LintModule, node: ast.AST, target: str, names
    ) -> Iterator[Finding]:
        """blockdev access from a cache-only layer: constants/types only."""
        if target not in ("repro.blockdev", "repro.blockdev.device"):
            yield self.found(
                mod,
                node,
                "%s imports %s: %r may see the device module only for "
                "structural names (%s)"
                % (mod.module, target, mod.package, ", ".join(sorted(STRUCTURAL_NAMES))),
            )
            return
        bad = [n for n in names if n not in STRUCTURAL_NAMES]
        if not names or bad:
            yield self.found(
                mod,
                node,
                "%s imports %s from %s: %r layers may import only "
                "structural names (%s) — all I/O goes through the buffer cache"
                % (
                    mod.module,
                    ", ".join(bad) if bad else "the whole module",
                    target,
                    mod.package,
                    ", ".join(sorted(STRUCTURAL_NAMES)),
                ),
            )

    def _check_device_calls(self, mod: LintModule) -> Iterator[Finding]:
        for node in ast.walk(mod.tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            if node.func.attr not in IO_METHODS:
                continue
            recv = node.func.value
            via_device_attr = isinstance(recv, ast.Attribute) and recv.attr == "device"
            via_device_name = isinstance(recv, ast.Name) and recv.id in ("device", "dev")
            if via_device_attr or via_device_name:
                yield self.found(
                    mod,
                    node,
                    "direct device I/O (.%s) in layer %r: all reads and "
                    "writes must go through the buffer cache"
                    % (node.func.attr, mod.package),
                )
