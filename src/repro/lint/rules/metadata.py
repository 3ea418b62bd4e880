"""M001 — derived-metadata discipline: who may touch allocation state.

Free-block/free-inode counts, allocation bitmaps, and group descriptors
are *derived* metadata: fsck recomputes them from the inodes.  They stay
trustworthy only because exactly one layer mutates them — the allocator
(``repro.ffs.alloc`` / ``repro.ffs.cylgroup`` for bitmaps and counts,
``repro.core.groups`` for extent descriptors) and the offline checker.
A stray ``sb["free_blocks"] -= 1`` anywhere else drifts the counts away
from the bitmap and turns every fsck run red.

The rule flags, outside the allowed modules:

* stores to attributes or string-keyed subscripts named
  ``free_blocks``/``free_inodes`` (plain or augmented assignment);
* calls to the bitmap primitives ``set_bit``/``clear_bit``/``clear_run``;
* calls to ``write_desc``, the whole-descriptor write of
  ``repro.core.groups.GroupTable``.
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Iterator

from repro.lint.core import Finding, LintModule, Rule, literal_str_keys

WATCHED_NAMES: FrozenSet[str] = frozenset({"free_blocks", "free_inodes"})
#: Watched call -> what it mutates.
WATCHED_CALLS = {
    "set_bit": "an allocation bitmap",
    "clear_bit": "an allocation bitmap",
    "clear_run": "an allocation bitmap",
    "write_desc": "an extent descriptor",
}

ALLOWED_MODULES: FrozenSet[str] = frozenset(
    {"repro.ffs.alloc", "repro.ffs.cylgroup", "repro.core.groups"}
)
ALLOWED_PREFIXES = ("repro.fsck.",)


def _module_allowed(module: str) -> bool:
    return module in ALLOWED_MODULES or module.startswith(ALLOWED_PREFIXES)


class DerivedMetadataRule(Rule):
    id = "M001"
    title = "derived metadata: only alloc/fsck modules mutate bitmaps and free counts"
    rationale = (
        "free counts and bitmaps are recomputable state; scattering their "
        "mutation sites makes count drift undetectable until fsck"
    )

    def check(self, mod: LintModule, context: object) -> Iterator[Finding]:
        if _module_allowed(mod.module):
            return
        for node in ast.walk(mod.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    name = self._watched_store(target)
                    if name is not None:
                        yield self.found(
                            mod,
                            node,
                            "mutation of derived metadata %r outside the "
                            "allocator/fsck layers; free counts are owned by "
                            "repro.ffs.alloc (see GroupedAllocator counts=...)"
                            % name,
                        )
            elif isinstance(node, ast.Call):
                callee = node.func
                attr = (
                    callee.id
                    if isinstance(callee, ast.Name)
                    else callee.attr if isinstance(callee, ast.Attribute) else ""
                )
                if attr in WATCHED_CALLS:
                    yield self.found(
                        mod,
                        node,
                        "%s() mutates %s outside the "
                        "allocator/fsck layers" % (attr, WATCHED_CALLS[attr]),
                    )

    @staticmethod
    def _watched_store(target: ast.expr) -> "str | None":
        if isinstance(target, ast.Attribute) and target.attr in WATCHED_NAMES:
            return target.attr
        if isinstance(target, ast.Subscript):
            key = literal_str_keys(target.slice)
            if key in WATCHED_NAMES:
                return key
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                name = DerivedMetadataRule._watched_store(elt)
                if name is not None:
                    return name
        return None
