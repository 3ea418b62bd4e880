"""F001 — on-disk format: struct format strings are cross-checked.

Every persisted structure in the repo (superblocks, inodes, dirents,
group descriptors, image containers) is a ``struct`` format string.
Two classes of latent corruption hide there:

* a format without an explicit ``<``/``>`` byte-order marker silently
  becomes *host*-endian (with native alignment padding!), so images
  written on one machine fail the magic check on another;
* a width/argument mismatch between a format and its pack/unpack site
  only explodes at runtime — on exactly the code path fsck repair or a
  crash-recovery sweep happens to exercise.

The rule resolves format strings through module-level constants, across
modules (``from repro.ffs.layout import DIRENT_HEADER_FMT``), through
string concatenation, and through ``struct.Struct`` objects bound at
module level.  Formats built with ``%`` keep their literal prefix, so
endianness is still checked even when the final width is dynamic.

Mutation row (``tests/test_lint_mutations.py``): ``DIRENT_HEADER_FMT``
without its ``<``.  On a little-endian host the header keeps its size
and byte order, so nothing at run time notices.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Tuple

from repro.lint.core import Finding, LintModule, Rule, dotted_name

# (value-consuming?) struct codes; 's'/'p' consume one value per group.
_CODES = "xcbB?hHiIlLqQnNefdspP"

PACK_CALLS = {"struct.pack": 1, "struct.pack_into": 3}
UNPACK_CALLS = {"struct.unpack": 1, "struct.unpack_from": 1}
FMT_ONLY_CALLS = {"struct.calcsize", "struct.Struct", "struct.iter_unpack"}


def count_format_values(fmt: str) -> Optional[int]:
    """Number of values a format consumes/produces; None if malformed."""
    i, n = 0, len(fmt)
    if i < n and fmt[i] in "@=<>!":
        i += 1
    total = 0
    while i < n:
        ch = fmt[i]
        if ch.isspace():
            i += 1
            continue
        repeat = 0
        have_digits = False
        while i < n and fmt[i].isdigit():
            repeat = repeat * 10 + int(fmt[i])
            have_digits = True
            i += 1
        if i >= n:
            return None  # trailing count with no code
        code = fmt[i]
        i += 1
        if code not in _CODES:
            return None
        if code == "x":
            continue
        if code in "sp":
            total += 1
        else:
            total += repeat if have_digits else 1
    return total


class _ConstResolver:
    """Resolve names to format strings across the linted module set.

    ``exact`` is False when only a literal prefix is known (formats
    built with ``%``), in which case arity cannot be checked but the
    byte-order marker still can.
    """

    def __init__(self, modules: Dict[str, LintModule]) -> None:
        self.modules = modules
        self.raw: Dict[Tuple[str, str], ast.expr] = {}
        self.cache: Dict[Tuple[str, str], Optional[Tuple[str, bool]]] = {}
        for mod in modules.values():
            body = getattr(mod.tree, "body", [])
            for stmt in body:
                if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                    target = stmt.targets[0]
                    if isinstance(target, ast.Name):
                        self.raw[(mod.module, target.id)] = stmt.value

    def resolve_name(self, module: str, name: str) -> Optional[Tuple[str, bool]]:
        key = (module, name)
        if key in self.cache:
            return self.cache[key]
        self.cache[key] = None  # cycle guard
        value: Optional[Tuple[str, bool]] = None
        if key in self.raw:
            value = self.resolve_expr(module, self.raw[key])
        else:
            mod = self.modules.get(module)
            if mod is not None and name in mod.import_map:
                value = self.resolve_name(mod.import_map[name], name)
        self.cache[key] = value
        return value

    def resolve_expr(self, module: str, node: ast.expr) -> Optional[Tuple[str, bool]]:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value, True
        if isinstance(node, ast.Name):
            return self.resolve_name(module, node.id)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            left = self.resolve_expr(module, node.left)
            if left is None:
                return None
            right = self.resolve_expr(module, node.right)
            if right is None or not left[1]:
                return left[0], False
            return left[0] + right[0], left[1] and right[1]
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
            left = self.resolve_expr(module, node.left)
            if left is None:
                return None
            return left[0], False  # dynamic width; prefix known
        if isinstance(node, ast.Call):
            # NAME = struct.Struct(fmt): carry the format through.
            if dotted_name(node.func) == "struct.Struct" and node.args:
                return self.resolve_expr(module, node.args[0])
        return None


class StructFormatRule(Rule):
    id = "F001"
    title = "on-disk format: struct formats need explicit endianness and matching arity"
    rationale = (
        "persisted structures must be host-independent and width-checked "
        "before a crash path exercises them"
    )

    def check(self, mod: LintModule, context: object) -> Iterator[Finding]:
        resolver: _ConstResolver = context.struct_resolver  # type: ignore[attr-defined]
        unpack_assigns = self._unpack_assignment_targets(mod)
        for node in ast.walk(mod.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            kind = self._call_kind(mod, resolver, node, name)
            if kind is None:
                continue
            fmt_arg_index, is_pack, is_unpack, fmt_expr = kind
            fmt = resolver.resolve_expr(mod.module, fmt_expr)
            if fmt is None:
                continue
            text, exact = fmt
            stripped = text.lstrip()
            if not stripped or stripped[0] not in "<>!":
                yield self.found(
                    mod,
                    node,
                    "struct format %r has no explicit byte-order marker "
                    "(< or >): native order and alignment are "
                    "host-dependent" % (text if len(text) <= 24 else text[:24] + "..."),
                )
                continue
            if not exact:
                continue
            nvalues = count_format_values(text)
            if nvalues is None:
                yield self.found(
                    mod, node, "struct format %r is malformed" % text
                )
                continue
            if is_pack:
                args = node.args[fmt_arg_index + 1:]
                if any(isinstance(a, ast.Starred) for a in args):
                    continue
                if len(args) != nvalues:
                    yield self.found(
                        mod,
                        node,
                        "struct format %r consumes %d value(s) but the call "
                        "passes %d" % (text, nvalues, len(args)),
                    )
            elif is_unpack:
                ntargets = unpack_assigns.get(id(node))
                if ntargets is not None and ntargets != nvalues:
                    yield self.found(
                        mod,
                        node,
                        "struct format %r produces %d value(s) but the "
                        "assignment unpacks %d" % (text, nvalues, ntargets),
                    )

    def _call_kind(self, mod, resolver, node, name):
        """(fmt_arg_index, is_pack, is_unpack, fmt_expr) or None."""
        if name in PACK_CALLS and len(node.args) > PACK_CALLS[name]:
            return PACK_CALLS[name] - 1 if name == "struct.pack" else 2, \
                True, False, node.args[0]
        if name in UNPACK_CALLS and node.args:
            return 0, False, True, node.args[0]
        if name in FMT_ONLY_CALLS and node.args:
            return 0, False, False, node.args[0]
        # Module-level struct.Struct instances: NAME.pack / NAME.unpack.
        if (
            isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.attr in ("pack", "unpack", "pack_into", "unpack_from")
        ):
            const = resolver.raw.get((mod.module, node.func.value.id))
            if (
                isinstance(const, ast.Call)
                and dotted_name(const.func) == "struct.Struct"
                and const.args
            ):
                is_pack = node.func.attr.startswith("pack")
                # Methods take no fmt argument; report against the
                # constructor's format expression.
                if is_pack and node.func.attr == "pack":
                    return -1, True, False, const.args[0]
                if node.func.attr in ("unpack", "unpack_from"):
                    return -1, False, True, const.args[0]
        return None

    @staticmethod
    def _unpack_assignment_targets(mod: LintModule) -> Dict[int, int]:
        """Map id(call-node) -> number of tuple-assignment targets."""
        out: Dict[int, int] = {}
        for node in ast.walk(mod.tree):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if not isinstance(target, (ast.Tuple, ast.List)):
                continue
            if any(isinstance(e, ast.Starred) for e in target.elts):
                continue
            if isinstance(node.value, ast.Call):
                out[id(node.value)] = len(target.elts)
        return out
