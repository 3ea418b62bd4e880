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
modules by the program model (``from repro.ffs.layout import
DIRENT_HEADER_FMT``, re-exported or renamed on the way), through string
concatenation, and through ``struct.Struct`` objects bound at the top
of any module: ``NAME.pack`` / ``NAME.pack_into`` arguments and
``NAME.unpack`` / ``NAME.unpack_from`` targets are counted wherever
``NAME`` is used, imported or reached through a module attribute.
Formats built with ``%`` keep their literal prefix, so endianness is
still checked even when the final width is dynamic.

Mutation rows (``tests/test_lint_mutations.py``): ``DIRENT_HEADER_FMT``
without its ``<`` (on a little-endian host the header keeps its size
and byte order, so nothing at run time notices), and a group slot
cleared through the imported ``GDESC_SLOT`` with one value.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Tuple

from repro.lint.core import Finding, LintModule, Rule, dotted_name
from repro.lint.program import Program

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


def resolve_expr(program: Program, module: str, node: ast.expr,
                 seen: Tuple[Tuple[str, str], ...] = ()
                 ) -> Optional[Tuple[str, bool]]:
    """The format string ``node`` evaluates to in ``module``, with
    ``exact`` False when only a literal prefix is known (formats built
    with ``%``): then arity cannot be checked but the byte-order marker
    still can.  Names are followed through ``program`` to the top-level
    value they stand for; None if that is no format."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value, True
    if isinstance(node, ast.Name):
        for thing in sorted(program.resolve(module, node.id)):
            if thing[0] == "value" and thing[1:] not in seen:
                return resolve_expr(program, thing[1],
                                    program.units[thing[1]].values[thing[2]],
                                    seen + ((thing[1], thing[2]),))
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        left = resolve_expr(program, module, node.left, seen)
        if left is None:
            return None
        right = resolve_expr(program, module, node.right, seen)
        if right is None or not left[1]:
            return left[0], False
        return left[0] + right[0], left[1] and right[1]
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
        left = resolve_expr(program, module, node.left, seen)
        if left is None:
            return None
        return left[0], False  # dynamic width; prefix known
    if isinstance(node, ast.Call):
        # NAME = struct.Struct(fmt): carry the format through.
        if dotted_name(node.func) == "struct.Struct" and node.args:
            return resolve_expr(program, module, node.args[0], seen)
    return None


class StructFormatRule(Rule):
    id = "F001"
    title = "on-disk format: struct formats need explicit endianness and matching arity"
    rationale = (
        "persisted structures must be host-independent and width-checked "
        "before a crash path exercises them"
    )

    def check(self, mod: LintModule, context: object) -> Iterator[Finding]:
        program: Program = context.program  # type: ignore[attr-defined]
        unit = program.units[mod.module]
        unpack_assigns = self._unpack_assignment_targets(mod)
        for _, _, _, node in unit.calls:
            name = dotted_name(node.func)
            kind = self._call_kind(program, mod.module, node, name)
            if kind is None:
                continue
            fmt_arg_index, is_pack, is_unpack, fmt_module, fmt_expr = kind
            fmt = resolve_expr(program, fmt_module, fmt_expr)
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

    @staticmethod
    def _call_kind(program, module, node, name):
        """(fmt_arg_index, is_pack, is_unpack, fmt_module, fmt_expr) or
        None; the format expression is resolved in ``fmt_module``."""
        if name in PACK_CALLS and len(node.args) > PACK_CALLS[name]:
            return PACK_CALLS[name] - 1 if name == "struct.pack" else 2, \
                True, False, module, node.args[0]
        if name in UNPACK_CALLS and node.args:
            return 0, False, True, module, node.args[0]
        if name in FMT_ONLY_CALLS and node.args:
            return 0, False, False, module, node.args[0]
        # struct.Struct instances bound at the top of any module of the
        # program, named here directly, imported or through a module:
        # NAME.pack(*values), NAME.pack_into(buffer, offset, *values),
        # NAME.unpack / NAME.unpack_from.  Methods take no format
        # argument, so a finding is reported against the constructor's.
        method = node.func.attr if isinstance(node.func, ast.Attribute) else None
        if method not in ("pack", "pack_into", "unpack", "unpack_from"):
            return None
        for thing in sorted(program.value(module, node.func.value)):
            if thing[0] != "value":
                continue
            const = program.units[thing[1]].values[thing[2]]
            if (isinstance(const, ast.Call)
                    and dotted_name(const.func) == "struct.Struct"
                    and const.args):
                if method.startswith("pack"):
                    return (-1 if method == "pack" else 1), True, False, \
                        thing[1], const.args[0]
                return -1, False, True, thing[1], const.args[0]
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
