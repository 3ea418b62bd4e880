"""Core types for reprolint: findings, modules, rules, suppressions.

A :class:`LintModule` is one parsed source file plus everything a rule
needs to reason about it: the AST, the dotted module name (derived from
the ``repro`` package root in its path), its intra-repo import map, and
the suppression directives found in its comments.

Suppression syntax (mirrors pylint's, but deliberately tiny):

* ``# reprolint: disable=L001 -- why`` on a code line silences those
  rules for findings on that line;
* the same comment on a line of its own silences the *next* line;
* ``# reprolint: disable-file=F001 -- why`` anywhere silences a rule
  for the whole file.

Multiple rule ids are comma-separated.  The text after the ids (an
optional ``--`` separator, then prose) is the directive's *rationale*;
rule S001 requires it to be non-empty, so every suppression records
why the finding is acceptable.  Suppressed findings are still
collected (so ``--show-suppressed`` can audit them); they simply do
not fail the run.

Directives are read from real comment tokens (``tokenize``), so
directive-shaped text inside a docstring — like the examples above —
is not a directive.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

# LintError lives in the central taxonomy (E001 enforces that); it is
# re-exported here because it is part of this package's API.
from repro.errors import LintError


_DIRECTIVE = re.compile(
    r"#\s*reprolint:\s*(disable|disable-file)\s*=\s*"
    r"([A-Z]\d{3}(?:\s*,\s*[A-Z]\d{3})*)"
    r"\s*(?:(?:--|—)\s*)?(.*)$"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    rule: str
    message: str
    path: str
    module: str
    line: int
    col: int
    suppressed: bool = False
    #: qualname of the enclosing def ("" at module level); the runner
    #: fills it in, and only the position-free baseline reads it.
    function: str = ""

    def location(self) -> str:
        return "%s:%d:%d" % (self.path, self.line, self.col + 1)

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "message": self.message,
            "path": self.path,
            "module": self.module,
            "line": self.line,
            "col": self.col + 1,
            "suppressed": self.suppressed,
        }


@dataclass(frozen=True)
class Directive:
    """One parsed suppression comment."""

    kind: str  # "disable" | "disable-file"
    rules: Tuple[str, ...]
    line: int  # line of the comment itself
    col: int
    rationale: str


def _comment_tokens(source: str) -> List[Tuple[int, int, str, str]]:
    """(line, col, comment text, full source line) for every comment.

    Uses ``tokenize`` so directive-shaped text inside string literals
    is ignored; falls back to a per-line scan only if tokenization
    fails outright (the source already parsed as an AST, so it rarely
    does).
    """
    out: List[Tuple[int, int, str, str]] = []
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                out.append((tok.start[0], tok.start[1], tok.string, tok.line))
        return out
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return [
            (lineno, text.index("#"), text[text.index("#"):], text)
            for lineno, text in enumerate(source.splitlines(), start=1)
            if "#" in text
        ]


class Suppressions:
    """Per-file suppression directives parsed from comments."""

    def __init__(self, source: str) -> None:
        self.file_wide: Set[str] = set()
        self.by_line: Dict[int, Set[str]] = {}
        self.directives: List[Directive] = []
        for lineno, col, comment, text in _comment_tokens(source):
            match = _DIRECTIVE.search(comment)
            if match is None:
                continue
            kind = match.group(1)
            rules = tuple(r.strip() for r in match.group(2).split(","))
            rationale = (match.group(3) or "").strip()
            self.directives.append(
                Directive(kind=kind, rules=rules, line=lineno, col=col,
                          rationale=rationale))
            if kind == "disable-file":
                self.file_wide |= set(rules)
            elif text[:col].strip() == "":
                # Comment-only line: directive governs the next line.
                self.by_line.setdefault(lineno + 1, set()).update(rules)
            else:
                self.by_line.setdefault(lineno, set()).update(rules)

    def covers(self, rule: str, line: int) -> bool:
        if rule in self.file_wide:
            return True
        return rule in self.by_line.get(line, set())


@dataclass
class LintModule:
    """A parsed source file ready for rule evaluation."""

    path: str
    module: str  # dotted name, e.g. "repro.ffs.alloc"
    source: str
    tree: ast.AST
    suppressions: Suppressions
    # name -> dotted source module, for names brought in via
    # ``from repro.x.y import NAME`` (values are the *module*, so a
    # constant imported under an alias still resolves).
    import_map: Dict[str, str] = field(default_factory=dict)

    @property
    def package(self) -> str:
        """Top-level subpackage under repro ("" for repro/x.py itself)."""
        parts = self.module.split(".")
        if len(parts) >= 3 and parts[0] == "repro":
            return parts[1]
        return ""

    def function_at(self, line: int) -> str:
        """Qualname of the innermost def containing ``line`` ("" if none)."""
        found = ""
        for qualname, node in iter_functions(self.tree):
            if node.lineno <= line <= node.end_lineno:
                found = qualname  # outermost first, so the last hit is innermost
        return found


def iter_functions(
    tree: ast.AST, prefix: str = ""
) -> Iterator[Tuple[str, ast.AST]]:
    """``(qualname, node)`` of every def reached through def and class
    bodies (not through ``if``/``for`` blocks), outermost first."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            if not isinstance(child, ast.ClassDef):
                yield prefix + child.name, child
            yield from iter_functions(child, prefix + child.name + ".")


def module_name_of(path: str) -> str:
    """Derive a dotted module name from a file path.

    The last path component named ``repro`` anchors the package root;
    files outside any ``repro`` tree lint under their bare stem (used
    by the test fixtures, which can also pass an explicit name).
    """
    parts = re.split(r"[\\/]+", path)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if "repro" in parts:
        parts = parts[len(parts) - 1 - parts[::-1].index("repro"):]
    else:
        parts = parts[-1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1] or ["__init__"]
    return ".".join(parts)


def _build_import_map(tree: ast.AST) -> Dict[str, str]:
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            if node.module == "repro" or node.module.startswith("repro."):
                for alias in node.names:
                    imports[alias.asname or alias.name] = node.module
    return imports


def load_source(source: str, path: str) -> LintModule:
    """Parse ``source`` into a :class:`LintModule` (raises LintError)."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise LintError("%s: %s" % (path, exc)) from exc
    mod = LintModule(
        path=path,
        module=module_name_of(path),
        source=source,
        tree=tree,
        suppressions=Suppressions(source),
    )
    mod.import_map = _build_import_map(tree)
    return mod


def load_module(path: str) -> LintModule:
    """Read and parse one file from disk."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        raise LintError("cannot read %s: %s" % (path, exc)) from exc
    return load_source(source, path)


class Rule:
    """Base class for lint rules.

    Subclasses set ``id``/``title``/``rationale`` and implement
    :meth:`check`, yielding findings via :meth:`found`.  ``context`` is
    the :class:`repro.lint.runner.LintContext` shared across the run
    (cross-module constant tables live there).
    """

    id = "X000"
    title = "untitled rule"
    rationale = ""

    def check(self, mod: LintModule, context: "object") -> Iterator[Finding]:
        raise NotImplementedError

    def found(self, mod: LintModule, node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule=self.id,
            message=message,
            path=mod.path,
            module=mod.module,
            line=line,
            col=col,
            suppressed=mod.suppressions.covers(self.id, line),
        )


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute/name chains; None for anything else."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def iter_imported_repro_modules(
    tree: ast.AST,
) -> Iterator[Tuple[ast.AST, str, Sequence[str]]]:
    """Yield ``(node, target_module, imported_names)`` for repro imports.

    ``imported_names`` is empty for plain ``import repro.x.y`` and for
    ``from repro.x import submodule`` where the name is itself a module
    (the caller cannot tell; it receives the alias names and decides).
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.name
                if name == "repro" or name.startswith("repro."):
                    yield node, name, ()
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            name = node.module
            if name == "repro" or name.startswith("repro."):
                yield node, name, tuple(a.name for a in node.names)


def findings_sorted(findings: Iterable[Finding]) -> List[Finding]:
    """Deterministic report order: (path, line, rule, col).

    Rule before column so two rules firing on the same line always
    order by id, keeping CI diffs stable across runners regardless of
    which rule computed the tighter column.
    """
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule, f.col))
