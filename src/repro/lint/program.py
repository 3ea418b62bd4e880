"""One parsed index of a program: what each module defines, imports
and binds, and what a name or attribute chain in it stands for.

A query answers with a set of *things*: ``("module", m)``,
``("def", m, name)`` (a top-level class or function),
``("method", m, cls, name)`` (a ``def`` in a class body, found on the
class or its bases) or ``("value", m, name)`` (a top-level
``name = <expr>`` that is no alias).  Names are followed through
imports anywhere in a module (relative ones too), package re-exports
and top-level aliases (``make_cffs = CFFS.fresh``); a top-level def or
value shadows the imports of its name, and a binding cycle ends.
docs/STATIC_ANALYSIS.md, "The program model", lists its readers and
why the flow rules' call graph stays name-based.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple, Union

#: ``("module", m)``, ``("def", m, name)``, ``("method", m, cls, name)``
#: or ``("value", m, name)``.
Thing = Tuple[str, ...]
#: ``(module, top-level class or None, innermost def or None, call)``.
CallSite = Tuple[str, Optional[Tuple[str, str]], Optional[ast.FunctionDef], ast.Call]


class Unit:
    """One parsed module."""

    def __init__(self, name: str, path: str, tree: ast.Module) -> None:
        self.name = name
        self.path = path
        self.tree = tree
        self.defs: Dict[str, Union[ast.ClassDef, ast.FunctionDef]] = {}
        self.values: Dict[str, ast.expr] = {}
        self.aliases: Dict[str, List[ast.expr]] = {}
        #: ``(statement, imported module, names)`` of every import;
        #: ``names`` is empty for ``import a.b``.
        self.imports: List[Tuple[ast.stmt, str, Tuple[str, ...]]] = []
        #: bound name -> ``("from", module, name)`` /
        #: ``("import", dotted, the module the name is bound to)``.
        self.bound: Dict[str, List[Tuple[str, str, str]]] = {}
        self._calls: Optional[List[CallSite]] = None
        for stmt in tree.body:
            if isinstance(stmt, (ast.ClassDef, ast.FunctionDef)):
                self.defs[stmt.name] = stmt
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if not isinstance(target, ast.Name):
                    continue
                if isinstance(stmt.value, (ast.Name, ast.Attribute)):
                    self.aliases.setdefault(target.id, []).append(stmt.value)
                else:
                    self.values[target.id] = stmt.value
        package = name.split(".")
        if not path.endswith("__init__.py"):
            package.pop()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                source = node.module or ""
                if node.level:
                    base = package[:len(package) - node.level + 1]
                    source = ".".join(base + ([source] if source else []))
                self.imports.append(
                    (node, source, tuple(alias.name for alias in node.names)))
                for alias in node.names:
                    self.bound.setdefault(alias.asname or alias.name, []).append(
                        ("from", source, alias.name))
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    self.imports.append((node, alias.name, ()))
                    first = alias.name.split(".")[0]
                    self.bound.setdefault(alias.asname or first, []).append(
                        ("import", alias.name, alias.name if alias.asname else first))

    @property
    def calls(self) -> List[CallSite]:
        """Every call in the module, in source order."""
        if self._calls is None:
            self._calls = list(self._walk(self.tree, None, None))
        return self._calls

    def _walk(self, node: ast.AST, cls: Optional[Tuple[str, str]],
              func: Optional[ast.FunctionDef]) -> Iterator[CallSite]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                yield self.name, cls, func, child
            if isinstance(child, ast.ClassDef) and node is self.tree:
                yield from self._walk(child, (self.name, child.name), func)
            else:
                yield from self._walk(child, cls, child if isinstance(
                    child, ast.FunctionDef) else func)


class Program:
    """The units of one program, keyed by module name, and what their
    names stand for."""

    def __init__(self, units: Iterable[Unit]) -> None:
        self.units: Dict[str, Unit] = {unit.name: unit for unit in units}
        self._resolved: Dict[Tuple[str, str], FrozenSet[Thing]] = {}
        self._bases: Dict[Tuple[str, str], List[Tuple[str, str]]] = {}

    def resolve(self, module: str, name: str,
                seen: Tuple[Tuple[str, str], ...] = ()) -> FrozenSet[Thing]:
        """What ``name`` may stand for at the top of ``module``."""
        key = (module, name)
        unit = self.units.get(module)
        if key in self._resolved or unit is None or key in seen:
            return self._resolved.get(key, frozenset())
        if name in unit.defs:
            return frozenset({("def", module, name)})
        if name in unit.values:
            return frozenset({("value", module, name)})
        seen += (key,)
        out: Set[Thing] = set()
        for expr in unit.aliases.get(name, ()):
            out |= self.value(module, expr, seen)
        for how, source, imported in unit.bound.get(name, ()):
            if how == "import":
                if imported in self.units:
                    out.add(("module", imported))
            elif "%s.%s" % (source, imported) in self.units:
                out.add(("module", "%s.%s" % (source, imported)))
            else:
                out |= self.resolve(source, imported, seen)
        if len(seen) == 1:
            # Only a query that started here followed every binding;
            # one inside a cycle had some cut.
            self._resolved[key] = frozenset(out)
        return frozenset(out)

    def value(self, module: str, expr: ast.expr,
              seen: Tuple[Tuple[str, str], ...] = ()) -> FrozenSet[Thing]:
        """What a name or an attribute chain may stand for in
        ``module``; nothing for any other expression."""
        if isinstance(expr, ast.Name):
            return self.resolve(module, expr.id, seen)
        if not isinstance(expr, ast.Attribute):
            return frozenset()
        out: Set[Thing] = set()
        for base in self.value(module, expr.value, seen):
            dotted = "%s.%s" % (base[1], expr.attr)
            if base[0] == "module" and dotted in self.units:
                out.add(("module", dotted))
            elif base[0] == "module":
                out |= self.resolve(base[1], expr.attr, seen)
            elif base[0] == "def":
                method = self.lookup((base[1], base[2]), expr.attr)
                if method is not None:
                    out.add(method)
        return frozenset(out)

    def bases(self, cls: Tuple[str, str]) -> List[Tuple[str, str]]:
        """``(module, name)`` of the program's classes among ``cls``'s
        bases, in order."""
        if cls not in self._bases:
            node = self.units[cls[0]].defs[cls[1]]
            self._bases[cls] = [
                (thing[1], thing[2]) for base in getattr(node, "bases", ())
                for thing in sorted(self.value(cls[0], base))
                if thing[0] == "def"]
        return self._bases[cls]

    def lookup(self, cls: Tuple[str, str], attr: str,
               seen: Tuple[Tuple[str, str], ...] = ()) -> Optional[Thing]:
        """The ``("method", ...)`` that ``cls.attr`` runs, searching the
        bases in order; None if no class on the way defines it."""
        unit = self.units.get(cls[0])
        node = unit.defs.get(cls[1]) if unit is not None else None
        if not isinstance(node, ast.ClassDef) or cls in seen:
            return None
        if any(isinstance(stmt, ast.FunctionDef) and stmt.name == attr
               for stmt in node.body):
            return ("method", cls[0], cls[1], attr)
        for base in self.bases(cls):
            found = self.lookup(base, attr, seen + (cls,))
            if found is not None:
                return found
        return None

    def calls(self) -> Iterator[CallSite]:
        """``(module, class, def, call)`` for every call in the program."""
        for unit in self.units.values():
            yield from unit.calls
