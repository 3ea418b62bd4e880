"""The source tree is one contract too: a phase is measured in one
place, every module is there because something outside the tests uses
it, and so is every configuration field."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def test_only_the_window_module_diffs_the_drive_counters():
    # workloads/measure.py is how a phase is measured; a driver that
    # snapshots the drive's counters itself has opened a second window.
    hits = []
    for package in ("workloads", "bench"):
        for path in sorted((SRC / "repro" / package).glob("*.py")):
            text = path.read_text(encoding="utf-8")
            if "stats.snapshot(" in text or "stats.delta(" in text:
                hits.append(path.name)
    assert hits == ["measure.py"]


def _module_name(path):
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imports(tree):
    """``(module, name)`` for every import in a file (name None for a
    plain ``import a.b``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import"
            for alias in node.names:
                yield node.module, alias.name


def orphan_modules():
    """Modules under src/ that nothing in src/, benchmarks/ or examples/
    uses: neither imported by a module other than their own package's
    ``__init__``, nor reached through it (``__init__`` uses a name it
    takes from the module, or someone imports that name from the
    package).  Tests do not count as users."""
    files = {path: ast.parse(path.read_text(encoding="utf-8"))
             for base in ("src", "benchmarks", "examples")
             for path in (ROOT / base).rglob("*.py")}
    modules = {_module_name(path): path for path in files
               if SRC in path.parents
               and path.name not in ("__init__.py", "__main__.py")}

    def own_init(module):
        return modules[module].parent / "__init__.py"

    used = set()
    handed_on = {}     # (package, name) -> the module the name comes from
    for path, tree in files.items():
        if path.name != "__init__.py" or SRC not in path.parents:
            continue
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Load)}
        for module, name in _imports(tree):
            if name and module in modules and own_init(module) == path:
                handed_on[(_module_name(path), name)] = module
                if name in loaded:
                    used.add(module)
    for path, tree in files.items():
        for module, name in _imports(tree):
            for target in (module, "%s.%s" % (module, name),
                           handed_on.get((module, name))):
                if target in modules and own_init(target) != path:
                    used.add(target)
    return sorted(set(modules) - used)


def test_every_module_has_a_user_outside_the_tests():
    assert orphan_modules() == []


#: Configuration fields no call in src/, benchmarks/ or examples/ sets,
#: each with the reason it is a field and not a constant.
UNPASSED_FIELDS = {
    "ffs.base.VolumeConfig.small_file_spread":
        "the ROADMAP sensitivity sweep varies it",
    "ffs.base.VolumeConfig.file_readahead_blocks":
        "the DESIGN.md section 4b prefetch extension, which "
        "tests/test_prefetch.py turns on",
    "faults.chaos.ChaosConfig.weak_count":
        "a soak scenario field tier-1's QUICK soak shrinks",
    "faults.chaos.ChaosConfig.bad_read_count":
        "a soak scenario field tier-1's QUICK soak shrinks",
    "faults.chaos.ChaosConfig.rot_count":
        "a soak scenario field tier-1's QUICK soak shrinks",
}


def _is_dataclass(node):
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _own_fields(node):
    return [stmt.target.id for stmt in node.body
            if isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)]


class Program:
    """src/, benchmarks/ and examples/, parsed once: what a name in a
    module stands for, and which config class a call constructs."""

    def __init__(self):
        self.trees = {}
        for base in ("src", "benchmarks", "examples"):
            for path in (ROOT / base).rglob("*.py"):
                rel = path.relative_to(SRC if SRC in path.parents else ROOT)
                parts = list(rel.with_suffix("").parts)
                if parts[-1] == "__init__":
                    parts.pop()
                self.trees[".".join(parts)] = ast.parse(
                    path.read_text(encoding="utf-8"))
        self.defs = {
            module: {node.name: node for node in tree.body
                     if isinstance(node, (ast.ClassDef, ast.FunctionDef))}
            for module, tree in self.trees.items()}
        self.imports = {
            module: {alias.asname or alias.name: (node.module, alias.name)
                     for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom)
                     for alias in node.names}
            for module, tree in self.trees.items()}
        #: (module, class name) of every ``*Config`` / ``*Policy``
        #: dataclass under src/repro.
        self.configs = {
            (module, name) for module, defs in self.defs.items()
            if module.startswith("repro")
            for name, node in defs.items()
            if isinstance(node, ast.ClassDef) and _is_dataclass(node)
            and name.endswith(("Config", "Policy"))}
        #: class attribute -> the config classes bound to it
        #: (``Config = CFFSConfig``, so ``fmt.Config(...)``).
        self.aliases = {}
        for module, defs in self.defs.items():
            for node in defs.values():
                if not isinstance(node, ast.ClassDef):
                    continue
                for stmt in node.body:
                    if (isinstance(stmt, ast.Assign)
                            and isinstance(stmt.value, ast.Name)):
                        target = self.resolve(module, stmt.value.id)
                        if target in self.configs:
                            for name in stmt.targets:
                                self.aliases.setdefault(
                                    name.id, set()).add(target)

    def resolve(self, module, name, seen=()):
        """(module, name) of the def ``name`` stands for in ``module``,
        through imports and package re-exports; None if not ours."""
        if name in self.defs.get(module, {}):
            return module, name
        source = self.imports.get(module, {}).get(name)
        if source is None or source in seen:
            return None
        return self.resolve(source[0], source[1], seen + (source,))

    def lineage(self, cls):
        """``cls`` and its config base classes, base-most first."""
        node = self.defs[cls[0]][cls[1]]
        out = []
        for base in node.bases:
            target = self.resolve(cls[0], getattr(base, "id", ""))
            if target in self.configs:
                out += self.lineage(target)
        return out + [cls]

    def fields(self, cls):
        """(declaring class, field) in dataclass order, inherited first."""
        return [(owner, field) for owner in self.lineage(cls)
                for field in _own_fields(self.defs[owner[0]][owner[1]])]

    def is_replace(self, module, call):
        return self.imports[module].get(
            getattr(call.func, "id", None)) == ("dataclasses", "replace")

    def annotated(self, module, annotation):
        target = self.resolve(module, getattr(annotation, "id", ""))
        return {target} if target in self.configs else set()

    def built_by(self, module, func, call, seen=frozenset()):
        """The config classes whose fields ``call``'s arguments set: a
        constructor, by name or through a class attribute, or
        ``replace(cfg, ...)``."""
        callee = call.func
        if isinstance(callee, ast.Attribute):
            return self.aliases.get(callee.attr, set())
        if self.is_replace(module, call):
            return (self.instance_of(module, func, call.args[0], seen)
                    if call.args else set())
        target = self.resolve(module, getattr(callee, "id", ""))
        return {target} if target in self.configs else set()

    def instance_of(self, module, func, expr, seen=frozenset()):
        """The config classes ``expr`` (a call, or a name local to
        ``func``) may evaluate to."""
        if isinstance(expr, ast.Name) and func is not None:
            if expr.id in seen:
                return set()
            seen = seen | {expr.id}
            out = set()
            for node in ast.walk(func):
                if isinstance(node, ast.Assign) and any(
                        getattr(t, "id", None) == expr.id for t in node.targets):
                    out |= self.instance_of(module, func, node.value, seen)
                elif (isinstance(node, ast.Return)
                        and getattr(node.value, "id", None) == expr.id):
                    out |= self.annotated(module, func.returns)
            return out
        if not isinstance(expr, ast.Call):
            return set()
        built = self.built_by(module, func, expr, seen)
        target = self.resolve(module, getattr(expr.func, "id", ""))
        if not built and target is not None:
            node = self.defs[target[0]][target[1]]
            if isinstance(node, ast.FunctionDef):
                return self.annotated(target[0], node.returns)
        return built

    def calls(self, module=None, node=None, func=None):
        """``(module, innermost enclosing def or None, call)`` for every
        call."""
        if module is None:
            for module, tree in self.trees.items():
                yield from self.calls(module, tree)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                yield module, func, child
            yield from self.calls(module, child, child if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func)


def _key(owner, field):
    return "%s.%s.%s" % (owner[0].split(".", 1)[1], owner[1], field)


def test_every_config_field_has_a_caller():
    # A field only its default or a test sets is a constant: one more
    # setting the oracle and the benchmark would otherwise have to cover.
    # Each call is resolved to the class it builds: by name through the
    # imports, ``fmt.Config(...)`` through the class attribute it names,
    # ``replace(cfg, ...)`` through what ``cfg`` was assigned or the
    # enclosing function's return type; a subclass sets its bases'
    # fields, and positional arguments count in field order.
    program = Program()
    passed = set()
    for module, func, call in program.calls():
        for cls in program.built_by(module, func, call):
            fields = program.fields(cls)
            skip = 1 if program.is_replace(module, call) else 0
            passed.update(fields[:len(call.args) - skip])
            by_name = {field: owner for owner, field in fields}
            passed.update((by_name[kw.arg], kw.arg) for kw in call.keywords
                          if kw.arg in by_name)
    unpassed = {_key(owner, field) for cls in program.configs
                for owner, field in program.fields(cls)
                if (owner, field) not in passed}
    assert unpassed == set(UNPASSED_FIELDS)
