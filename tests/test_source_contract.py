"""The source tree is one contract too: a phase is measured in one
place, and every module, configuration field, parameter default,
function, class and method is there because something outside the
tests uses it."""

import ast
import functools
import re
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def test_only_the_window_module_diffs_the_drive_counters():
    # workloads/measure.py is how a phase is measured, and
    # engine/report.py's replay_window how a replayed phase is; a
    # driver that snapshots the drive's or a queue's counters itself
    # has opened a second window.
    def diffing(*packages):
        hits = []
        for package in packages:
            for path in sorted((SRC / "repro" / package).glob("*.py")):
                text = path.read_text(encoding="utf-8")
                if "stats.snapshot(" in text or "stats.delta(" in text:
                    hits.append(path.name)
        return hits

    assert diffing("workloads", "bench") == ["measure.py"]
    assert diffing("engine", "cluster") == ["report.py"]


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


# --- Parameters and definitions --------------------------------------------
#
# A *subject* is a module-level function, a module-level class, or a
# ``def`` in the body of a module-level class, under src/repro; its key
# is ``module.name`` or ``module.Class.name`` without the ``repro.``
# prefix.  A call resolves to the defs it may run: a name through the
# imports, package re-exports and module-level aliases
# (``make_cffs = CFFS.fresh``); ``module.name`` and ``Class.name``
# through what the prefix names; ``super().name`` through the enclosing
# class's bases; ``cls(...)`` to the enclosing class and its
# subclasses; any other ``x.name(...)`` to every method called ``name``
# (an ambiguous match keeps the parameter); ``partial(f, ...)`` and
# pytest-benchmark's ``benchmark.pedantic(f, args=..., kwargs={...})``
# to ``f``.

#: Defaulted parameters no call in src/, benchmarks/ or examples/
#: passes, each with the reason it is a parameter and not a constant.
UNPASSED_PARAMETERS = {
    "blockdev.device.BlockDevice.load_image.profile":
        "test seam: tests reload images of their small test drive, a "
        "profile PROFILES does not name",
    "cli.main.argv":
        "test seam: tests substitute the command line",
    "cluster.core.Cluster.__init__.filesystems":
        "test seam: crash tests rebuild a cluster over file systems "
        "they mounted from crash images",
    "cluster.traffic.run_cluster_traffic.cluster":
        "test seam: an already-built Cluster the test inspects afterwards",
    "engine.multiclient.run_multiclient.faults":
        "test seam: a fault schedule that makes the shared drive fail",
    "workloads.aging.age_filesystem.n_dirs":
        "a size tier-1 shrinks so the aging runs in seconds",
    "workloads.aging.age_filesystem.max_file_bytes":
        "a size tier-1 shrinks so the aging runs in seconds",
    "workloads.appsuite.build_source_tree.n_headers":
        "a size tier-1 shrinks so Table 4's tree builds in seconds",
    "workloads.appsuite.build_source_tree.max_file_bytes":
        "a size tier-1 shrinks so Table 4's tree builds in seconds",
}


def _decorators(func):
    return {getattr(d, "id", getattr(d, "attr", None))
            for d in func.decorator_list}


def _positional(func):
    return [p.arg for p in func.args.posonlyargs + func.args.args]


def _defaulted(func):
    """Names of ``func``'s parameters that have a default."""
    positional = _positional(func)
    names = positional[len(positional) - len(func.args.defaults):]
    return names + [p.arg for p, default in zip(func.args.kwonlyargs,
                                                  func.args.kw_defaults)
                     if default is not None]


def _subject_key(module, *path):
    return ".".join([module.split(".", 1)[1]] + list(path))


class Subjects:
    """src/repro's subjects, and what every name, attribute and call in
    src/, benchmarks/ and examples/ resolves to among them."""

    def __init__(self):
        self.program = program = Program()
        self.nodes = {}            # key -> FunctionDef / ClassDef
        self.methods = {}          # method name -> keys of those methods
        self.functions = {}        # function name -> keys of those functions
        for module, defs in program.defs.items():
            if not module.startswith("repro"):
                continue
            for name, node in defs.items():
                self.nodes[_subject_key(module, name)] = node
                if isinstance(node, ast.FunctionDef):
                    self.functions.setdefault(name, []).append(
                        _subject_key(module, name))
                    continue
                for stmt in node.body:
                    if isinstance(stmt, ast.FunctionDef):
                        key = _subject_key(module, name, stmt.name)
                        self.nodes[key] = stmt
                        self.methods.setdefault(stmt.name, []).append(key)
        self.owner = {id(node): key for key, node in self.nodes.items()}
        # What a bound name may stand for: ``from m import n [as a]``
        # (one module may import the same name from two places, in two
        # functions), ``import a.b [as c]``, ``name = other.name``.
        self.bound = {module: {} for module in program.trees}
        for module, tree in program.trees.items():
            bound = self.bound[module]
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    for alias in node.names:
                        bound.setdefault(alias.asname or alias.name, []).append(
                            ("from", node.module, alias.name))
                elif isinstance(node, ast.Import):
                    for alias in node.names:
                        target = alias.name if alias.asname \
                            else alias.name.split(".")[0]
                        bound.setdefault(alias.asname or target, []).append(
                            ("module", target))
            for stmt in tree.body:
                if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                        and isinstance(stmt.targets[0], ast.Name)
                        and isinstance(stmt.value, (ast.Name, ast.Attribute))):
                    bound.setdefault(stmt.targets[0].id, []).append(
                        ("alias", stmt.value))
        self.subclasses = {}
        for module, defs in program.defs.items():
            for name, node in defs.items():
                if isinstance(node, ast.ClassDef):
                    for base in self.bases((module, name)):
                        self.subclasses.setdefault(base, []).append(
                            (module, name))

    # -- what a name stands for ---------------------------------------

    def name(self, module, name, seen=()):
        """What ``name`` may mean at the top of ``module``: a set of
        ``("module", m)``, ``("def", m, name)`` and ``("method", key)``;
        empty if nothing of ours."""
        if name in self.program.defs.get(module, {}):
            return {("def", module, name)}
        if (module, name) in seen:
            return set()
        seen += ((module, name),)
        out = set()
        for how, *what in self.bound.get(module, {}).get(name, ()):
            if how == "alias":
                out |= self.value(module, what[0], seen)
            elif how == "module":
                if what[0] in self.program.trees:
                    out.add(("module", what[0]))
            elif "%s.%s" % tuple(what) in self.program.trees:
                out.add(("module", "%s.%s" % tuple(what)))
            else:
                out |= self.name(what[0], what[1], seen)
        return out

    def value(self, module, expr, seen=()):
        """What a name or attribute chain may stand for in ``module``."""
        if isinstance(expr, ast.Name):
            return self.name(module, expr.id, seen)
        if not isinstance(expr, ast.Attribute):
            return set()
        out = set()
        for base in self.value(module, expr.value, seen):
            if base[0] == "module":
                dotted = "%s.%s" % (base[1], expr.attr)
                if dotted in self.program.trees:
                    out.add(("module", dotted))
                else:
                    out |= self.name(base[1], expr.attr, seen)
            elif base[0] == "def":
                key = self.lookup(base[1:], expr.attr)
                if key:
                    out.add(("method", key))
        return out

    def bases(self, cls):
        return [target[1:] for base in self.program.defs[cls[0]][cls[1]].bases
                for target in self.value(cls[0], base) if target[0] == "def"]

    def lookup(self, cls, attr):
        """Key of the def ``cls.attr`` runs, searching the bases in
        order; None if it is not ours."""
        node = self.program.defs.get(cls[0], {}).get(cls[1])
        if not isinstance(node, ast.ClassDef):
            return None
        if any(isinstance(stmt, ast.FunctionDef) and stmt.name == attr
               for stmt in node.body):
            return _subject_key(*cls, attr) if cls[0].startswith("repro") \
                else None
        return next(filter(None, (self.lookup(base, attr)
                                  for base in self.bases(cls))), None)

    def keys_of(self, things):
        return {_subject_key(t[1], t[2]) if t[0] == "def" else t[1]
                for t in things if t[0] == "method"
                or t[0] == "def" and t[1].startswith("repro")}

    # -- what a call runs ---------------------------------------------

    def targets(self, module, cls, func, call):
        """``[(key, implicit)]`` for every def ``call`` (made in ``func``)
        may run; ``implicit`` leading parameters are not the call's to
        fill."""
        callee = call.func
        if getattr(callee, "id", None) == "cls" and cls:
            return [(key, 1) for c in [cls] + self.subclasses.get(cls, [])
                    for key in [self.lookup(c, "__init__")] if key]
        things = self.value(module, callee)
        if not things and isinstance(callee, ast.Name) and func is not None:
            # A local bound to a method (``alloc_block =
            # self.alloc.alloc_block``), or to a function value taken
            # out of a table (``check = checker_for(magic)``): then any
            # function used as a value may run, and keywords are all the
            # call can pass it.
            bound = [node.value for node in ast.walk(func)
                     if isinstance(node, ast.Assign)
                     and any(getattr(t, "id", None) == callee.id
                             for t in node.targets)]
            if bound and all(isinstance(v, (ast.Name, ast.Attribute))
                             for v in bound):
                return [target for value in bound for target in
                        self.targets(module, cls, None, ast.Call(func=value))]
            return [(key, len(_positional(self.nodes[key])))
                    for key in self.escaping]
        if not things and isinstance(callee, ast.Attribute):
            if getattr(getattr(callee.value, "func", None), "id", None) \
                    == "super" and cls:
                keys = [self.lookup(base, callee.attr)
                        for base in self.bases(cls)]
                return [(key, 1) for key in keys if key][:1]
            return [(key, 0 if "staticmethod" in _decorators(self.nodes[key])
                     else 1) for key in self.methods.get(callee.attr, [])] + [
                (key, 0) for key in self.functions.get(callee.attr, [])]
        out = []
        for thing in things:
            if thing[0] == "method":
                node = self.nodes[thing[1]]
                out.append((thing[1], int("classmethod" in _decorators(node))))
            elif thing[0] == "def":
                node = self.program.defs[thing[1]][thing[2]]
                if isinstance(node, ast.ClassDef):
                    key = self.lookup(thing[1:], "__init__")
                    out += [(key, 1)] if key else []
                else:
                    out += [(key, 0) for key in self.keys_of([thing])]
        return out

    @functools.cached_property
    def escaping(self):
        """Keys of the module-level functions used as values."""
        called = {id(call.func) for _, _, _, call in self.calls()}
        return {key for module, tree in self.program.trees.items()
                for node in ast.walk(tree)
                if isinstance(node, ast.Name) and id(node) not in called
                and isinstance(node.ctx, ast.Load)
                for key in self.keys_of(self.name(module, node.id))
                if isinstance(self.nodes[key], ast.FunctionDef)}

    def calls(self):
        """``(module, enclosing class, enclosing def, call)`` for every
        call, plus the call of ``f`` that ``partial(f, ...)`` and
        ``benchmark.pedantic(f, ...)`` stand for."""
        for module, tree in self.program.trees.items():
            for cls, func, call in self._calls(module, tree, None, None):
                yield module, cls, func, call
                inner = self._unwrapped(module, call)
                if inner is not None:
                    yield module, cls, func, inner

    def _calls(self, module, node, cls, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                yield cls, func, child
            if isinstance(child, ast.ClassDef) and node is \
                    self.program.trees[module]:
                yield from self._calls(module, child, (module, child.name),
                                       func)
            else:
                yield from self._calls(module, child, cls, child if isinstance(
                    child, ast.FunctionDef) else func)

    def _unwrapped(self, module, call):
        if not call.args:
            return None
        if ("from", "functools", "partial") in self.bound[module].get(
                getattr(call.func, "id", None), ()):
            return ast.Call(func=call.args[0], args=call.args[1:],
                            keywords=call.keywords)
        if getattr(call.func, "attr", None) != "pedantic":
            return None
        given = {kw.arg: kw.value for kw in call.keywords}
        kwargs = given.get("kwargs")
        if isinstance(kwargs, ast.Dict) and None not in kwargs.keys:
            keywords = [ast.keyword(arg=k.value, value=v)
                        for k, v in zip(kwargs.keys, kwargs.values)]
        else:
            keywords = [ast.keyword(arg=None, value=kwargs)] if kwargs else []
        return ast.Call(func=call.args[0], keywords=keywords,
                        args=getattr(given.get("args"), "elts", []))

    # -- the two contracts --------------------------------------------

    def defaulted(self):
        """``key.parameter`` for every defaulted parameter of a subject."""
        return {"%s.%s" % (key, name) for key, node in self.nodes.items()
                if isinstance(node, ast.FunctionDef)
                for name in _defaulted(node)}

    def passed(self):
        """``key.parameter`` for every parameter some call passes, by
        position, by keyword, or through ``*`` / ``**``."""
        out = set()
        for module, cls, func, call in self.calls():
            for key, implicit in self.targets(module, cls, func, call):
                node = self.nodes[key]
                positional = _positional(node)[implicit:]
                given = set()
                for i, arg in enumerate(call.args):
                    if isinstance(arg, ast.Starred):
                        given.update(positional[i:])
                        break
                    given.update(positional[i:i + 1])
                for kw in call.keywords:
                    given.update([kw.arg] if kw.arg else positional + [
                        p.arg for p in node.args.kwonlyargs])
                out.update("%s.%s" % (key, name) for name in given)
        return out

    def used(self):
        """Keys of the subjects something outside their own body refers
        to: a name or attribute that resolves to one, an attribute of an
        object we cannot resolve named like a method or function, a
        method name benchmarks/perf/trace.py wraps, or a name CI's inline
        Python uses.  A dunder method is used by the language."""
        out = set()
        for module, tree in self.program.trees.items():
            for node, inside in self._references(tree, ()):
                if isinstance(node, ast.Name):
                    found = self.keys_of(self.name(module, node.id))
                else:
                    found = self.keys_of(self.value(module, node))
                    found.update(self.methods.get(node.attr, []))
                    if not self.value(module, node.value):
                        found.update(self.functions.get(node.attr, []))
                out.update(found - set(inside))
        wrapped = {node.value for node in ast.walk(
            self.program.trees["benchmarks.perf.trace"])
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}
        for name, keys in self.methods.items():
            if name in wrapped or (name.startswith("__")
                                   and name.endswith("__")):
                out.update(keys)
        ci = ci_python_names()
        out.update(key for key, node in self.nodes.items() if node.name in ci)
        return out

    def _references(self, node, inside):
        for child in ast.iter_child_nodes(node):
            key = self.owner.get(id(child))
            here = inside + (key,) if key else inside
            if (isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load)
                    or isinstance(child, ast.Attribute)):
                yield child, here
            yield from self._references(child, here)


def ci_python_names():
    """Every identifier in the Python that .github/workflows/ci.yml runs
    inline: the ``python - <<'EOF'`` blocks and the ``python -c "$VAR"``
    bodies declared as block scalars under ``env:``."""
    text = (ROOT / ".github" / "workflows" / "ci.yml").read_text(
        encoding="utf-8")
    blocks = re.findall(r"<<'EOF'\n(.*?)\n\s*EOF\n", text, re.S)
    blocks += [body for _, body in re.findall(
        r"\n( +)[A-Z_]+: \|\n((?:\1 +.*\n)+)", text)]
    out = set()
    for block in blocks:
        for node in ast.walk(ast.parse(textwrap.dedent(block))):
            if isinstance(node, ast.Name):
                out.add(node.id)
            elif isinstance(node, ast.Attribute):
                out.add(node.attr)
            elif isinstance(node, ast.alias):
                out.add(node.name.split(".")[-1])
    return out


@functools.lru_cache(maxsize=None)
def subjects():
    return Subjects()


def test_every_parameter_has_a_caller():
    # A default that nothing outside the tests ever overrides is a
    # constant: one more setting the oracle and the benchmark would have
    # to cover.  Count the defaulted parameters with
    # ``len(subjects().defaulted())``.
    unpassed = subjects().defaulted() - subjects().passed()
    assert unpassed == set(UNPASSED_PARAMETERS)


def test_every_definition_has_a_user():
    # A function, class or method only the tests reach is test code
    # living in src/: its tests belong on the public path it wraps.
    assert sorted(set(subjects().nodes) - subjects().used()) == []
