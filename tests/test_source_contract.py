"""The source tree is one contract too: a phase is measured in one
place, and every module, configuration field, parameter default,
function, class and method is there because something outside the
tests uses it."""

import ast
import functools
from pathlib import Path

from repro.lint.program import Program, Unit
from tests.conftest import src_modules

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


@functools.lru_cache(maxsize=None)
def program():
    """src/, benchmarks/ and examples/ as one program model; src/ is the
    session's parse the lint tests read too."""
    units = [Unit(mod.module, mod.path, mod.tree) for mod in src_modules()]
    for base in ("benchmarks", "examples"):
        for path in sorted((ROOT / base).rglob("*.py")):
            name = ".".join(path.relative_to(ROOT).with_suffix("").parts)
            units.append(Unit(name.removesuffix(".__init__"), str(path),
                              ast.parse(path.read_text(encoding="utf-8"))))
    return Program(units)


def orphan_modules():
    """Modules under src/ that nothing in src/, benchmarks/ or examples/
    uses: neither imported by a module other than their own package's
    ``__init__``, nor reached through it (``__init__`` uses a name it
    takes from the module, or someone imports that name from the
    package).  Tests do not count as users."""
    units = program().units
    modules = {name for name, unit in units.items()
               if name.startswith("repro")
               and not unit.path.endswith(("__init__.py", "__main__.py"))}

    def package(module):
        return module.rpartition(".")[0]

    # (module, name) of every import (name None for ``import a.b``).
    imports = {unit.name: [(module, name) for _, module, names in unit.imports
                           for name in names or (None,)]
               for unit in units.values()}
    used = set()
    handed_on = {}     # (package, name) -> the module the name comes from
    for unit in units.values():
        if not (unit.name.startswith("repro")
                and unit.path.endswith("__init__.py")):
            continue
        loaded = {node.id for node in ast.walk(unit.tree)
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Load)}
        for module, name in imports[unit.name]:
            if name and module in modules and package(module) == unit.name:
                handed_on[(unit.name, name)] = module
                if name in loaded:
                    used.add(module)
    for unit in units.values():
        for module, name in imports[unit.name]:
            for target in (module, "%s.%s" % (module, name),
                           handed_on.get((module, name))):
                if target in modules and package(target) != unit.name:
                    used.add(target)
    return sorted(modules - used)


def test_every_module_has_a_user_outside_the_tests():
    assert orphan_modules() == []


#: Configuration fields no call in src/, benchmarks/ or examples/ sets,
#: each with the reason it is a field and not a constant.
UNPASSED_FIELDS = {
    "ffs.base.VolumeConfig.small_file_spread":
        "the ROADMAP sensitivity sweep varies it",
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


def _class_defs(unit):
    return [(name, node) for name, node in unit.defs.items()
            if isinstance(node, ast.ClassDef)]


class Configs:
    """The ``*Config`` / ``*Policy`` dataclasses under src/repro, and
    which of them a call constructs."""

    def __init__(self, program):
        self.program = program
        #: (module, class name) of every config dataclass.
        self.configs = {
            (module, name) for module, unit in program.units.items()
            if module.startswith("repro")
            for name, node in _class_defs(unit)
            if _is_dataclass(node) and name.endswith(("Config", "Policy"))}
        #: class attribute -> the config classes bound to it
        #: (``Config = CFFSConfig``, so ``fmt.Config(...)``).
        self.aliases = {}
        for module, unit in program.units.items():
            for _, node in _class_defs(unit):
                for stmt in node.body:
                    if (isinstance(stmt, ast.Assign)
                            and isinstance(stmt.value, ast.Name)):
                        for name in stmt.targets:
                            self.aliases.setdefault(name.id, set()).update(
                                self.named(module, stmt.value))

    def defs(self, module, expr):
        """(module, name) of the defs a bare name may stand for."""
        if not isinstance(expr, ast.Name):
            return set()
        return {thing[1:] for thing in self.program.resolve(module, expr.id)
                if thing[0] == "def"}

    def named(self, module, expr):
        return self.defs(module, expr) & self.configs

    def lineage(self, cls):
        """``cls`` and its config base classes, base-most first."""
        out = []
        for base in self.program.bases(cls):
            if base in self.configs:
                out += self.lineage(base)
        return out + [cls]

    def fields(self, cls):
        """(declaring class, field) in dataclass order, inherited first."""
        return [(owner, field) for owner in self.lineage(cls)
                for field in _own_fields(
                    self.program.units[owner[0]].defs[owner[1]])]

    def is_replace(self, module, call):
        return ("from", "dataclasses", "replace") in self.program.units[
            module].bound.get(getattr(call.func, "id", None), ())

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
        return self.named(module, callee)

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
                    out |= self.named(module, func.returns)
            return out
        if not isinstance(expr, ast.Call):
            return set()
        built = self.built_by(module, func, expr, seen)
        if built:
            return built
        out = set()
        for target in self.defs(module, expr.func):
            node = self.program.units[target[0]].defs[target[1]]
            if isinstance(node, ast.FunctionDef):
                out |= self.named(target[0], node.returns)
        return out


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
    configs = Configs(program())
    passed = set()
    for module, _, func, call in program().calls():
        for cls in configs.built_by(module, func, call):
            fields = configs.fields(cls)
            skip = 1 if configs.is_replace(module, call) else 0
            passed.update(fields[:len(call.args) - skip])
            by_name = {field: owner for owner, field in fields}
            passed.update((by_name[kw.arg], kw.arg) for kw in call.keywords
                          if kw.arg in by_name)
    unpassed = {_key(owner, field) for cls in configs.configs
                for owner, field in configs.fields(cls)
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
    """src/repro's subjects, and the ones every call and reference in
    src/, benchmarks/ and examples/ may reach."""

    def __init__(self, program):
        self.program = program
        self.nodes = {}            # key -> FunctionDef / ClassDef
        self.methods = {}          # method name -> keys of those methods
        self.functions = {}        # function name -> keys of those functions
        for module, unit in program.units.items():
            if not module.startswith("repro"):
                continue
            for name, node in unit.defs.items():
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
        self.subclasses = {}
        for module, unit in program.units.items():
            for name, _ in _class_defs(unit):
                for base in program.bases((module, name)):
                    self.subclasses.setdefault(base, []).append((module, name))

    # -- what a name stands for ---------------------------------------

    def meaning(self, module, expr):
        """The modules, defs and src/repro methods ``expr`` may stand
        for: what a call through it can reach."""
        return {thing for thing in self.program.value(module, expr)
                if thing[0] in ("module", "def")
                or thing[0] == "method" and thing[1].startswith("repro")}

    def method(self, cls, attr):
        """Key of the def ``cls.attr`` runs; None if it is not ours."""
        found = self.program.lookup(cls, attr)
        return (_subject_key(*found[1:])
                if found and found[1].startswith("repro") else None)

    @staticmethod
    def keys_of(things):
        return {_subject_key(*thing[1:]) for thing in things
                if thing[0] in ("def", "method")
                and thing[1].startswith("repro")}

    # -- what a call runs ---------------------------------------------

    def targets(self, module, cls, func, call):
        """``[(key, implicit)]`` for every def ``call`` (made in ``func``)
        may run; ``implicit`` leading parameters are not the call's to
        fill."""
        callee = call.func
        if getattr(callee, "id", None) == "cls" and cls:
            return [(key, 1) for c in [cls] + self.subclasses.get(cls, [])
                    for key in [self.method(c, "__init__")] if key]
        things = self.meaning(module, callee)
        if not things and isinstance(callee, ast.Name) and func is not None:
            # A local bound to a method (``alloc_block =
            # self.alloc.alloc_block``), or to a function value taken
            # out of a table (``check = _BY_KEY.get(magic)[0]``): then any
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
                keys = [self.method(base, callee.attr)
                        for base in self.program.bases(cls)]
                return [(key, 1) for key in keys if key][:1]
            return [(key, 0 if "staticmethod" in _decorators(self.nodes[key])
                     else 1) for key in self.methods.get(callee.attr, [])] + [
                (key, 0) for key in self.functions.get(callee.attr, [])]
        out = []
        for thing in things:
            if thing[0] == "method":
                key = _subject_key(*thing[1:])
                out.append((key, int("classmethod" in _decorators(
                    self.nodes[key]))))
            elif thing[0] == "def":
                node = self.program.units[thing[1]].defs[thing[2]]
                if isinstance(node, ast.ClassDef):
                    key = self.method(thing[1:], "__init__")
                    out += [(key, 1)] if key else []
                else:
                    out += [(key, 0) for key in self.keys_of([thing])]
        return out

    @functools.cached_property
    def escaping(self):
        """Keys of the module-level functions used as values."""
        called = {id(call.func) for _, _, _, call in self.calls()}
        return {key for module, unit in self.program.units.items()
                for node in ast.walk(unit.tree)
                if isinstance(node, ast.Name) and id(node) not in called
                and isinstance(node.ctx, ast.Load)
                for key in self.keys_of(self.program.resolve(module, node.id))
                if isinstance(self.nodes[key], ast.FunctionDef)}

    def calls(self):
        """The program's calls, plus the call of ``f`` that ``partial(f,
        ...)`` and ``benchmark.pedantic(f, ...)`` stand for."""
        for module, cls, func, call in self.program.calls():
            yield module, cls, func, call
            inner = self._unwrapped(module, call)
            if inner is not None:
                yield module, cls, func, inner

    def _unwrapped(self, module, call):
        if not call.args:
            return None
        if ("from", "functools", "partial") in self.program.units[
                module].bound.get(getattr(call.func, "id", None), ()):
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
        object we cannot resolve named like a method or function, or a
        method name benchmarks/perf/trace.py wraps.  A dunder method is
        used by the language."""
        out = set()
        for module, unit in self.program.units.items():
            for node, inside in self._references(unit.tree, ()):
                found = self.keys_of(self.program.value(module, node))
                if isinstance(node, ast.Attribute):
                    found.update(self.methods.get(node.attr, []))
                    if not self.meaning(module, node.value):
                        found.update(self.functions.get(node.attr, []))
                out.update(found - set(inside))
        wrapped = {node.value for node in ast.walk(
            self.program.units["benchmarks.perf.trace"].tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}
        for name, keys in self.methods.items():
            if name in wrapped or (name.startswith("__")
                                   and name.endswith("__")):
                out.update(keys)
        return out

    def _references(self, node, inside):
        for child in ast.iter_child_nodes(node):
            key = self.owner.get(id(child))
            here = inside + (key,) if key else inside
            if (isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load)
                    or isinstance(child, ast.Attribute)):
                yield child, here
            yield from self._references(child, here)


@functools.lru_cache(maxsize=None)
def subjects():
    return Subjects(program())


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
