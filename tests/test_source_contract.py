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
    "small_file_spread": "the ROADMAP sensitivity sweep varies it",
    "file_readahead_blocks": "the DESIGN.md section 4b prefetch extension, "
                             "which tests/test_prefetch.py turns on",
    "weak_count": "a soak scenario field tier-1's QUICK soak shrinks",
    "bad_read_count": "a soak scenario field tier-1's QUICK soak shrinks",
    "rot_count": "a soak scenario field tier-1's QUICK soak shrinks",
}


def _is_dataclass(node):
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def config_fields():
    """``(class, field)`` for every annotated field of a dataclass named
    ``*Config`` or ``*Policy`` under src/repro."""
    for path in sorted((SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.ClassDef) and _is_dataclass(node)
                    and node.name.endswith(("Config", "Policy"))):
                for stmt in node.body:
                    if (isinstance(stmt, ast.AnnAssign)
                            and isinstance(stmt.target, ast.Name)):
                        yield node.name, stmt.target.id


def test_every_config_field_has_a_caller():
    # A field only its default or a test sets is a constant: one more
    # setting the oracle and the benchmark would otherwise have to cover.
    #
    # The match is by keyword name alone, from any call: a field counts
    # as passed when some unrelated call shares its name (seed=, label=,
    # transient_rate= to FaultSchedule, ...).  So this catches a knob
    # with a name of its own, not one with a common name.  Resolving
    # each call to its class would also need subclasses (CFFSConfig sets
    # VolumeConfig's fields), ``fmt.Config(...)`` and ``replace(cfg,
    # ...)``, and would flag three faults.chaos.ChaosConfig fields today
    # (sync_every, transient_rate, torn_rate); see ROADMAP.md.
    passed = {keyword.arg
              for base in ("src", "benchmarks", "examples")
              for path in (ROOT / base).rglob("*.py")
              for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
              if isinstance(node, ast.Call)
              for keyword in node.keywords}
    unpassed = {field for _cls, field in config_fields()
                if field not in passed}
    assert unpassed == set(UNPASSED_FIELDS)
