"""The source tree is one contract too: a phase is measured in one
place, and every module is there because something outside the tests
uses it."""

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
