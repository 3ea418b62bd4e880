"""The program model (``repro.lint.program``) on a small in-memory
program, and the F001 check that rests on it."""

import ast

from repro.lint import load_source
from repro.lint.program import Program, Unit
from tests.conftest import lint_sources

SOURCES = {
    "src/repro/pkg/__init__.py": "from repro.pkg.impl import Widget, make_widget\n",
    "src/repro/pkg/impl.py": (
        "class Base:\n"
        "    def fresh(self):\n"
        "        pass\n"
        "class Widget(Base):\n"
        "    pass\n"
        "def make_widget():\n"
        "    return Widget()\n"
        "make = Widget.fresh\n"
        "HEADER = '<I'\n"),
    "src/repro/user.py": (
        "import repro.pkg.impl as impl\n"
        "from repro.pkg import Widget, make_widget as build\n"
        "from . import cycle_a\n"
        "class Gadget(impl.Widget):\n"
        "    def run(self):\n"
        "        build(impl.make_widget())\n"),
    "src/repro/cycle_a.py": "from repro.cycle_b import loop\n",
    "src/repro/cycle_b.py": "from repro.cycle_a import loop\n",
}

MODEL = Program(Unit(mod.module, mod.path, mod.tree) for mod in (
    load_source(text, path) for path, text in SOURCES.items()))


def test_names_resolve_through_re_exports_module_imports_and_aliases():
    def means(module, text):
        return MODEL.value(module, ast.parse(text, mode="eval").body)

    impl = "repro.pkg.impl"
    # A package __init__'s re-export, also under ``as``.
    assert means("repro.user", "Widget") == {("def", impl, "Widget")}
    assert means("repro.user", "build") == {("def", impl, "make_widget")}
    # ``import a.b as c``, then an attribute; a method through a base.
    assert means("repro.user", "impl") == {("module", impl)}
    assert means("repro.user", "impl.make_widget") == {
        ("def", impl, "make_widget")}
    assert means("repro.user", "impl.Widget.fresh") == {
        ("method", impl, "Base", "fresh")}
    assert MODEL.bases(("repro.user", "Gadget")) == [(impl, "Widget")]
    # A module-level alias of a method; a value; a relative import.
    assert means(impl, "make") == {("method", impl, "Base", "fresh")}
    assert means(impl, "HEADER") == {("value", impl, "HEADER")}
    assert means("repro.user", "cycle_a") == {("module", "repro.cycle_a")}


def test_an_import_cycle_terminates_with_nothing():
    assert MODEL.resolve("repro.cycle_a", "loop") == frozenset()
    assert MODEL.resolve("repro.cycle_b", "loop") == frozenset()


def test_calls_carry_their_class_and_def():
    assert [(cls, func.name, ast.unparse(call.func))
            for module, cls, func, call in MODEL.calls()
            if module == "repro.user"] == [
        (("repro.user", "Gadget"), "run", "build"),
        (("repro.user", "Gadget"), "run", "impl.make_widget")]


def test_f001_follows_a_format_built_from_an_imported_constant():
    # The constant is renamed by a package re-export on the way.
    def f001(record):
        return [f.message for f in lint_sources({
            "src/repro/fmt/layout.py": "HEADER = '<I'\nNATIVE = 'I'\n",
            "src/repro/fmt/__init__.py":
                "from repro.fmt.layout import HEADER as HDR, NATIVE\n",
            "src/repro/fmt/record.py":
                "import struct\nfrom repro.fmt import HDR, NATIVE\n"
                "RECORD = %s\ndef pack(a, b):\n"
                "    return struct.pack(RECORD, a, b)\n" % record,
        }).findings if f.rule == "F001"]

    assert f001("HDR + 'H'") == []
    assert f001("HDR + 'HH'") == [
        "struct format '<IHH' consumes 3 value(s) but the call passes 2"]
    assert f001("NATIVE + 'H'") == [
        "struct format 'IH' has no explicit byte-order marker (< or >): "
        "native order and alignment are host-dependent"]
