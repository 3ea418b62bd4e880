"""The golden store (``tests/golden.py``): its contract with the committed
files, and how it compares and regenerates, on a store in ``tmp_path``."""

import json
import re
from pathlib import Path

import pytest

from tests import golden
from tests.golden import Store

TESTS = Path(__file__).resolve().parent


#: A pin that names its file literally.
_PIN = re.compile(r'golden\.(pin|pin_text)\(\s*"([^"]+)",')


def _pins() -> set:
    """(form, file) of every pin under tests/ and of the report manifest."""
    from tests.test_report_goldens import GOLDENS as REPORTS
    return {("pin_text", name) for name in REPORTS} | {
        match.groups() for path in TESTS.glob("*.py")
        for match in _PIN.finditer(path.read_text(encoding="utf-8"))}


def test_every_golden_file_is_pinned_and_every_pin_has_a_file():
    pins = _pins()
    pinned = {name for _form, name in pins}
    committed = {path.relative_to(golden.GOLDEN_DIR).as_posix()
                 for path in golden.GOLDEN_DIR.rglob("*") if path.is_file()}
    assert len(pinned) > 40              # the scan still finds the pins
    assert not committed - pinned, "orphaned: %s" % sorted(committed - pinned)
    assert not pinned - committed, "missing: %s" % sorted(pinned - committed)
    # A regenerated key rewrites only its own lines if the rest of the
    # file is already in the layout the store writes.
    for form, name in sorted(pins):
        if form == "pin":
            text = (golden.GOLDEN_DIR / name).read_text(encoding="utf-8")
            assert golden.dumps(name, json.loads(text)) == text, name


def test_only_the_store_reads_the_regeneration_switch():
    readers = [path.relative_to(TESTS.parent).as_posix()
               for path in sorted(TESTS.rglob("*.py"))
               if path != TESTS / "golden.py"
               and golden.ENV in path.read_text(encoding="utf-8")]
    assert not readers, "read %s outside tests/golden.py: %s" % (
        golden.ENV, readers)


# -- the store on its own --------------------------------------------------------

GOLDEN = {"a": {"xs": [1, {"y": 2}], "z": "q"}, "b": [1, 2]}


@pytest.fixture
def root(tmp_path):
    (tmp_path / "t.json").write_text(golden.dumps("t.json", GOLDEN))
    (tmp_path / "x.txt").write_text("one\ntwo\n")
    return tmp_path


def _failure(call, *args) -> str:
    with pytest.raises(AssertionError) as info:
        call(*args)
    return str(info.value)


def test_a_mismatch_names_the_first_differing_path_and_both_values(root):
    pin = Store(root, regen=False).pin
    pin("t.json", GOLDEN)                       # a match passes
    pin("t.json", {"b": [1, 2]})
    assert _failure(pin, "t.json", {"a": {"xs": [1, {"y": 3}], "z": "p"}}) \
        .endswith("t.json: a/xs[1]/y: golden 2, got 3")
    assert _failure(pin, "t.json", {"b": [1, 2, 3]}) \
        .endswith("t.json: b[2]: golden <absent>, got 3")
    # Every moved key is named, each at its first difference.
    message = _failure(pin, "t.json", {"a": {"xs": [1, {}]}, "b": []})
    assert "t.json: a/xs[1]/y: golden 2, got <absent>\n" in message
    assert message.endswith("t.json: b[0]: golden 1, got <absent>")


def test_a_key_or_file_missing_from_the_goldens_fails(root):
    store = Store(root, regen=False)
    assert _failure(store.pin, "t.json", {"c": 1}).endswith(
        "t.json: c: golden <absent>, got 1")
    assert "no golden file" in _failure(store.pin, "u.json", {"c": 1})
    assert "no golden file" in _failure(store.pin_text, "y.txt", "")


def test_regeneration_writes_only_the_moved_keys(root):
    before = (root / "t.json").read_text()
    store = Store(root, regen=True)
    store.pin("t.json", {"a": GOLDEN["a"], "b": [1, 2, 3], "c": "new"})
    after = (root / "t.json").read_text()
    # Key "a" did not move: its bytes are the file's head, unchanged.
    assert after.startswith(before[:before.index('\n "b"')])
    assert json.loads(after) == dict(GOLDEN, b=[1, 2, 3], c="new")
    assert [line.split()[0] for line in store.moved] == ["moved", "added"]
    assert store.moved[0].endswith("t.json b")
    assert store.moved[1].endswith("t.json c")
    # A key that did not move is not written again.
    (root / "t.json").write_text("untouched")
    store.pin("t.json", {"c": "new"})
    assert (root / "t.json").read_text() == "untouched"


def test_the_text_form(root):
    Store(root, regen=False).pin_text("x.txt", "one\ntwo\n")
    message = _failure(Store(root, regen=False).pin_text, "x.txt", "one\nTWO\n")
    assert "x.txt differs:\n" in message and "@@ -1,2 +1,2 @@" in message
    assert "\n-two\n" in message and "\n+TWO\n" in message
    store = Store(root, regen=True)
    store.pin_text("x.txt", "one\nTWO\n")
    store.pin_text("r/new.txt", "fresh\n")
    assert (root / "x.txt").read_text() == "one\nTWO\n"
    assert (root / "r" / "new.txt").read_text() == "fresh\n"
    assert [line.split()[0] for line in store.moved] == ["moved", "added"]
    assert store.moved[0].endswith("x.txt")
