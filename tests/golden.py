"""The golden store: the one reader of ``tests/golden/``.

``pin(name, entries)`` compares each key of ``entries`` with that key of
the JSON file ``tests/golden/<name>``; ``pin_text(name, text)`` compares
``text`` with the whole file (a report, a ``.sha256``, a baseline).  A
mismatch names the file, the first key path at which the values differ
(``Seagate ST31200/requests[412]``) and both values there; a text file
shows the head of a unified diff.  Each file is read once per session.

With ``REPRO_REGEN_GOLDENS=1`` the same calls write instead, only what
moved, and the session ends with one ``moved`` or ``added`` line per key
(``-k`` regenerates a part).  Regenerate only from code whose behaviour
is the accepted baseline; the review is the diff and the printed lines::

    REPRO_REGEN_GOLDENS=1 PYTHONPATH=src python -m pytest tests/test_drive_transcript.py
"""

from __future__ import annotations

import difflib
import json
import os
from pathlib import Path
from typing import Optional

#: The switch that turns every pin into a writer.
ENV = "REPRO_REGEN_GOLDENS"

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: JSON goldens written one top-level key per line, each value a short
#: verdict; every other JSON golden is indented by one space.
ONE_LINE_PER_KEY = frozenset({"fsck_corpus.json"})

#: How much of a value, and how many diff lines, a failure shows.
SHOW_CHARS, SHOW_LINES = 300, 30


class _Absent:
    def __repr__(self) -> str:
        return "<absent>"


_ABSENT = _Absent()


def dumps(name: str, data: dict) -> str:
    """The bytes the store writes for the JSON golden ``name``."""
    if name in ONE_LINE_PER_KEY:
        return "{\n" + ",\n".join(
            "%s: %s" % (json.dumps(key), json.dumps(data[key], sort_keys=True))
            for key in sorted(data)) + "\n}\n"
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


def _first_difference(want, got, path: str) -> tuple:
    """(key path, golden value, computed value) where two unequal JSON
    values first differ: dict keys in sorted order, list items in order."""
    if isinstance(want, dict) and isinstance(got, dict):
        for key in sorted(set(want) | set(got)):
            a, b = want.get(key, _ABSENT), got.get(key, _ABSENT)
            if a != b:
                return _first_difference(a, b, "%s/%s" % (path, key))
    elif isinstance(want, list) and isinstance(got, list):
        for i, (a, b) in enumerate(zip(want, got)):
            if a != b:
                return _first_difference(a, b, "%s[%d]" % (path, i))
        n = min(len(want), len(got))
        return ("%s[%d]" % (path, n), want[n] if n < len(want) else _ABSENT,
                got[n] if n < len(got) else _ABSENT)
    return path, want, got


def _show(value) -> str:
    text = repr(value)
    return text if len(text) <= SHOW_CHARS else text[:SHOW_CHARS] + "..."


class Store:
    """The goldens under ``root``; ``regen`` makes every pin a writer."""

    def __init__(self, root: Path, regen: bool) -> None:
        self.root = Path(root)
        self.regen = regen
        self._text: dict = {}
        self._data: dict = {}
        #: ``moved`` / ``added`` lines of what this session rewrote.
        self.moved: list = []

    def _committed(self, name: str) -> Optional[str]:
        """The committed text of ``name`` (None: no such file)."""
        if name not in self._text:
            path = self.root / name
            self._text[name] = (path.read_text(encoding="utf-8")
                                if path.exists() else None)
        return self._text[name]

    def data(self, name: str) -> dict:
        """The committed JSON value of ``name``."""
        if name not in self._data:
            text = self._committed(name)
            if text is None and not self.regen:
                raise AssertionError("no golden file %s" % self._where(name))
            self._data[name] = {} if text is None else json.loads(text)
        return self._data[name]

    def pin(self, name: str, entries: dict) -> None:
        """Each key of ``entries`` equals that key of JSON golden ``name``."""
        stored = self.data(name)
        values = json.loads(json.dumps(entries))    # as the file holds them
        moved = [key for key in sorted(values)
                 if stored.get(key, _ABSENT) != values[key]]
        if moved and self.regen:
            for key in moved:
                self._note(name, key in stored, key)
                stored[key] = values[key]
            self._write(name, dumps(name, stored))
        elif moved:
            problems = []
            for key in moved:
                path, want, got = _first_difference(
                    stored.get(key, _ABSENT), values[key], key)
                problems.append("%s: %s: golden %s, got %s" % (
                    self._where(name), path, _show(want), _show(got)))
            raise AssertionError("\n".join(problems))

    def pin_text(self, name: str, text: str) -> None:
        """``text`` equals the whole golden file ``name``."""
        stored = self._committed(name)
        if stored == text:
            return
        if self.regen:
            self._note(name, stored is not None)
            self._write(name, text)
            self._data.pop(name, None)
            return
        if stored is None:
            raise AssertionError("no golden file %s" % self._where(name))
        diff = list(difflib.unified_diff(stored.splitlines(True),
                                         text.splitlines(True), "golden", "got"))
        raise AssertionError("%s differs:\n%s" % (
            self._where(name), "".join(diff[:SHOW_LINES])))

    def _where(self, name: str) -> str:
        return os.path.relpath(self.root / name)

    def _note(self, name: str, existed: bool, key: str = "") -> None:
        self.moved.append(("%s %s %s" % ("moved" if existed else "added",
                                         self._where(name), key)).rstrip())

    def _write(self, name: str, text: str) -> None:
        path = self.root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        self._text[name] = text


STORE = Store(GOLDEN_DIR, os.environ.get(ENV) == "1")
pin = STORE.pin
pin_text = STORE.pin_text
data = STORE.data
