"""The command line is one contract: every subcommand a document or the
CI workflow tells a reader to run exists, a bad file-system label is the
same clean error on every subcommand that takes one, and the options of
every subcommand are pinned (``tests/golden/cli_parser.json``).  A change
that adds, removes or re-defaults an option regenerates that golden on
purpose (``tests/golden.py``).
"""

import argparse
import json
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from tests import golden

ROOT = Path(__file__).resolve().parent.parent

#: Where commands are written down for people and for CI to run.
DOCUMENTS = sorted(
    [ROOT / ".github" / "workflows" / "ci.yml",
     ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
     ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]
    + list((ROOT / "docs").glob("*.md")))

#: ``python -m repro <sub>``, ``python -m repro.cli <sub>`` and the
#: shorthand ``repro <sub>`` inside backticks.  A placeholder such as
#: ``<cmd>`` does not start with a letter and is not a command.
_COMMAND = re.compile(r"(?:python3? -m repro(?:\.cli)?|`repro) +([a-z][a-z-]*)")


def _subparsers():
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _registered():
    return set(_subparsers())


def _pinned_options() -> dict:
    """Subcommand -> action ``dest`` -> its ``default`` and ``choices``,
    as JSON values.  Keyed by ``dest``, so declaration order (which only
    the help text shows) is not pinned."""
    def plain(value):
        return list(value) if isinstance(value, tuple) else value

    return {name: {a.dest: {"default": plain(a.default),
                            "choices": plain(a.choices)}
                   for a in p._actions}
            for name, p in _subparsers().items()}


def test_parser_is_pinned():
    options = _pinned_options()
    assert len(options) == 19
    assert all(len(actions) == len(p._actions)      # no dest declared twice
               for actions, p in zip(options.values(),
                                     _subparsers().values()))
    golden.pin_text("cli_parser.json",
                    json.dumps(options, indent=1, sort_keys=True) + "\n")


def test_every_documented_command_is_a_registered_subcommand():
    registered = _registered()
    found = 0
    stale = []
    for path in DOCUMENTS:
        text = path.read_text(encoding="utf-8")
        for lineno, line in enumerate(text.splitlines(), 1):
            for name in _COMMAND.findall(line):
                found += 1
                if name not in registered:
                    stale.append("%s:%d: repro %s"
                                 % (path.relative_to(ROOT), lineno, name))
    assert found > 50          # the pattern still finds the commands
    assert not stale, "no such subcommand:\n" + "\n".join(stale)


@pytest.mark.parametrize("argv", [
    ["bench", "--configs", "nosuch", "--files", "10"],
    ["trace", "--fs", "nosuch", "--files", "5"],
    ["multiclient", "--fs", "nosuch", "--clients", "2"],
    ["cluster", "--fs", "nosuch", "--clients", "2", "--shards", "2"],
])
def test_unknown_file_system_is_one_clean_error(argv, tmp_path, capsys,
                                                monkeypatch):
    monkeypatch.chdir(tmp_path)    # `trace` would write its default output
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.endswith(
        "error: unknown file system 'nosuch'; known: ffs, conventional, "
        "embedded, grouping, cffs\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["put", "IMG", "DIR", "/g"],
    ["get", "IMG", "/f", "DIR"],
    ["mkfs", "DIR"],
    ["ls", "DIR"],
    ["trace", "--files", "5", "--out", "DIR"],
])
def test_a_directory_given_for_a_file_is_one_clean_error(argv, tmp_path,
                                                         capsys):
    paths = {"DIR": str(tmp_path)}
    if "IMG" in argv:
        paths["IMG"] = str(tmp_path / "v.img")
        (tmp_path / "h.txt").write_bytes(b"hello")
        assert main(["mkfs", paths["IMG"]]) == 0
        assert main(["put", paths["IMG"], str(tmp_path / "h.txt"), "/f"]) == 0
        capsys.readouterr()
    assert main([paths.get(arg, arg) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_bench_accepts_the_ffs_alias_its_error_names(capsys):
    assert main(["bench", "--configs", "ffs", "--files", "5"]) == 0
    assert "ffs " in capsys.readouterr().out
