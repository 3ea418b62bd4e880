"""The command line is one contract: every subcommand a document or the
CI workflow tells a reader to run exists, and a bad file-system label
is the same clean error on every subcommand that takes one."""

import argparse
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main

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


def _registered():
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    return set(sub.choices)


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


def test_bench_accepts_the_ffs_alias_its_error_names(capsys):
    assert main(["bench", "--configs", "ffs", "--files", "5"]) == 0
    assert "ffs " in capsys.readouterr().out
