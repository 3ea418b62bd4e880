"""Path resolution after the namespace changes under a resolved path.

Every operation names its target by an absolute path, and whatever
speeds up the walk from the root to the parent directory must not let
a path outlive the directory it named.  Each stack and policy of
``tests/test_cache_traffic.py`` (16-block cache) runs scripts that
first resolve a path, then change the namespace under it:

- a directory renamed: its old path is gone, its new path works, and a
  new directory under the old name is a different directory;
- a directory moved under another one: files are created below its new
  path and not below its old one;
- a directory removed and made again: a file created there is listed by
  the new directory only;
- a directory listed, then grown past its first block: the listing
  shows every name;
- ``drop_caches`` between any two steps of the above.

After each script fsck must find the synced image pristine.

It also pins the exception type and message of malformed and hostile
paths: every operation, twice, right after the parent directory was
resolved.
"""

from __future__ import annotations

import pytest

from repro.errors import ReproError
from repro.fsck import check_image
from tests.test_cache_traffic import POLICIES, STACKS


def _outcome(fn):
    try:
        value = fn()
    except ReproError as exc:
        return (type(exc).__name__, str(exc))
    return ("ok", value)


def _missing(fs, parent, name):
    """What a lookup of ``name`` in ``parent`` raises when it is absent."""
    return ("FileNotFound", "no entry %r in directory %d"
            % (name, fs.stat(parent).file_id))


def _ls(fs, path):
    return sorted(fs.readdir(path))


# Each step is (action, check): ``action(fs)`` changes the namespace and
# ``check(fs)`` asserts what every path names afterwards.  The first
# action of a script makes its directories; every check resolves the
# paths it tests at least twice.

def _rename_steps():
    def setup(fs):
        fs.mkdir("/a")
        fs.mkdir("/a/b")
        fs.write_file("/a/b/f", b"f" * 700)

    def rename(fs):
        fs.stat("/a/b/f")
        fs.rename("/a/b", "/a/c")

    def after_rename(fs):
        for _ in range(2):
            assert _outcome(lambda: fs.stat("/a/b/f")) == _missing(fs, "/a", "b")
            assert _outcome(lambda: fs.open("/a/b/f")) == _missing(fs, "/a", "b")
            assert fs.read_file("/a/c/f") == b"f" * 700
        fs.write_file("/a/c/g", b"g")
        assert _ls(fs, "/a/c") == ["f", "g"]
        assert _ls(fs, "/a") == ["c"]

    def remake(fs):
        fs.mkdir("/a/b")
        fs.write_file("/a/b/h", b"h")

    def after_remake(fs):
        assert _ls(fs, "/a/b") == ["h"]
        assert _ls(fs, "/a/c") == ["f", "g"]
        assert fs.read_file("/a/b/h") == b"h"
        assert _outcome(lambda: fs.stat("/a/b/f")) == _missing(fs, "/a/b", "f")

    return [(setup, None), (rename, after_rename), (remake, after_remake)]


def _move_steps():
    def setup(fs):
        fs.mkdir("/m")
        fs.mkdir("/m/n")
        fs.mkdir("/p")
        fs.write_file("/m/n/x", b"x")

    def move(fs):
        fs.stat("/m/n/x")
        fs.read_file("/m/n/x")
        fs.rename("/m/n", "/p/n")

    def after_move(fs):
        fs.write_file("/p/n/y", b"y" * 5000)
        fs.mkdir("/p/n/q")
        fs.create("/p/n/q/z")
        for _ in range(2):
            assert _outcome(lambda: fs.create("/m/n/w")) == _missing(fs, "/m", "n")
            assert _outcome(lambda: fs.stat("/m/n/x")) == _missing(fs, "/m", "n")
        assert _ls(fs, "/p/n") == ["q", "x", "y"]
        assert _ls(fs, "/p/n/q") == ["z"]
        assert _ls(fs, "/m") == []
        assert fs.read_file("/p/n/y") == b"y" * 5000

    def move_back(fs):
        fs.stat("/p/n/q/z")
        fs.rename("/p/n/q", "/m/q")

    def after_move_back(fs):
        fs.create("/m/q/v")
        assert _ls(fs, "/m/q") == ["v", "z"]
        assert _ls(fs, "/p/n") == ["x", "y"]
        assert _outcome(lambda: fs.create("/p/n/q/u")) == _missing(fs, "/p/n", "q")

    return [(setup, None), (move, after_move), (move_back, after_move_back)]


def _rmdir_steps():
    def setup(fs):
        fs.mkdir("/d")
        fs.mkdir("/d/e")
        fs.write_file("/d/e/x", b"x" * 3000)

    def empty(fs):
        fs.stat("/d/e/x")
        fs.unlink("/d/e/x")

    def after_empty(fs):
        for _ in range(2):
            assert _outcome(lambda: fs.stat("/d/e/x")) == _missing(fs, "/d/e", "x")
        assert _ls(fs, "/d/e") == []

    def remove(fs):
        fs.rmdir("/d/e")

    def after_remove(fs):
        for _ in range(2):
            assert _outcome(lambda: fs.create("/d/e/y")) == _missing(fs, "/d", "e")
        assert _ls(fs, "/d") == []

    def remake(fs):
        fs.mkdir("/d/e")
        fs.write_file("/d/e/y", b"y" * 5000)

    def after_remake(fs):
        assert _ls(fs, "/d/e") == ["y"]
        assert _ls(fs, "/d") == ["e"]
        assert fs.read_file("/d/e/y") == b"y" * 5000

    def replace_file(fs):
        # A name that was a file becomes a directory.
        fs.write_file("/d/t", b"t")
        assert _outcome(lambda: fs.create("/d/t/u")) == (
            "NotADirectory", "final path component is not a directory")
        fs.unlink("/d/t")
        fs.mkdir("/d/t")
        fs.create("/d/t/u")

    def after_replace(fs):
        assert _ls(fs, "/d/t") == ["u"]
        assert _ls(fs, "/d") == ["e", "t"]

    return [(setup, None), (empty, after_empty), (remove, after_remove),
            (remake, after_remake), (replace_file, after_replace)]


def _grow_steps():
    # Names long enough that 40 of them fill more than one directory
    # block in either format.
    names = ["%02d" % i + "x" * 200 for i in range(40)]

    def setup(fs):
        fs.mkdir("/g")
        fs.mkdir("/g/h")
        fs.write_file("/g/h/" + names[0], b"0")

    def grow(fs):
        assert _ls(fs, "/g/h") == names[:1]
        for name in names[1:]:
            fs.create("/g/h/" + name)

    def after_grow(fs):
        assert _ls(fs, "/g/h") == names
        assert fs.read_file("/g/h/" + names[0]) == b"0"

    return [(setup, None), (grow, after_grow)]


SCRIPTS = {"rename": _rename_steps, "move": _move_steps, "rmdir": _rmdir_steps,
           "grow": _grow_steps}


def _gaps():
    """(script, gap): ``drop_caches`` runs before step ``gap`` (None: no
    drop at all)."""
    for name, steps in SCRIPTS.items():
        yield name, None
        for gap in range(1, len(steps())):
            yield name, gap


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("stack", sorted(STACKS))
def test_namespace_changes_under_resolved_paths(stack, policy):
    for name, gap in _gaps():
        fs = STACKS[stack](POLICIES[policy])
        for index, (action, check) in enumerate(SCRIPTS[name]()):
            if index == gap:
                fs.drop_caches()
            action(fs)
            if check is not None:
                check(fs)
        fs.sync()
        report = check_image(fs.cache.device)
        assert report.pristine, (name, gap, report.errors)


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("stack", sorted(STACKS))
def test_drop_caches_after_every_step(stack, policy):
    for name, steps in SCRIPTS.items():
        fs = STACKS[stack](POLICIES[policy])
        for action, check in steps():
            action(fs)
            fs.drop_caches()
            if check is not None:
                check(fs)
                fs.drop_caches()
        fs.sync()
        report = check_image(fs.cache.device)
        assert report.pristine, (name, report.errors)


# -- malformed and hostile paths -------------------------------------------

LONG = "n" * 256        # 256 bytes: one too many
WIDE = "€" * 86         # 86 characters, 258 UTF-8 bytes
SURROGATE = "\udc80"    # not encodable as UTF-8

_ABSOLUTE = "paths must be absolute: %r"
_DOTS = "'.' and '..' are not supported in paths: %r"
_NON_ROOT = ("InvalidArgument", "operation requires a non-root path")
_NOT_DIR = ("NotADirectory", "final path component is not a directory")

#: Every operation the table exercises, on one path.
OPS = {
    "stat": lambda fs, p: fs.stat(p).kind.name,
    "create": lambda fs, p: fs.create(p),
    "mkdir": lambda fs, p: fs.mkdir(p),
    "unlink": lambda fs, p: fs.unlink(p),
    "rmdir": lambda fs, p: fs.rmdir(p),
    "open": lambda fs, p: fs.close(fs.open(p)),
    "open_create": lambda fs, p: fs.close(fs.open(p, create=True)),
    "readdir": lambda fs, p: sorted(fs.readdir(p)),
    "link": lambda fs, p: fs.link("/a/b/f", p),
    "truncate": lambda fs, p: fs.truncate(p, 0),
}


def _every_op(outcome):
    return {op: outcome for op in OPS}


def _names_b(path):
    """Outcomes of a path that names directory /a/b (which holds f)."""
    return {
        "stat": ("ok", "DIRECTORY"),
        "create": ("FileExists", "'b' already exists"),
        "mkdir": ("FileExists", "'b' already exists"),
        "unlink": ("IsADirectory", "'b' is a directory (use rmdir)"),
        "rmdir": ("DirectoryNotEmpty", "'b' is not empty"),
        "open": ("IsADirectory", "cannot open a directory for file I/O: %r" % path),
        "open_create": ("IsADirectory",
                        "cannot open a directory for file I/O: %r" % path),
        "readdir": ("ok", ["f"]),
        "link": ("FileExists", "'b' already exists"),
        "truncate": ("IsADirectory", "cannot truncate a directory: %r" % path),
    }


def _names_root(path):
    outcomes = _every_op(_NON_ROOT)
    outcomes.update(
        stat=("ok", "DIRECTORY"), readdir=("ok", ["a", "f"]),
        truncate=("IsADirectory", "cannot truncate a directory: %r" % path))
    return outcomes


EXPECTED = {
    "": _every_op(("InvalidArgument", _ABSOLUTE % "")),
    "a/b/f": _every_op(("InvalidArgument", _ABSOLUTE % "a/b/f")),
    "a/b": _every_op(("InvalidArgument", _ABSOLUTE % "a/b")),
    "f": _every_op(("InvalidArgument", _ABSOLUTE % "f")),
    "/": _names_root("/"),
    "//": _names_root("//"),
    "/a//b": _names_b("/a//b"),
    "/a/b/": _names_b("/a/b/"),
    "/a/./b": _every_op(("InvalidArgument", _DOTS % "/a/./b")),
    "/a/../b": _every_op(("InvalidArgument", _DOTS % "/a/../b")),
    "/a/b/.": _every_op(("InvalidArgument", _DOTS % "/a/b/.")),
    "/a/b/..": _every_op(("InvalidArgument", _DOTS % "/a/b/..")),
    "/a/b/" + LONG: _every_op(
        ("NameTooLong", "component %r exceeds 255 bytes" % LONG)),
    "/a/b/" + WIDE: _every_op(
        ("NameTooLong", "component %r exceeds 255 bytes" % WIDE)),
    "/a/b/" + SURROGATE: _every_op(
        ("InvalidArgument", "component %r is not encodable as UTF-8" % SURROGATE)),
    "/f/x": _every_op(_NOT_DIR),
    "/a/b/f/x": _every_op(_NOT_DIR),
}


def _populated(stack, policy):
    fs = STACKS[stack](policy)
    fs.mkdir("/a")
    fs.mkdir("/a/b")
    fs.write_file("/a/b/f", b"f" * 100)
    fs.write_file("/f", b"r" * 100)
    return fs


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("stack", sorted(STACKS))
def test_malformed_paths_keep_their_errors(stack, policy):
    fs = _populated(stack, POLICIES[policy])
    for path, outcomes in EXPECTED.items():
        for op, fn in OPS.items():
            for _ in range(2):
                # Resolve the parents the hostile paths share first.
                fs.stat("/a/b/f")
                fs.stat("/f")
                assert _outcome(lambda: fn(fs, path)) == outcomes[op], (path, op)
    assert _ls(fs, "/") == ["a", "f"]
    assert _ls(fs, "/a/b") == ["f"]


def test_table_covers_every_op():
    assert all(set(outcomes) == set(OPS) for outcomes in EXPECTED.values())
