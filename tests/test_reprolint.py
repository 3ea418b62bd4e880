"""reprolint rule tests: each rule has a trigger and a non-trigger
fixture, suppression directives are honoured, and the JSON reporter is
byte-stable."""

import json

import pytest

from repro.errors import ReproError
from repro.lint import rule_catalog
from repro.lint.core import LintError, module_name_of
from repro.lint.reporters import render_json, render_text
from repro.lint.rules.structfmt import count_format_values
from tests.conftest import lint_sources
from tests.test_reprolint_selfhost import position_free_report


def rules_of(result, suppressed=None):
    """Set of rule ids among the result's findings.

    suppressed=None counts all findings; True/False filters.
    """
    return {
        f.rule
        for f in result.findings
        if suppressed is None or f.suppressed is suppressed
    }


# -- harness basics -----------------------------------------------------------


def test_module_name_derivation():
    assert module_name_of("src/repro/ffs/alloc.py") == "repro.ffs.alloc"
    assert module_name_of("src/repro/cli.py") == "repro.cli"
    assert module_name_of("src/repro/ffs/__init__.py") == "repro.ffs"
    assert module_name_of("scratch.py") == "scratch"


def test_syntax_error_raises_lint_error():
    with pytest.raises(LintError):
        lint_sources({"src/repro/ffs/bad.py": "def broken(:\n"})


def test_unknown_rule_id_rejected():
    with pytest.raises(LintError):
        lint_sources({"src/repro/ok.py": "x = 1\n"}, rule_ids=["Z999"])


def test_rule_catalog_lists_all_rules():
    assert set(rule_catalog()) == {
        "L001", "D001", "E001", "F001", "S001",  # AST rules
        "J001", "O001",                          # flow rules
    }


# -- L001 layering ------------------------------------------------------------


def test_l001_ffs_importing_disk_is_flagged():
    # The ISSUE's canary: reintroducing a direct disk import in the
    # file-system layer must fail the lint run.
    result = lint_sources({
        "src/repro/ffs/filesystem.py": "from repro.disk.drive import Drive\n",
    })
    assert "L001" in rules_of(result, suppressed=False)
    assert not result.ok


def test_l001_respects_layer_dag():
    result = lint_sources({
        "src/repro/cache/buffercache.py": (
            "from repro.blockdev.device import BlockDevice\n"
        ),
        "src/repro/blockdev/device.py": "from repro.disk.drive import Drive\n",
    })
    assert result.ok


def test_l001_structural_names_allowed_io_device_import_not():
    ok = lint_sources({
        "src/repro/ffs/layout.py": (
            "from repro.blockdev.device import BLOCK_SIZE, BlockDevice\n"
        ),
    })
    assert ok.ok
    bad = lint_sources({
        "src/repro/vfs/interface.py": (
            "from repro.blockdev.device import request_cost\n"
        ),
    })
    assert "L001" in rules_of(bad, suppressed=False)


def test_l001_direct_device_io_call_flagged_cache_access_not():
    bad = lint_sources({
        "src/repro/core/filesystem.py": (
            "class FS:\n"
            "    def read(self, bno):\n"
            "        return self.cache.device.read_block(bno)\n"
        ),
    })
    assert "L001" in rules_of(bad, suppressed=False)
    ok = lint_sources({
        "src/repro/core/filesystem.py": (
            "class FS:\n"
            "    def read(self, bno):\n"
            "        return self.cache.get(bno).data\n"
        ),
    })
    assert ok.ok


def test_l001_workloads_must_stay_above_vfs():
    result = lint_sources({
        "src/repro/workloads/smallfile.py": (
            "from repro.vfs.interface import VFS\n"
            "from repro.cache.buffercache import BufferCache\n"
        ),
    })
    flagged = [f for f in result.unsuppressed if f.rule == "L001"]
    assert len(flagged) == 1
    assert "buffercache" in flagged[0].message


def test_l001_utility_modules_importable_everywhere():
    result = lint_sources({
        "src/repro/disk/drive.py": (
            "from repro.errors import ReproError\nfrom repro.clock import SimClock\n"
        ),
    })
    assert result.ok


def test_l001_obs_importable_from_every_layer():
    result = lint_sources({
        "src/repro/disk/drive.py": "from repro import obs\n",
        "src/repro/cache/buffercache.py": "from repro import obs\n",
        "src/repro/vfs/interface.py": "from repro import obs\n",
        "src/repro/core/filesystem.py": "from repro import obs\n",
        "src/repro/engine/diskqueue.py": "from repro import obs\n",
    })
    assert result.ok


def test_l001_obs_itself_must_stay_a_leaf():
    ok = lint_sources({
        "src/repro/obs/tracer.py": (
            "from repro.clock import SimClock\n"
            "from repro.errors import InvalidArgument\n"
        ),
    })
    assert ok.ok
    bad = lint_sources({
        "src/repro/obs/tracer.py": (
            "from repro.cache.buffercache import BufferCache\n"
        ),
    })
    flagged = [f for f in bad.unsuppressed if f.rule == "L001"]
    assert len(flagged) == 1
    assert "obs" in flagged[0].message


def test_l001_journal_layer_dependencies():
    # The crash-consistency subsystem sits between the cache and the
    # file systems: it may drive the device and the cache (it IS the
    # cache's write pipeline) and reuse the resilience checksums...
    ok = lint_sources({
        "src/repro/journal/wal.py": (
            "from repro.blockdev.device import BlockDevice\n"
            "from repro.cache.buffercache import BufferCache\n"
            "from repro.resilience.checksums import crc32\n"
        ),
        "src/repro/ffs/base.py": "from repro.journal import attach_pipeline\n",
        "src/repro/fsck/checker.py": "from repro.journal import replay_journal\n",
    })
    assert ok.ok
    # ...but must never reach up into the formats that depend on it
    # (geometry is handed in by the callers, keeping the DAG acyclic).
    bad = lint_sources({
        "src/repro/journal/recovery.py": (
            "from repro.ffs import layout as flayout\n"
            "from repro.core import layout as clayout\n"
        ),
    })
    flagged = [f for f in bad.unsuppressed if f.rule == "L001"]
    assert len(flagged) == 2
    assert all("journal" in f.message for f in flagged)


# -- D001 determinism ---------------------------------------------------------


def test_d001_wall_clock_flagged():
    result = lint_sources({
        "src/repro/engine/run.py": (
            "import time\n\ndef now():\n    return time.time()\n"
        ),
    })
    assert "D001" in rules_of(result, suppressed=False)


def test_d001_module_level_random_flagged_seeded_rng_not():
    bad = lint_sources({
        "src/repro/workloads/gen.py": (
            "import random\n\ndef pick():\n    return random.randint(0, 9)\n"
        ),
    })
    assert "D001" in rules_of(bad, suppressed=False)
    ok = lint_sources({
        "src/repro/workloads/gen.py": (
            "import random\n\n"
            "def make_rng(seed):\n    return random.Random(seed)\n"
        ),
    })
    assert ok.ok


def test_d001_datetime_now_flagged():
    result = lint_sources({
        "src/repro/analysis/report.py": (
            "import datetime\n\n"
            "def stamp():\n    return datetime.datetime.now()\n"
        ),
    })
    assert "D001" in rules_of(result, suppressed=False)


def test_d001_simclock_usage_clean():
    result = lint_sources({
        "src/repro/engine/run.py": (
            "from repro.clock import SimClock\n\n"
            "def now(clock):\n    return clock.now()\n"
        ),
    })
    assert result.ok


def test_d001_tracer_simclock_stamping_clean():
    # The tracer stamps spans from the shared SimClock — the exact
    # pattern obs uses.  D001 must not mistake it for wall-clock use.
    result = lint_sources({
        "src/repro/obs/tracer.py": (
            "from repro.clock import SimClock\n\n"
            "class Tracer:\n"
            "    def __init__(self, clock=None):\n"
            "        self.clock = clock if clock is not None else SimClock()\n"
            "    def _enter(self, span):\n"
            "        span.start = self.clock.now\n"
            "    def _exit(self, span):\n"
            "        span.end = self.clock.now\n"
        ),
    })
    assert result.ok


def test_d001_builtin_hash_flagged_outside_dunder_hash():
    # The bug this rule was added for: a replay payload seeded from the
    # per-process salted hash of its path.
    result = lint_sources({
        "src/repro/workloads/trace.py": (
            "def _payload(path, offset):\n"
            "    return hash((path, offset)) & 0xFF\n"
        ),
    })
    assert "D001" in rules_of(result, suppressed=False)


def test_d001_hash_inside_dunder_hash_and_crc32_clean():
    result = lint_sources({
        "src/repro/engine/diskqueue.py": (
            "import zlib\n\n"
            "class Key:\n"
            "    def __hash__(self):\n"
            "        return hash((self.a, self.b))\n\n"
            "def seed(path):\n"
            "    return zlib.crc32(path.encode()) & 0xFF\n"
        ),
    })
    assert result.ok


# -- E001 error taxonomy ------------------------------------------------------


def test_e001_bare_except_and_generic_raise_flagged():
    result = lint_sources({
        "src/repro/fsck/checker.py": (
            "def scan():\n"
            "    try:\n"
            "        pass\n"
            "    except:\n"
            "        raise Exception('boom')\n"
        ),
    })
    findings = [f for f in result.unsuppressed if f.rule == "E001"]
    assert len(findings) == 2


def test_e001_taxonomy_and_contract_errors_clean():
    result = lint_sources({
        "src/repro/fsck/checker.py": (
            "from repro.errors import ReproError\n\n"
            "def scan(n):\n"
            "    if n < 0:\n"
            "        raise ValueError('negative')\n"
            "    try:\n"
            "        pass\n"
            "    except ReproError:\n"
            "        raise\n"
        ),
    })
    assert result.ok


def test_e001_resilience_errors_are_registered():
    # The self-healing additions are part of the taxonomy E001 reads
    # from the live errors module.
    from repro.lint.rules.errors_rule import TAXONOMY

    assert {"ChecksumError", "DeviceDegraded", "ReadOnlyFileSystem",
            "LintError", "ReproError"} <= TAXONOMY
    result = lint_sources({
        "src/repro/resilience/device.py": (
            "from repro.errors import ChecksumError, ReadOnlyFileSystem\n\n"
            "def verify(ok):\n"
            "    if not ok:\n"
            "        raise ChecksumError('mismatch')\n"
            "    try:\n"
            "        pass\n"
            "    except (ChecksumError, ReadOnlyFileSystem):\n"
            "        raise\n"
        ),
    })
    assert result.ok


def test_e001_broad_except_exception_flagged():
    result = lint_sources({
        "src/repro/faults/chaos.py": (
            "def soak():\n"
            "    try:\n"
            "        pass\n"
            "    except (ValueError, Exception):\n"
            "        pass\n"
        ),
    })
    findings = [f for f in result.unsuppressed if f.rule == "E001"]
    assert len(findings) == 1
    assert "as broad as a bare except" in findings[0].message


def test_e001_exception_class_outside_taxonomy_flagged():
    result = lint_sources({
        "src/repro/resilience/device.py": (
            "from repro.errors import MediaError\n\n"
            "class ScrubFailed(MediaError):\n"
            "    pass\n"
        ),
    })
    findings = [f for f in result.unsuppressed if f.rule == "E001"]
    assert len(findings) == 1
    assert "register it in the central taxonomy" in findings[0].message


def test_e001_classes_inside_errors_module_allowed():
    result = lint_sources({
        "src/repro/errors.py": (
            "class ReproError(Exception):\n"
            "    pass\n\n"
            "class ScrubFailed(ReproError):\n"
            "    pass\n"
        ),
    })
    assert result.ok


def test_e001_shard_context_annotation_idiom_is_clean():
    # The cluster facade's error-mapping idiom: catch a taxonomy tuple,
    # stamp shard context onto the exception, re-raise it unchanged.
    # E001 must accept it — the taxonomy type survives, only the
    # message and the ``shard`` attribute gain context.
    result = lint_sources({
        "src/repro/cluster/facade.py": (
            "from repro.errors import MediaWriteError, ReproError\n\n"
            "def shard_call(shard, fn):\n"
            "    try:\n"
            "        return fn()\n"
            "    except MediaWriteError as exc:\n"
            "        exc.shard = shard.sid\n"
            "        exc.args = ('s%d: %s' % (shard.sid, exc),)\n"
            "        raise\n"
            "    except ReproError as exc:\n"
            "        exc.shard = shard.sid\n"
            "        raise exc\n"
        ),
    })
    assert result.ok


def test_e001_swallowing_a_taxonomy_tuple_still_needs_narrow_types():
    # Widening the same idiom's catch to Exception must still trip.
    result = lint_sources({
        "src/repro/cluster/facade.py": (
            "def shard_call(shard, fn):\n"
            "    try:\n"
            "        return fn()\n"
            "    except Exception as exc:\n"
            "        exc.shard = shard.sid\n"
            "        raise\n"
        ),
    })
    findings = [f for f in result.unsuppressed if f.rule == "E001"]
    assert len(findings) == 1


# -- F001 struct formats ------------------------------------------------------


def test_count_format_values():
    assert count_format_values("<IHBB") == 4
    assert count_format_values("<I 4x H") == 2  # pad bytes consume nothing
    assert count_format_values("<3I 8s") == 4  # s is one value despite count
    assert count_format_values("<2H3B") == 5


def test_f001_missing_endianness_flagged():
    result = lint_sources({
        "src/repro/ffs/layout.py": (
            "import struct\n\n"
            "def pack(a, b):\n    return struct.pack('IH', a, b)\n"
        ),
    })
    findings = [f for f in result.unsuppressed if f.rule == "F001"]
    assert len(findings) == 1
    assert "byte-order" in findings[0].message


def test_f001_arity_mismatch_flagged():
    result = lint_sources({
        "src/repro/ffs/layout.py": (
            "import struct\n\n"
            "def pack(a):\n    return struct.pack('<IH', a)\n"
        ),
    })
    assert any(
        f.rule == "F001" and "2 value" in f.message for f in result.unsuppressed
    )


def test_f001_resolves_constant_across_modules():
    result = lint_sources({
        "src/repro/ffs/layout.py": (
            "HEADER_FMT = '<IHBB'\n"
        ),
        "src/repro/fsck/checker.py": (
            "import struct\n"
            "from repro.ffs.layout import HEADER_FMT\n\n"
            "def parse(raw):\n"
            "    a, b = struct.unpack(HEADER_FMT, raw)\n"
            "    return a, b\n"
        ),
    })
    assert any(
        f.rule == "F001" and "4 value" in f.message for f in result.unsuppressed
    )


_REC_LAYOUT = "import struct\n\nREC = struct.Struct('<II')\n"


def _f001(result):
    return [(f.path, f.message) for f in result.unsuppressed if f.rule == "F001"]


def test_f001_checks_an_imported_struct():
    result = lint_sources({
        "src/repro/fmt/layout.py": _REC_LAYOUT,
        "src/repro/fmt/user.py": (
            "from repro.fmt.layout import REC\n\n"
            "def pack(a):\n    return REC.pack(a)\n"
        ),
    })
    assert _f001(result) == [(
        "src/repro/fmt/user.py",
        "struct format '<II' consumes 2 value(s) but the call passes 1")]


def test_f001_checks_pack_into_arity():
    result = lint_sources({
        "src/repro/fmt/layout.py": _REC_LAYOUT + (
            "\ndef store(b, a):\n    REC.pack_into(b, 0, a)\n"
        ),
    })
    assert _f001(result) == [(
        "src/repro/fmt/layout.py",
        "struct format '<II' consumes 2 value(s) but the call passes 1")]


def test_f001_checks_unpack_from_through_a_module_attribute():
    result = lint_sources({
        "src/repro/fmt/layout.py": _REC_LAYOUT,
        "src/repro/fmt/user.py": (
            "from repro.fmt import layout\n\n"
            "def parse(b):\n"
            "    x, y, z = layout.REC.unpack_from(b, 0)\n"
            "    return x\n"
        ),
    })
    assert _f001(result) == [(
        "src/repro/fmt/user.py",
        "struct format '<II' produces 2 value(s) but the assignment "
        "unpacks 3")]


def test_f001_imported_struct_used_correctly_is_clean():
    result = lint_sources({
        "src/repro/fmt/layout.py": _REC_LAYOUT,
        "src/repro/fmt/user.py": (
            "from repro.fmt import layout\n"
            "from repro.fmt.layout import REC as R\n\n"
            "def roundtrip(b, a):\n"
            "    R.pack_into(b, 4, a, a)\n"
            "    x, y = layout.REC.unpack_from(b, 4)\n"
            "    return R.pack(x, y)\n"
        ),
    })
    assert result.ok


def test_f001_correct_usage_clean():
    result = lint_sources({
        "src/repro/ffs/layout.py": (
            "import struct\n\n"
            "FMT = '<IHBB'\n"
            "S = struct.Struct('<2I')\n\n"
            "def roundtrip(a, b, c, d):\n"
            "    raw = struct.pack(FMT, a, b, c, d)\n"
            "    w, x, y, z = struct.unpack(FMT, raw)\n"
            "    return S.pack(w, x)\n"
        ),
    })
    assert result.ok


# -- suppression --------------------------------------------------------------


def test_same_line_suppression():
    result = lint_sources({
        "src/repro/ffs/filesystem.py": (
            "from repro.disk.drive import Drive"
            "  # reprolint: disable=L001 -- fixture\n"
        ),
    })
    assert result.ok
    assert "L001" in rules_of(result, suppressed=True)


def test_comment_line_suppresses_next_line_only():
    result = lint_sources({
        "src/repro/ffs/filesystem.py": (
            "# reprolint: disable=L001 -- fixture\n"
            "from repro.disk.drive import Drive\n"
            "from repro.disk.profiles import SEAGATE_ST31200\n"
        ),
    })
    assert len(result.suppressed) == 1
    assert len(result.unsuppressed) == 1


def test_file_wide_suppression():
    result = lint_sources({
        "src/repro/ffs/filesystem.py": (
            "# reprolint: disable-file=L001 -- fixture\n"
            "from repro.disk.drive import Drive\n"
            "from repro.disk.profiles import SEAGATE_ST31200\n"
        ),
    })
    assert result.ok
    assert len(result.suppressed) == 2


def test_suppression_is_per_rule():
    # A D001 directive must not hide an L001 finding on the same line.
    result = lint_sources({
        "src/repro/ffs/filesystem.py": (
            "from repro.disk.drive import Drive  # reprolint: disable=D001\n"
        ),
    })
    assert "L001" in rules_of(result, suppressed=False)


# -- S001 suppression hygiene -------------------------------------------------


def test_s001_bare_suppression_is_a_finding():
    result = lint_sources({
        "src/repro/ffs/filesystem.py": (
            "from repro.disk.drive import Drive  # reprolint: disable=L001\n"
        ),
    })
    assert "S001" in rules_of(result, suppressed=False)
    assert not result.ok


def test_s001_rationale_clears_the_finding():
    result = lint_sources({
        "src/repro/ffs/filesystem.py": (
            "from repro.disk.drive import Drive"
            "  # reprolint: disable=L001 -- factory assembles the stack\n"
        ),
    })
    assert "S001" not in rules_of(result)
    assert result.ok


def test_s001_rationale_separator_is_optional():
    # Prose straight after the ids counts; the -- separator is style.
    result = lint_sources({
        "src/repro/ffs/filesystem.py": (
            "from repro.disk.drive import Drive"
            "  # reprolint: disable=L001 factory wiring only\n"
        ),
    })
    assert "S001" not in rules_of(result)


def test_s001_applies_to_file_wide_directives():
    result = lint_sources({
        "src/repro/ffs/filesystem.py": (
            "# reprolint: disable-file=L001\n"
            "from repro.disk.drive import Drive\n"
        ),
    })
    assert "S001" in rules_of(result, suppressed=False)


def test_directive_in_docstring_is_not_a_directive():
    # The suppression scanner reads comment tokens, so directive-shaped
    # text inside a docstring neither suppresses nor trips S001.
    result = lint_sources({
        "src/repro/ffs/filesystem.py": (
            '"""Docs: use ``# reprolint: disable=L001`` to suppress."""\n'
            "from repro.disk.drive import Drive\n"
        ),
    })
    assert "S001" not in rules_of(result)
    assert "L001" in rules_of(result, suppressed=False)


# -- deterministic report order ----------------------------------------------


def test_findings_sorted_by_path_line_rule():
    from repro.lint.core import Finding, findings_sorted

    def f(path, line, rule, col):
        return Finding(rule=rule, message="m", path=path,
                       module="repro.x", line=line, col=col)

    shuffled = [
        f("b.py", 1, "L001", 0),
        f("a.py", 2, "D001", 9),
        f("a.py", 2, "A001", 30),  # later col, earlier rule id
        f("a.py", 1, "L001", 0),
    ]
    ordered = findings_sorted(shuffled)
    key = [(x.path, x.line, x.rule) for x in ordered]
    assert key == [
        ("a.py", 1, "L001"),
        ("a.py", 2, "A001"),
        ("a.py", 2, "D001"),
        ("b.py", 1, "L001"),
    ]


# -- reporters ---------------------------------------------------------------


def test_text_reporter_format():
    result = lint_sources({
        "src/repro/ffs/filesystem.py": "from repro.disk.drive import Drive\n",
    })
    text = render_text(result)
    assert "src/repro/ffs/filesystem.py:1:1: L001" in text
    assert text.splitlines()[-1] == (
        "checked 1 file(s), 7 rule(s): 1 finding(s), 0 suppressed"
    )


def test_json_reporter_golden():
    result = lint_sources(
        {
            "src/repro/ffs/filesystem.py": (
                "from repro.disk.drive import Drive\n"
            ),
        },
        rule_ids=["L001"],
    )
    payload = json.loads(render_json(result))
    assert payload == {
        "tool": "reprolint",
        "rules": {
            "L001": "layering: imports and device I/O must follow the layer DAG"
        },
        "files_checked": 1,
        "findings": [
            {
                "rule": "L001",
                "message": (
                    "repro.ffs.filesystem imports repro.disk.drive: layer "
                    "'ffs' may only depend on cache, clock, errors, journal, "
                    "obs, vfs"
                ),
                "path": "src/repro/ffs/filesystem.py",
                "module": "repro.ffs.filesystem",
                "line": 1,
                "col": 1,
                "suppressed": False,
            }
        ],
        "counts": {"unsuppressed": 1, "suppressed": 0},
        "ok": False,
    }
    # Stable output: serialising twice is byte-identical.
    assert render_json(result) == render_json(result)


def test_baseline_report_is_position_free():
    body = (
        "class Store:\n"
        "    def load(self, dev):\n"
        "        dev.read_block(1)\n"
        "        dev.read_block(2)\n"
    )
    before = lint_sources({"src/repro/ffs/store.py": body}, rule_ids=["L001"])
    # Same findings after the code moves down and another file appears.
    after = lint_sources({
        "src/repro/ffs/store.py": "import struct\n\n\n" + body,
        "src/repro/ffs/other.py": "X = 1\n",
    }, rule_ids=["L001"])
    assert render_json(before) != render_json(after)
    assert position_free_report(before) == position_free_report(after)
    findings = json.loads(position_free_report(before))["findings"]
    assert [(f["function"], f["occurrence"]) for f in findings] == [
        ("Store.load", 0), ("Store.load", 1)]
    assert not {"line", "col", "path"} & set(findings[0])
    # A finding that moves to another function does move the baseline.
    moved = lint_sources({
        "src/repro/ffs/store.py": body.replace("def load", "def fetch"),
    }, rule_ids=["L001"])
    assert position_free_report(moved) != position_free_report(before)


def test_lint_error_is_repro_error():
    assert issubclass(LintError, ReproError)
