"""Flow-engine tests: CFG shape, dataflow solvers, call-graph
summaries, and trigger/non-trigger fixtures for the two flow rules
(J001 journal ordering, O001 hot-path discipline), plus a JSON-report
golden for a flow rule's finding.

Every trigger fixture is the pre-fix shape of a pattern that really
existed in the tree (e.g. J001's mutate-check-raise mirrors the old
``_dir_remove_entry``); the paired non-trigger fixture is the shipped
fix, so the rules provably separate the two.
"""

import ast
import json
import textwrap

from repro.lint.core import load_source
from repro.lint.flow import (
    FlowContext,
    build_cfg,
    must_reach_after,
    node_calls,
)
from repro.lint.reporters import render_json
from tests.conftest import lint_sources


def rules_of(result, suppressed=None):
    return {
        f.rule
        for f in result.findings
        if suppressed is None or f.suppressed is suppressed
    }


def _func(source):
    tree = ast.parse(textwrap.dedent(source))
    return tree.body[0]


# -- CFG construction ---------------------------------------------------------


def test_cfg_if_else_branches_rejoin():
    cfg = build_cfg(_func(
        """
        def f(x):
            if x:
                a = 1
            else:
                a = 2
            return a
        """))
    stmts = {n.index: type(n.stmt).__name__ for n in cfg.real_nodes()}
    if_node = next(n for n in cfg.real_nodes() if stmts[n.index] == "If")
    assert len(if_node.succs) == 2
    ret = next(n for n in cfg.real_nodes() if stmts[n.index] == "Return")
    # Both assignment arms flow into the return.
    assigns = [n for n in cfg.real_nodes() if stmts[n.index] == "Assign"]
    assert all(n.succs == [ret.index] for n in assigns)
    assert ret.succs == [cfg.exit]


def test_cfg_while_true_has_no_fall_through():
    cfg = build_cfg(_func(
        """
        def f():
            while True:
                x = 1
            return x
        """))
    header = next(n for n in cfg.real_nodes()
                  if isinstance(n.stmt, ast.While))
    # Only the loop-body successor: the constant test never falls out,
    # so the trailing return is unreachable from the header.
    assert len(header.succs) == 1


def test_cfg_try_body_edges_into_handler():
    cfg = build_cfg(_func(
        """
        def f():
            try:
                risky()
            except ValueError:
                cleanup()
            done()
        """))
    risky = next(n for n in cfg.real_nodes()
                 if isinstance(n.stmt, ast.Expr)
                 and "risky" in ast.dump(n.stmt))
    handler = next(n for n in cfg.real_nodes()
                   if isinstance(n.stmt, ast.Expr)
                   and "cleanup" in ast.dump(n.stmt))
    assert handler.index in risky.succs  # the body may raise into it


def test_cfg_break_exits_loop():
    cfg = build_cfg(_func(
        """
        def f(xs):
            for x in xs:
                if x:
                    break
            return 1
        """))
    brk = next(n for n in cfg.real_nodes() if isinstance(n.stmt, ast.Break))
    ret = next(n for n in cfg.real_nodes() if isinstance(n.stmt, ast.Return))
    assert brk.succs == [ret.index]


def test_node_calls_sees_header_only():
    # A compound statement's node carries its header expressions, not
    # its body (the body statements are their own nodes).
    cfg = build_cfg(_func(
        """
        def f(xs):
            for x in iter_all(xs):
                inner(x)
        """))
    loop = next(n for n in cfg.real_nodes() if isinstance(n.stmt, ast.For))
    names = {c.func.id for c in node_calls(loop.stmt)}
    assert names == {"iter_all"}


# -- dataflow solvers ---------------------------------------------------------


def test_must_reach_after_diamond():
    cfg = build_cfg(_func(
        """
        def f(x):
            start()
            if x:
                seal()
            else:
                other()
            return 1
        """))
    is_event = [False] * len(cfg.nodes)
    for node in cfg.real_nodes():
        if any(isinstance(c.func, ast.Name) and c.func.id == "seal"
               for c in node_calls(node.stmt)):
            is_event[node.index] = True
    after = must_reach_after(cfg, is_event)
    start = next(n for n in cfg.real_nodes()
                 if isinstance(n.stmt, ast.Expr)
                 and "start" in ast.dump(n.stmt))
    # One arm seals, the other does not: not ALL paths reach the seal.
    assert not after[start.index]


def test_must_reach_after_both_arms_sealed():
    cfg = build_cfg(_func(
        """
        def f(x):
            start()
            if x:
                seal()
            else:
                seal()
            return 1
        """))
    is_event = [False] * len(cfg.nodes)
    for node in cfg.real_nodes():
        if any(isinstance(c.func, ast.Name) and c.func.id == "seal"
               for c in node_calls(node.stmt)):
            is_event[node.index] = True
    after = must_reach_after(cfg, is_event)
    start = next(n for n in cfg.real_nodes()
                 if isinstance(n.stmt, ast.Expr)
                 and "start" in ast.dump(n.stmt))
    assert after[start.index]


# -- call-graph summaries -----------------------------------------------------


def _flow_of(sources):
    modules = [load_source(text, path)
               for path, text in sorted(sources.items())]
    return FlowContext(modules)


def test_callgraph_transitive_param_mutation():
    flow = _flow_of({
        "src/repro/ffs/helpers.py": (
            "def poke(buf):\n"
            "    buf[0] = 1\n"
            "def wrap(data):\n"
            "    poke(data)\n"
        ),
    })
    wrap = flow.by_name["wrap"][0]
    assert wrap.mutates_params == {0}  # inherited from poke via the edge


def test_callgraph_transitive_seam_reachability():
    flow = _flow_of({
        "src/repro/ffs/helpers.py": (
            "def seal_it(fs, bno):\n"
            "    fs._meta_write(bno)\n"
            "def outer(fs, bno):\n"
            "    seal_it(fs, bno)\n"
            "def unrelated(fs):\n"
            "    fs.describe()\n"
        ),
    })
    assert flow.by_name["seal_it"][0].reaches_seam
    assert flow.by_name["outer"][0].reaches_seam
    assert not flow.by_name["unrelated"][0].reaches_seam


def test_callgraph_hot_marking_from_workload_roots():
    flow = _flow_of({
        "src/repro/workloads/smallfile.py": (
            "def run(fs):\n"
            "    fs.touch_hot()\n"
        ),
        "src/repro/ffs/codec.py": (
            "def touch_hot():\n"
            "    pass\n"
            "def cold_helper():\n"
            "    pass\n"
        ),
    })
    assert flow.by_name["run"][0].hot          # root module
    assert flow.by_name["touch_hot"][0].hot    # reached by name
    assert not flow.by_name["cold_helper"][0].hot


def test_callgraph_returns_buffer_summary():
    flow = _flow_of({
        "src/repro/ffs/helpers.py": (
            "def block_of(self, bno):\n"
            "    buf = self.cache.get(bno)\n"
            "    return buf.data\n"
        ),
    })
    assert "block_of" in flow.returns_buffer_names()


# -- J001 journal ordering ----------------------------------------------------


def test_j001_early_return_skipping_seam_is_flagged():
    result = lint_sources({
        "src/repro/ffs/filesystem.py": (
            "def set_flag(self, bno, flag):\n"
            "    data = self.cache.get(bno).data\n"
            "    data[0] = 1\n"
            "    if not flag:\n"
            "        return\n"
            "    self._meta_write(bno)\n"
        ),
    })
    assert "J001" in rules_of(result, suppressed=False)


def test_j001_mutate_check_raise_before_seam_is_flagged():
    # The pre-fix _dir_remove_entry shape: the codec scrubbed the block,
    # then a consistency raise skipped the seam.
    result = lint_sources({
        "src/repro/ffs/filesystem.py": (
            "def scrub(data, name):\n"
            "    data[0] = 0\n"
            "    return 1\n"
            "def remove(self, bno, name, inum):\n"
            "    data = self.cache.get(bno).data\n"
            "    removed = scrub(data, name)\n"
            "    if removed != inum:\n"
            "        raise ValueError(name)\n"
            "    self._meta_write(bno)\n"
        ),
    })
    assert "J001" in rules_of(result, suppressed=False)


def test_j001_seal_before_check_is_clean():
    # The shipped fix: seal first, then raise on the mismatch.
    result = lint_sources({
        "src/repro/ffs/filesystem.py": (
            "def scrub(data, name):\n"
            "    data[0] = 0\n"
            "    return 1\n"
            "def remove(self, bno, name, inum):\n"
            "    data = self.cache.get(bno).data\n"
            "    removed = scrub(data, name)\n"
            "    self._meta_write(bno)\n"
            "    if removed != inum:\n"
            "        raise ValueError(name)\n"
        ),
    })
    assert "J001" not in rules_of(result)


def test_j001_sealed_on_all_paths_is_clean():
    result = lint_sources({
        "src/repro/ffs/filesystem.py": (
            "def set_flag(self, bno, flag):\n"
            "    data = self.cache.get(bno).data\n"
            "    data[0] = 1\n"
            "    if flag:\n"
            "        self.cache.write_sync(bno)\n"
            "    else:\n"
            "        self.cache.mark_dirty(bno)\n"
        ),
    })
    assert "J001" not in rules_of(result)


def test_j001_helper_reaching_seam_counts_as_sealing():
    result = lint_sources({
        "src/repro/ffs/filesystem.py": (
            "def _seal(self, bno):\n"
            "    return self._meta_write(bno)\n"
            "def grow(self, bno):\n"
            "    data = self.cache.get(bno).data\n"
            "    data[0] = 1\n"
            "    self._seal(bno)\n"
        ),
    })
    assert "J001" not in rules_of(result)


def test_j001_ignores_codec_parameter_mutation():
    # Pure codecs mutate their *parameters*; sealing is the caller's
    # contract, so the codec module itself stays clean.
    result = lint_sources({
        "src/repro/ffs/directory.py": (
            "def add_entry(block, inum):\n"
            "    block[0] = inum\n"
            "    return True\n"
        ),
    })
    assert "J001" not in rules_of(result)


def test_j001_counts_a_store_through_image_as_a_metadata_mutation():
    # The read accessor is a cache-owned origin too: an unsealed store
    # through it is a finding.
    result = lint_sources({
        "src/repro/ffs/filesystem.py": (
            "def set_flag(self, bno, flag):\n"
            "    img = self.cache.peek(bno).image\n"
            "    img[0] = 1\n"
            "    if not flag:\n"
            "        return\n"
            "    self._meta_write(bno)\n"
        ),
    })
    assert "J001" in rules_of(result, suppressed=False)


def test_j001_read_through_image_needs_no_seam():
    result = lint_sources({
        "src/repro/ffs/filesystem.py": (
            "def flag(self, bno):\n"
            "    img = self.cache.get(bno).image\n"
            "    return img[0]\n"
        ),
    })
    assert not rules_of(result)


def test_j001_scratch_bytearray_is_not_metadata():
    # A local scratch buffer packed and handed straight to the device
    # has no cache seam to reach.
    result = lint_sources({
        "src/repro/ffs/superblock.py": (
            "def write_sb(dev, bno):\n"
            "    raw = bytearray(4096)\n"
            "    raw[0] = 1\n"
            "    if bno < 0:\n"
            "        return\n"
            "    dev.write_block(bno, raw)\n"
        ),
    })
    assert "J001" not in rules_of(result)


# -- O001 hot-path discipline -------------------------------------------------

_HOT_ROOT = (
    "def run(fs):\n"
    "    fs.touch_hot()\n"
)


def test_o001_unguarded_span_in_hot_loop_is_flagged():
    result = lint_sources({
        "src/repro/workloads/smallfile.py": _HOT_ROOT,
        "src/repro/ffs/fetch.py": (
            "from repro import obs\n"
            "def touch_hot(cache, blocks):\n"
            "    for bno in blocks:\n"
            "        with obs.span('fs', 'fetch'):\n"
            "            cache.get(bno)\n"
        ),
    })
    assert "O001" in rules_of(result, suppressed=False)


def test_o001_guarded_span_is_clean():
    result = lint_sources({
        "src/repro/workloads/smallfile.py": _HOT_ROOT,
        "src/repro/ffs/fetch.py": (
            "from repro import obs\n"
            "def touch_hot(cache, blocks):\n"
            "    for bno in blocks:\n"
            "        if obs.enabled():\n"
            "            with obs.span('fs', 'fetch'):\n"
            "                cache.get(bno)\n"
            "        else:\n"
            "            cache.get(bno)\n"
        ),
    })
    assert "O001" not in rules_of(result)


def test_o001_struct_in_hot_loop_only_when_reachable():
    result = lint_sources({
        "src/repro/workloads/smallfile.py": _HOT_ROOT,
        "src/repro/ffs/codec.py": (
            "import struct\n"
            "def touch_hot(block):\n"
            "    for off in range(0, 64, 8):\n"
            "        struct.unpack_from('<II', block, off)\n"
            "def cold_helper(block):\n"
            "    for off in range(0, 64, 8):\n"
            "        struct.unpack_from('<II', block, off)\n"
        ),
    })
    findings = [f for f in result.findings if f.rule == "O001"]
    assert len(findings) == 1
    assert findings[0].line == 4  # touch_hot's loop, not cold_helper's


def test_o001_precompiled_struct_is_clean():
    result = lint_sources({
        "src/repro/workloads/smallfile.py": _HOT_ROOT,
        "src/repro/ffs/codec.py": (
            "import struct\n"
            "_HDR = struct.Struct('<II')\n"
            "def touch_hot(block):\n"
            "    for off in range(0, 64, 8):\n"
            "        _HDR.unpack_from(block, off)\n"
        ),
    })
    assert "O001" not in rules_of(result)


def test_o001_span_outside_loop_is_clean():
    result = lint_sources({
        "src/repro/workloads/smallfile.py": _HOT_ROOT,
        "src/repro/ffs/fetch.py": (
            "from repro import obs\n"
            "def touch_hot(cache, bno):\n"
            "    with obs.span('fs', 'fetch'):\n"
            "        cache.get(bno)\n"
        ),
    })
    assert "O001" not in rules_of(result)


# -- JSON golden for a flow run ----------------------------------------------


def test_flow_json_reporter_golden():
    result = lint_sources({
        "src/repro/ffs/filesystem.py": (
            "def set_flag(self, bno, flag):\n"
            "    data = self.cache.get(bno).data\n"
            "    data[0] = 1\n"
            "    if not flag:\n"
            "        return\n"
            "    self._meta_write(bno)\n"
        ),
    }, rule_ids=["J001"])
    payload = json.loads(render_json(result))
    assert payload == {
        "tool": "reprolint",
        "rules": {
            "J001": "metadata mutation must reach the ordering seam on all paths",
        },
        "files_checked": 1,
        "findings": [
            {
                "rule": "J001",
                "message": (
                    "metadata bytes mutated in set_flag() can leave the "
                    "function without reaching _meta_write/mark_dirty/"
                    "write_sync (early return, raise, or unsealed "
                    "fall-through)"),
                "path": "src/repro/ffs/filesystem.py",
                "module": "repro.ffs.filesystem",
                "line": 3,
                "col": 5,
                "suppressed": False,
            }
        ],
        "counts": {"unsuppressed": 1, "suppressed": 0},
        "ok": False,
    }
    assert render_json(result) == render_json(result)
