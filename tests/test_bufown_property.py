"""Runtime check of buffer ownership across the device boundary.

A cached block and the device share bytes: a write-out hands the
device the buffer's image, and from then on the cache's view and the
disk must agree until the buffer is edited *and* re-marked dirty.  The
observable consequence: once ``fs.sync()`` has drained the dirty set,
every *clean* cached buffer holds exactly the bytes last shipped to the
device for its block.  Some code path that edited a buffer after its
final handoff without re-marking it dirty, or stored through the
shared read accessor, breaks that equality; this tracer catches it
whether the edit was a subscript store, ``struct.pack_into`` or a
helper, and in whichever function it happened.

The tracer wraps the device's own stores (every method
``BlockDevice`` defines that puts a payload into its block map) and
snapshots each payload at the moment of handoff.  A hypothesis-driven
small-file workload (the fig-5 shape: create, read, overwrite, delete
over a flat tree of small files) then exercises the real allocation,
directory and flush-gathering paths under every metadata policy —
synchronous writes, soft-updates rollbacks and journal commits and
checkpoints — asserting the invariant after every sync.  The positive
control shows the harness is not vacuous.
"""

from __future__ import annotations

import ast
import inspect
import itertools
import textwrap
from typing import Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blockdev.device import BlockDevice
from repro.cache.policy import MetadataPolicy
from tests.conftest import make_cffs, make_ffs

#: BlockDevice's stores, each with how its arguments name the blocks.
#: ``write_batch`` (inherited) reaches the device through
#: ``write_extent``, so the journal's commits and checkpoints are seen.
_SEAMS = {
    "write_block": lambda bno, data: ((bno, data),),
    "poke_block": lambda bno, data: ((bno, data),),
    "write_extent": lambda start, blocks: zip(itertools.count(start), blocks),
}


def test_the_tracer_wraps_every_store_the_device_defines():
    # A new way into BlockDevice._blocks must be traced too.
    stores = set()
    for name, member in vars(BlockDevice).items():
        if not inspect.isfunction(member):
            continue
        tree = ast.parse(textwrap.dedent(inspect.getsource(member)))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                target = node.targets[0]
            elif isinstance(node, ast.Call) and getattr(
                    node.func, "attr", None) == "update":
                target = node.func
            else:
                continue
            if (isinstance(target, (ast.Subscript, ast.Attribute))
                    and ast.unparse(target.value) == "self._blocks"):
                stores.add(name)
    assert stores == set(_SEAMS)


def trace_handoffs(device) -> Dict[int, bytes]:
    """Wrap the device's stores; returns the live handoff log.

    The log maps block number -> bytes snapshotted at the most recent
    handoff of that block.  Snapshots are taken on entry, before the
    device acts: that is the instant ownership transfers.
    """
    shipped: Dict[int, bytes] = {}

    def wrap(name, blocks_of):
        real = getattr(device, name)

        def traced(first, payload):
            for bno, data in blocks_of(first, payload):
                shipped[bno] = bytes(data)
            return real(first, payload)

        setattr(device, name, traced)

    for name, blocks_of in _SEAMS.items():
        wrap(name, blocks_of)
    return shipped


def divergences(fs, shipped: Dict[int, bytes]) -> List[int]:
    """Clean cached buffers whose bytes differ from their last handoff.

    Dirty buffers are excluded — mutating a buffer and re-marking it
    dirty is the legitimate life cycle; the hazard is mutation after
    the *final* handoff, which is exactly a clean buffer that no longer
    matches what went to disk.
    """
    out: List[int] = []
    for bno, buf in fs.cache._phys.items():
        if bno in fs.cache._dirty:
            continue
        want = shipped.get(bno)
        if want is not None and buf.image != want:
            out.append(bno)
    return out


def _paths(n_files: int) -> List[str]:
    return ["/bench/f%03d" % i for i in range(n_files)]


@st.composite
def fig5_scripts(draw):
    """A miniature fig-5 workload: ops over a small flat file set."""
    n_files = draw(st.integers(min_value=3, max_value=10))
    file_size = draw(st.sampled_from([100, 1024, 4096, 9000]))
    fill = draw(st.integers(min_value=0, max_value=255))
    # After the create phase, a random mix of the other three phases'
    # per-file operations, with periodic syncs.
    ops = draw(st.lists(
        st.tuples(st.sampled_from(["read", "overwrite", "delete", "sync"]),
                  st.integers(min_value=0, max_value=n_files - 1)),
        min_size=4, max_size=24))
    return n_files, file_size, fill, ops


def _run_script(fs, script) -> None:
    n_files, file_size, fill, ops = script
    shipped = trace_handoffs(fs.cache.device)
    paths = _paths(n_files)
    live = set()

    fs.mkdir("/bench")
    payload = bytes([fill]) * file_size
    for p in paths:
        fs.write_file(p, payload)
        live.add(p)
    fs.sync()
    assert divergences(fs, shipped) == []

    for op, idx in ops:
        p = paths[idx]
        if op == "read" and p in live:
            assert len(fs.read_file(p)) == file_size
        elif op == "overwrite" and p in live:
            fs.write_file(p, bytes([(fill + idx + 1) % 256]) * file_size)
        elif op == "delete" and p in live:
            fs.unlink(p)
            live.discard(p)
        elif op == "sync":
            fs.sync()
            assert divergences(fs, shipped) == []
    fs.sync()
    assert divergences(fs, shipped) == []


@pytest.mark.parametrize("factory", [make_ffs, make_cffs],
                         ids=["ffs", "cffs"])
@settings(max_examples=8, deadline=None)
@given(script=fig5_scripts())
def test_clean_buffers_match_last_handoff(factory, script):
    for policy in MetadataPolicy:
        _run_script(factory(policy=policy), script)


def test_positive_control_runtime_tracer_catches_injection():
    # Prove the tracer is not vacuous: mutate a clean buffer after its
    # final handoff and watch it fire.
    fs = make_cffs()
    shipped = trace_handoffs(fs.cache.device)
    fs.mkdir("/bench")
    fs.write_file("/bench/f000", b"x" * 1024)
    fs.sync()
    assert divergences(fs, shipped) == []

    victim = next(
        buf for bno, buf in fs.cache._phys.items()
        if bno in shipped and bno not in fs.cache._dirty)
    victim.data[0] = (victim.data[0] + 1) % 256  # mutation after handoff
    assert divergences(fs, shipped) == [victim.bno]
