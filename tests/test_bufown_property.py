"""Runtime agreement check for B001 (buffer ownership).

B001's static claim is that no function mutates a buffer after handing
it to a device-boundary write.  The observable consequence at runtime:
once ``fs.sync()`` has drained the dirty set, every *clean* cached
buffer must hold exactly the bytes last shipped to the device for its
block — if some code path mutated a buffer after its final handoff
(without re-marking it dirty), the in-memory view diverges from the
on-disk image and this tracer catches it, regardless of whether the
mutation went through ``__setitem__`` or a C-level buffer-protocol
write like ``struct.pack_into``.

The tracer wraps the device's four handoff methods (the same set B001
keys on: ``write_block`` / ``write_extent`` / ``write_batch`` /
``poke_block``) and snapshots each payload at the moment of handoff —
the instant ownership transfers under the B001 contract.  A
hypothesis-driven small-file workload (the fig-5 shape: create, read,
overwrite, delete over a flat tree of small files) then exercises the
real allocation, directory, and flush-gathering paths, asserting the
invariant after every sync.

The positive control demonstrates the harness is not vacuous: a
hand-injected mutation-after-handoff trips the runtime tracer, and the
same code shape trips B001 statically — the two detectors agree in
both directions.
"""

from __future__ import annotations

from typing import Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lint import lint_sources
from repro.lint.flow import HANDOFF_METHODS
from tests.conftest import make_cffs, make_ffs

#: handoff seams traced at runtime; must stay == B001's HANDOFF_METHODS.
_TRACED = ("write_block", "write_extent", "write_batch", "poke_block")


def test_traced_seams_match_b001_handoff_set():
    # If B001 grows a new device seam, this trips and the tracer below
    # must learn to wrap it too — the two detectors watch the same door.
    assert frozenset(_TRACED) == HANDOFF_METHODS


def trace_handoffs(device) -> Dict[int, bytes]:
    """Wrap the device's write seams; returns the live handoff log.

    The log maps block number -> bytes snapshotted at the most recent
    handoff of that block.  Snapshots are taken on entry, before the
    device acts: that is the instant B001 says ownership transfers.
    """
    shipped: Dict[int, bytes] = {}
    real_block = device.write_block
    real_extent = device.write_extent
    real_batch = device.write_batch
    real_poke = device.poke_block

    def write_block(bno, data):
        shipped[bno] = bytes(data)
        return real_block(bno, data)

    def write_extent(start, blocks):
        for i, data in enumerate(blocks):
            shipped[start + i] = bytes(data)
        return real_extent(start, blocks)

    def write_batch(writes):
        for bno, data in writes.items():
            shipped[bno] = bytes(data)
        return real_batch(writes)

    def poke_block(bno, data):
        shipped[bno] = bytes(data)
        return real_poke(bno, data)

    device.write_block = write_block
    device.write_extent = write_extent
    device.write_batch = write_batch
    device.poke_block = poke_block
    return shipped


def divergences(fs, shipped: Dict[int, bytes]) -> List[int]:
    """Clean cached buffers whose bytes differ from their last handoff.

    Dirty buffers are excluded — mutating a buffer and re-marking it
    dirty is the legitimate life cycle; the hazard B001 (and this
    tracer) rejects is mutation after the *final* handoff, which is
    exactly a clean buffer that no longer matches what went to disk.
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


@pytest.mark.parametrize("factory", [make_ffs, make_cffs],
                         ids=["ffs", "cffs"])
@settings(max_examples=8, deadline=None)
@given(script=fig5_scripts())
def test_clean_buffers_match_last_handoff(factory, script):
    n_files, file_size, fill, ops = script
    fs = factory()
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


def test_positive_control_runtime_tracer_catches_injection():
    # Prove the tracer is not vacuous: mutate a clean buffer after its
    # final handoff (the exact hazard B001 rejects) and watch it fire.
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


def test_positive_control_static_rule_agrees():
    # The same shape, written as source, is what B001 flags statically:
    # the two detectors condemn the identical pattern.
    result = lint_sources({
        "src/repro/cache/writeback.py": (
            "def flush(dev, bno):\n"
            "    data = bytearray(4096)\n"
            "    dev.write_block(bno, data)\n"
            "    data[0] = (data[0] + 1) % 256\n"
        ),
    }, flow=True)
    assert any(f.rule == "B001" and not f.suppressed for f in result.findings)
