"""What the directory index scan reads out of a block, pinned as a
transcript for both codecs.

The directory index (``ffs.dirindex.DirIndex``) is filled from two
things a codec reads out of each directory block: the live entries as
the index keeps them (name -> the format's index tuple) and the
largest insertion each slot accepts (a whole block for FFS, a
``(block, sector)`` pair for C-FFS).  This test replays the seeded
insert/remove sequences of ``tests/test_dirfmt_edits.py`` (the same
RNG draws, so the same names, types, sectors and refusals) through
the real codec alone and records, after every step, what the scan
returns for the block.

``tests/golden/dirscan_transcript.json`` holds one sha256 digest per
codec and seed over all of its steps, the number of steps and of
entries seen, and a readable head (the first steps in full, one line
each).  A change to how a codec scans a block must leave all of it
unchanged.  Regeneration: see ``tests/golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import random
import struct

import pytest

from repro.core import directory as cdir
from repro.ffs import directory as fdir
from repro.ffs import layout as flayout
from tests import golden
from tests.test_dirfmt_edits import SECTORS, _drive, embedded_payload

SEEDS = range(12)
STEPS = 500
HEAD_STEPS = 3


def scan(codec, block: bytes, blk: int):
    """(index entries, free slots) of one block, as lists."""
    entries, slots = codec.scan_block(block, blk)
    return entries, list(slots)


def _check_shapes(codec, entries, slots) -> None:
    """What JSON cannot show: index tuples are tuples, slots hashable."""
    for name, info in entries:
        assert isinstance(name, str) and type(info) is tuple
    for slot, free in slots:
        assert isinstance(free, int)
        assert type(slot) is (int if codec is fdir else tuple)


def _recorder(codec, block, blk, steps):
    def record():
        entries, slots = scan(codec, bytes(block), blk)
        _check_shapes(codec, entries, slots)
        steps.append([entries, slots])
    return record


def ffs_steps(seed: int) -> list:
    """``test_ffs_random_edits_match_reference``'s sequence, real codec
    only; the block's room list is built by the first insert and kept
    from the edits' results, as ``FFS._dir_add_entry`` /
    ``_dir_remove_entry`` keep it."""
    rng = random.Random(seed)
    block = fdir.init_block()
    live = {}
    rooms = None
    inums = iter(range(1, 1 << 20))
    steps: list = []
    record = _recorder(fdir, block, seed, steps)

    def add(name):
        nonlocal rooms
        inum = next(inums)
        if rooms is None:
            rooms = fdir.room_list(block)
        if fdir.add_entry(block, rooms, inum, flayout.DT_FILE, name) is not None:
            live[name] = inum
        record()

    def remove(name):
        removed = fdir.remove_entry(block, name)
        assert removed[0] == live.pop(name)
        if rooms is not None:
            fdir.merge_room(rooms, *removed[1:])
        record()

    record()
    _drive(rng, STEPS, add, remove, live)
    return steps


def cffs_steps(seed: int) -> list:
    """``test_cffs_random_edits_match_reference``'s sequence, real codec only."""
    rng = random.Random(1000 + seed)
    block = cdir.init_block()
    live = {}
    idents = iter(range(1, 1 << 20))
    steps: list = []
    record = _recorder(cdir, block, seed, steps)

    def add(name):
        etype = cdir.ET_EMBEDDED if rng.random() < 0.7 else cdir.ET_EXTERNAL
        sector, ident = rng.randrange(SECTORS), next(idents)
        payload = (embedded_payload(ident) if etype == cdir.ET_EMBEDDED
                   else struct.pack("<Q", ident))
        if cdir.add_entry(block, sector, name, etype, cdir.DK_FILE,
                          payload) is not None:
            live[name] = sector
        record()

    def remove(name):
        assert cdir.remove_entry(block, name)[0] == live.pop(name)
        record()

    record()
    _drive(rng, STEPS, add, remove, live)
    return steps


RUNS = {"ffs": ffs_steps, "cffs": cffs_steps}
ALL_KEYS = ["%s/%d" % (codec, seed) for codec in sorted(RUNS) for seed in SEEDS]


def transcript(key: str) -> dict:
    codec, seed = key.split("/")
    steps = RUNS[codec](int(seed))
    return {
        "digest": hashlib.sha256(json.dumps(steps).encode("utf-8")).hexdigest(),
        "steps": len(steps),
        "entries": sum(len(entries) for entries, _slots in steps),
        "head": [json.dumps(step) for step in steps[:HEAD_STEPS]],
    }


@pytest.mark.parametrize("key", ALL_KEYS)
def test_dirscan_transcript(key):
    golden.pin("dirscan_transcript.json", {key: transcript(key)})
