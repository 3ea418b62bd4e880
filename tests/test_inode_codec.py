"""C-FFS inode records and the aligned-run search against the code they
replace.

The functions below are verbatim copies of the whole-record inode codec
(``pack_cinode`` / ``unpack_cinode``, the field-dict ``_load`` and the
directory codec's ``rewrite_payload``) and of the aligned-run scan of
``GroupedAllocator.alloc_contiguous`` that probes every candidate from
the start of the data area; they are the reference.

- Inodes at the extremes of every field go through each site that
  encodes or decodes one (an embedded inode's store and cold fetch, the
  external table's store and fetch, the superblock's root) over a block
  whose other bytes are random: the block must come out byte for byte
  as the reference leaves it, and the node read back must carry the
  reference's fields, location, locality hint and owner.
- Seeded scripts of run allocations, single-block allocations, frees
  (many below the point the search has already passed) and dropped
  group mirrors run through the real allocator and through the
  reference, each over its own small cache: same starts, same
  outcomes, same cache calls, same bitmaps.
"""

from __future__ import annotations

import random
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blockdev.device import BLOCK_SIZE
from repro.cache.buffercache import BufferCache
from repro.core import layout
from repro.core.extinodes import EXT_TABLE_FILEID
from repro.core.inode import CNode, LOC_DIR, LOC_EXT, LOC_SUPER
from repro.errors import FileNotFound, NoSpace
from repro.ffs.alloc import GroupedAllocator
from repro.ffs.cylgroup import bit_is_set, cg_base, set_bit
from repro.ffs.inode import BaseInode
from repro.ffs.layout import NDIRECT
from tests.conftest import make_cffs, make_device

# -- the reference: verbatim copies of the whole-record codec ----------------------

_CINODE_FMT = "<QHHHHQd12IIII4x"
_CINODE_STRUCT = struct.Struct(_CINODE_FMT)


def pack_cinode(
    fileid: int, mode: int, nlink: int, flags: int, gen: int,
    size: int, mtime: float, direct, indirect: int, dindirect: int, nblocks: int,
) -> bytes:
    if len(direct) != NDIRECT:
        raise ValueError("inode needs exactly %d direct pointers" % NDIRECT)
    return _CINODE_STRUCT.pack(
        fileid, mode, nlink, flags, gen, size, mtime,
        *direct, indirect, dindirect, nblocks,
    )


def unpack_cinode(data: bytes) -> dict:
    fields = _CINODE_STRUCT.unpack_from(data, 0)
    return {
        "fileid": fields[0],
        "mode": fields[1],
        "nlink": fields[2],
        "flags": fields[3],
        "gen": fields[4],
        "size": fields[5],
        "mtime": fields[6],
        "direct": list(fields[7:19]),
        "indirect": fields[19],
        "dindirect": fields[20],
        "nblocks": fields[21],
    }


def _packed_fields(self) -> tuple:
    """The shared fields in both layouts' pack order."""
    return (self.mode, self.nlink, self.flags, self.gen, self.size,
            self.mtime, self.direct, self.indirect, self.dindirect,
            self.nblocks)


def _load(self, fields: dict) -> None:
    """Adopt the shared fields of an unpacked on-disk record."""
    for name in BaseInode.__slots__:
        setattr(self, name, fields[name])


def rewrite_payload(block: bytearray, payload_off: int, payload: bytes) -> None:
    """Update an entry's payload in place (embedded inode writeback)."""
    block[payload_off:payload_off + len(payload)] = payload


def reference_pack(node) -> bytes:
    return pack_cinode(node.fileid, *_packed_fields(node))


def reference_unpack(data: bytes) -> dict:
    """The fields a node decoded from ``data`` carried, ``fileid`` and
    the constructor's defaults for the in-memory ones included."""
    fields = unpack_cinode(data)
    out = {"fileid": fields["fileid"], "loc": (LOC_SUPER,), "home_cg": 0,
           "owner_dir": None}
    holder = type("Holder", (), {})()
    _load(holder, fields)
    out.update((name, getattr(holder, name)) for name in BaseInode.__slots__)
    return out


# -- inodes at the extremes ----------------------------------------------------------

_U16 = st.integers(0, 0xFFFF)
_U32 = st.integers(0, 0xFFFFFFFF)
_U64 = st.integers(0, 0xFFFFFFFFFFFFFFFF)

inode_fields = st.fixed_dictionaries({
    "fileid": _U64,
    "mode": _U16,
    "nlink": _U16,
    "flags": _U16,
    "gen": _U16,
    "size": _U64,
    "mtime": st.floats(allow_nan=True, allow_infinity=True),
    "direct": st.lists(_U32, min_size=NDIRECT, max_size=NDIRECT),
    "indirect": _U32,
    "dindirect": _U32,
    "nblocks": _U32,
})


def make_node(fields: dict):
    """A node holding ``fields``, built slot by slot (no constructor)."""
    node = CNode.__new__(CNode)
    for name, value in fields.items():
        setattr(node, name, list(value) if name == "direct" else value)
    node.loc = (LOC_SUPER,)
    node.home_cg = 0
    node.owner_dir = None
    return node


def comparable(view: dict) -> dict:
    """``view`` with ``mtime`` as its bit pattern (NaN != NaN)."""
    out = dict(view)
    out["mtime"] = struct.pack("<d", out["mtime"])
    return out


def node_view(node) -> dict:
    names = ("fileid", "loc", "home_cg", "owner_dir") + BaseInode.__slots__
    return comparable({name: getattr(node, name) for name in names})


# One volume per site: the examples only rewrite records in place.
_EMBEDDED = make_cffs()
_EMBEDDED.mkdir("/d")
_EMBEDDED.write_file("/d/f", b"")
_DIR = _EMBEDDED._resolve("/d")
_EXTERNAL = make_cffs(embedded=False)
_EXTERNAL.write_file("/x", b"")
_INUM = _EXTERNAL._resolve("/x").loc[1]
_ROOTS = make_cffs()


def _random_block(seed: int) -> bytes:
    return random.Random(seed).randbytes(BLOCK_SIZE)


@settings(max_examples=150, deadline=None)
@given(fields=inode_fields, seed=st.integers(0, 2 ** 32),
       payload_off=st.integers(0, BLOCK_SIZE - layout.CINODE_SIZE))
def test_embedded_store_and_fetch_match_the_reference(fields, seed, payload_off):
    fs, dirh = _EMBEDDED, _DIR
    bno = fs._dir_block_bno(dirh, 0)
    buf = fs.cache.get(bno, logical=(dirh.fileid, 0))
    buf.data[:] = _random_block(seed)
    fs.cache.mark_dirty(bno)
    want = bytearray(buf.image)
    node = make_node(fields)
    entry_off = max(0, payload_off - 12)
    node.loc = (LOC_DIR, dirh, 0, entry_off, payload_off)
    rewrite_payload(want, payload_off, reference_pack(node))

    assert fs._istore(node, sync_op=False) is None
    assert bytes(fs.cache.get(bno).image) == bytes(want)

    # A cold fetch of the same record.
    ident = fields["fileid"]
    saved = fs._icache.pop(ident, None)
    try:
        info = (layout.ET_EMBEDDED, layout.DK_FILE, 0, entry_off, payload_off, ident)
        back = fs._node_at(dirh, info)
        expected = reference_unpack(bytes(want[payload_off:payload_off + layout.CINODE_SIZE]))
        expected["loc"] = (LOC_DIR, dirh, 0, entry_off, payload_off)
        expected["home_cg"] = dirh.home_cg
        assert node_view(back) == comparable(expected)
        assert fs._icache[ident] is back
    finally:
        fs._icache.pop(ident, None)
        if saved is not None:
            fs._icache[ident] = saved


@settings(max_examples=150, deadline=None)
@given(fields=inode_fields, seed=st.integers(0, 2 ** 32))
def test_external_store_and_get_match_the_reference(fields, seed):
    fs, inum = _EXTERNAL, _INUM
    bno, blk, off = fs.ext._locate(inum)
    buf = fs.cache.get(bno, logical=(EXT_TABLE_FILEID, blk))
    buf.data[:] = _random_block(seed)
    fs.cache.mark_dirty(bno)
    want = bytearray(buf.image)
    node = make_node(fields)
    node.loc = (LOC_EXT, inum)
    want[off:off + layout.CINODE_SIZE] = reference_pack(node)

    assert fs.ext.store(inum, node, sync=False) is None
    assert bytes(fs.cache.get(bno).image) == bytes(want)

    expected = reference_unpack(bytes(want[off:off + layout.CINODE_SIZE]))
    if expected["mode"] == layout.MODE_FREE:
        try:
            fs.ext.get(inum)
        except FileNotFound as exc:
            assert str(exc) == "external inode %d is free" % inum
        else:
            raise AssertionError("a free external inode was returned")
        return
    expected["loc"] = (LOC_EXT, inum)
    expected["home_cg"] = fs.alloc.cg_of_block(bno)
    assert node_view(fs.ext.get(inum)) == comparable(expected)


@settings(max_examples=150, deadline=None)
@given(fields=inode_fields)
def test_superblock_root_matches_the_reference(fields):
    fs = _ROOTS
    root = make_node(fields)
    fs._root = root
    raw = fs._pack_superblock()
    assert raw == layout.pack_superblock(fs.sb, reference_pack(root))

    fs._load_root(raw)
    expected = reference_unpack(reference_pack(root))
    assert node_view(fs._root) == comparable(expected)
    assert fs._icache[1] is fs._root


# -- the reference: a verbatim copy of the probing aligned-run scan -----------------

def reference_alloc_contiguous(self, pref_cg, count, align=1):
    for cgi in self._cg_search_order(pref_cg):
        cg = self.group(cgi)
        if cg.free_blocks < count:
            continue
        bitmap = self._bitmap(cg)
        scan = bitmap.image
        offset = self.data_start
        while offset + count <= self.blocks_per_cg:
            aligned = offset
            if align > 1:
                rel = (aligned - self.data_start) % align
                if rel:
                    aligned += align - rel
                    if aligned + count > self.blocks_per_cg:
                        break
            run_ok = True
            for i in range(count):
                if bit_is_set(scan, aligned + i):
                    run_ok = False
                    offset = aligned + i + 1
                    break
            if run_ok:
                run = bitmap.data
                for i in range(count):
                    set_bit(run, aligned + i)
                self.cache.mark_dirty(cg.bitmap_block)
                cg.free_blocks -= count
                self._charge("free_blocks", -count)
                return cg.base + aligned
    return None


# -- seeded allocation scripts --------------------------------------------------------

N_CGS = 6
BLOCKS_PER_CG = 128
DATA_START = 4
USABLE = 112


def _recording_allocator(calls):
    """An allocator over its own 8-block cache (its groups have twelve
    metadata blocks) whose every cache call lands in ``calls``."""
    cache = BufferCache(make_device(), capacity_blocks=8)
    for name in ("get", "peek", "create", "create_dirty", "install",
                 "mark_dirty", "forget"):
        def wrapper(*args, _name=name, _fn=getattr(cache, name), **kwargs):
            calls.append((_name, args, tuple(sorted(kwargs.items()))))
            return _fn(*args, **kwargs)
        setattr(cache, name, wrapper)
    counts = {"free_blocks": N_CGS * USABLE}
    alloc = GroupedAllocator(
        cache, n_cgs=N_CGS, blocks_per_cg=BLOCKS_PER_CG, inodes_per_cg=0,
        data_start=DATA_START, cg_base_of=lambda cgi: cg_base(cgi, BLOCKS_PER_CG),
        counts=counts)
    alloc.format_groups(N_CGS, USABLE, 0)
    return alloc, cache, counts


def _run_script(seed, shapes, contiguous):
    """Outcomes, cache calls and final bitmaps of one seeded script,
    with ``contiguous(alloc, pref_cg, count, align)`` as the run search."""
    rng = random.Random(seed)
    calls = []
    alloc, cache, counts = _recording_allocator(calls)
    runs, singles, outcomes = [], [], []
    for step in range(600):
        roll = rng.random()
        count, align = shapes[step * len(shapes) // 600]
        try:
            if roll < 0.45:
                start = contiguous(alloc, rng.randrange(N_CGS), count, align)
                if start is not None:
                    runs.append((start, count))
                outcomes.append(("run", start))
            elif roll < 0.6:
                pref = rng.randrange(DATA_START, DATA_START + USABLE)
                bno = alloc.alloc_block(rng.randrange(N_CGS), pref_offset=pref)
                singles.append(bno)
                outcomes.append(("single", bno))
            elif roll < 0.78 and runs:
                start, n = runs.pop(rng.randrange(len(runs)))
                alloc.free_contiguous(start, n)
                outcomes.append(("free run", start))
            elif roll < 0.96 and singles:
                bno = singles.pop(rng.randrange(len(singles)))
                alloc.free_block(bno)
                outcomes.append(("free", bno))
            else:
                alloc.store_descriptors()
                alloc.drop_mirrors()
                outcomes.append(("drop",))
        except NoSpace as exc:
            outcomes.append(("NoSpace", str(exc)))
    bitmaps = []
    for cgi in range(N_CGS):
        buf = cache.peek(cg_base(cgi, BLOCKS_PER_CG) + 1)
        bitmaps.append(bytes(buf.image) if buf is not None else None)
    image = cache.device.content_digest()
    return outcomes, calls, bitmaps, image, dict(counts)


def _real(alloc, pref_cg, count, align):
    return alloc.alloc_contiguous(pref_cg, count, align=align)


SHAPES = {
    "span16": [(16, 16)],
    "span8": [(8, 8)],
    "unaligned": [(5, 1)],
    "mixed": [(16, 16), (4, 4), (16, 16), (3, 1), (16, 16)],
}


def test_alloc_contiguous_matches_the_probing_scan():
    for name, shapes in SHAPES.items():
        kinds = set()
        for seed in range(6):
            real = _run_script(seed, shapes, _real)
            ref = _run_script(seed, shapes, reference_alloc_contiguous)
            assert real[0] == ref[0], (name, seed, "outcomes")
            assert real[1] == ref[1], (name, seed, "cache calls")
            assert real[2:] == ref[2:], (name, seed, "bitmaps, image, counts")
            kinds.update(o[0] if o[1:] != (None,) else "no run" for o in real[0])
        # The scripts reach what they are meant to.
        assert {"run", "no run", "free run", "free", "drop", "single"} <= kinds, name
