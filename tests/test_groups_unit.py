"""Unit tests for the GroupTable (extent descriptors and slots)."""

import random

import pytest

from repro.cache.buffercache import BufferCache
from repro.core.filesystem import CFFSConfig
from repro.core.groups import GroupTable
from repro.core.layout import (EXT_FREE, EXT_GROUPED, EXT_UNGROUPED,
                               GDESC_PER_BLOCK, GDESC_SIZE, GROUP_SPAN,
                               pack_gdesc, unpack_gdesc_from)
from repro.errors import CorruptFileSystem, ReproError
from repro.ffs.cylgroup import table_block
from tests.conftest import make_device

BPC = 512
DATA_START = 4


def make_table(span: int = GROUP_SPAN):
    cache = BufferCache(make_device(), 256)
    table = GroupTable(
        cache,
        n_cgs=3,
        blocks_per_cg=BPC,
        gdt_blocks=2,
        data_start=DATA_START,
        cg_base_of=lambda cgi: 1 + cgi * BPC,
        span=span,
    )
    # Zeroed descriptor blocks are valid FREE descriptors.
    for cgi in range(3):
        for g in range(2):
            cache.create(1 + cgi * BPC + 2 + g)
    return table, cache


class TestGeometry:
    def test_extent_of_data_block(self):
        table, _ = make_table()
        base = 1 + DATA_START
        assert table.extent_of_block(base) == (0, 0)
        assert table.extent_of_block(base + GROUP_SPAN) == (0, 1)
        assert table.extent_of_block(1 + BPC + DATA_START) == (1, 0)

    def test_metadata_blocks_have_no_extent(self):
        table, _ = make_table()
        assert table.extent_of_block(0) is None
        assert table.extent_of_block(1) is None      # cg descriptor
        assert table.extent_of_block(2) is None      # bitmap
        assert table.extent_of_block(3) is None      # gdt

    def test_extent_base_roundtrip(self):
        table, _ = make_table()
        for ext in ((0, 0), (0, 5), (2, 3)):
            base = table.extent_base(ext)
            assert table.extent_of_block(base) == ext
            assert table.extent_of_block(base + GROUP_SPAN - 1) == ext

    def test_span_bounds_checked(self):
        cache = BufferCache(make_device(), 64)
        with pytest.raises(ValueError):
            GroupTable(cache, 1, BPC, 2, DATA_START, lambda c: 1, span=17)
        with pytest.raises(ValueError):
            GroupTable(cache, 1, BPC, 2, DATA_START, lambda c: 1, span=0)


class TestSlots:
    def test_claim_then_take(self):
        table, _ = make_table()
        table.claim_extent((0, 0), owner=99)
        desc = table.read_desc((0, 0))
        assert desc["state"] == EXT_GROUPED
        assert desc["owner"] == 99
        bno = table.take_slot((0, 0), fileid=7, fblock=0)
        assert bno == table.extent_base((0, 0))
        assert table.read_desc((0, 0))["slots"][0] == (7, 0)

    def test_take_fills_lowest_first(self):
        table, _ = make_table()
        table.claim_extent((0, 0), owner=1)
        bnos = [table.take_slot((0, 0), i, 0) for i in range(4)]
        base = table.extent_base((0, 0))
        assert bnos == [base, base + 1, base + 2, base + 3]

    def test_full_extent_returns_none(self):
        table, _ = make_table(span=4)
        table.claim_extent((0, 0), owner=1)
        for i in range(4):
            assert table.take_slot((0, 0), i, 0) is not None
        assert table.take_slot((0, 0), 99, 0) is None

    def test_active_hint_lifecycle(self):
        table, _ = make_table(span=4)
        table.claim_extent((0, 0), owner=5)
        assert table.active_extent(5) == (0, 0)
        for i in range(4):
            table.take_slot((0, 0), i, 0)
        assert table.active_extent(5) is None  # full extents drop out
        table.free_slot(table.extent_base((0, 0)) + 1)
        assert table.active_extent(5) == (0, 0)  # partially free again

    def test_free_slot_releases_empty_extent(self):
        table, _ = make_table(span=4)
        table.claim_extent((0, 0), owner=1)
        a = table.take_slot((0, 0), 1, 0)
        b = table.take_slot((0, 0), 2, 0)
        assert table.free_slot(a) is False
        assert table.free_slot(b) is True
        assert table.read_desc((0, 0))["state"] == EXT_FREE

    def test_double_free_slot_rejected(self):
        table, _ = make_table()
        table.claim_extent((0, 0), owner=1)
        bno = table.take_slot((0, 0), 1, 0)
        table.take_slot((0, 0), 2, 1)  # keep the extent alive
        table.free_slot(bno)
        with pytest.raises(CorruptFileSystem):
            table.free_slot(bno)

    def test_claim_non_free_rejected(self):
        table, _ = make_table()
        table.claim_extent((0, 0), owner=1)
        with pytest.raises(CorruptFileSystem):
            table.claim_extent((0, 0), owner=2)

    def test_live_span_covers_extremes(self):
        table, _ = make_table()
        table.claim_extent((0, 0), owner=1)
        base = table.extent_base((0, 0))
        table.take_slot((0, 0), 1, 0)   # slot 0
        table.take_slot((0, 0), 2, 0)   # slot 1
        table.free_slot(base)           # hole at slot 0
        table.take_slot((0, 0), 3, 0)   # refills slot 0
        table.take_slot((0, 0), 4, 0)   # slot 2
        start, count, _desc = table.live_span((0, 0))
        assert (start, count) == (base, 3)

    def test_live_span_none_for_empty(self):
        table, _ = make_table()
        assert table.live_span((0, 0)) is None

    def test_grouped_blocks_listing(self):
        table, _ = make_table()
        table.claim_extent((0, 0), owner=1)
        table.take_slot((0, 0), 10, 0)
        table.take_slot((0, 0), 11, 3)
        desc = table.read_desc((0, 0))
        assert desc["valid_mask"] == 0b11
        assert desc["slots"][:2] == [(10, 0), (11, 3)]


class TestUngroupedTransitions:
    def test_free_to_ungrouped(self):
        table, _ = make_table()
        bno = table.extent_base((0, 2)) + 5
        table.note_ungrouped_alloc(bno)
        assert table.read_desc((0, 2))["state"] == EXT_UNGROUPED

    def test_foreign_alloc_in_group_rejected(self):
        table, _ = make_table()
        table.claim_extent((0, 0), owner=1)
        with pytest.raises(CorruptFileSystem):
            table.note_ungrouped_alloc(table.extent_base((0, 0)))

    def test_ungrouped_reverts_when_empty(self):
        table, _ = make_table()
        bno = table.extent_base((0, 2)) + 5
        table.note_ungrouped_alloc(bno)
        table.note_ungrouped_free(
            bno, lambda start, count: (start, count) == (bno - 5, GROUP_SPAN))
        assert table.read_desc((0, 2))["state"] == EXT_FREE

    def test_ungrouped_stays_while_occupied(self):
        table, _ = make_table()
        base = table.extent_base((0, 2))
        table.note_ungrouped_alloc(base)
        table.note_ungrouped_alloc(base + 1)
        table.note_ungrouped_free(base, lambda start, count: False)
        assert table.read_desc((0, 2))["state"] == EXT_UNGROUPED

    def test_drop_hints(self):
        table, _ = make_table()
        table.claim_extent((0, 0), owner=1)
        table.drop_hints()
        assert table.active_extent(1) is None


class TestHeads:
    def test_read_head_is_the_first_three_fields(self):
        table, _ = make_table()
        assert table.read_head((0, 3)) == (EXT_FREE, 0, 0)
        table.claim_extent((0, 3), owner=1 << 40)
        table.take_slot((0, 3), 7, 0)
        table.take_slot((0, 3), 8, 0)
        assert table.read_head((0, 3)) == (EXT_GROUPED, 0b11, 1 << 40)
        desc = table.read_desc((0, 3))
        assert table.read_head((0, 3)) == (
            desc["state"], desc["valid_mask"], desc["owner"])

    def test_read_head_cached_leaves_the_cache_alone(self):
        table, cache = make_table()
        table.claim_extent((1, 0), owner=9)
        bno, _ = table._desc_location((1, 0))
        order, hits = list(cache._phys), cache.hits
        assert table.read_head_cached((1, 0)) == (EXT_GROUPED, 0, 9)
        assert (list(cache._phys), cache.hits) == (order, hits)
        cache.sync()
        cache.forget(bno)
        assert table.read_head_cached((1, 0)) is None   # cold: no disk read
        assert cache.peek(bno) is None
        assert table.read_head((1, 0)) == (EXT_GROUPED, 0, 9)


class TestHeldBuffer:
    """A buffer taken before a cache call that can insert may be gone
    by the time it is edited (docs/ARCHITECTURE.md section 3)."""

    def test_probes_that_evict_the_descriptor_block(self):
        device = make_device()
        cache = BufferCache(device, 8)
        table = GroupTable(cache, n_cgs=1, blocks_per_cg=BPC, gdt_blocks=2,
                           data_start=DATA_START,
                           cg_base_of=lambda cgi: 1, span=GROUP_SPAN)
        ext = (0, 2)
        desc_bno, off = table._desc_location(ext)
        bno = table.extent_base(ext) + 5
        table.note_ungrouped_alloc(bno)
        cache.sync()

        def run_is_free(start, count):
            for block in range(start, start + count):
                cache.get(block)       # sixteen fills through eight buffers
            return True

        table.note_ungrouped_free(bno, run_is_free)
        assert cache.evictions >= 8
        assert table.read_head(ext)[0] == EXT_FREE
        cache.sync()
        on_disk = unpack_gdesc_from(device.peek_block(desc_bno), off)
        assert on_disk["state"] == EXT_FREE


# -- differential oracle: descriptor transitions against the dict round trip ----------
#
# How a transition reaches the descriptor's bytes is free to change;
# *which bytes it leaves in the cached table block*, what it returns or
# raises, which placement hints it keeps and which blocks it dirties are
# not.  So all four are pinned against the transitions written the slow,
# obvious way: decode the whole descriptor into a dict, edit the dict,
# encode and copy all of it back (``GroupTable`` as it stood before
# PR 20, kept here verbatim with its own geometry).  Seeded scripts
# drive a real table and the reference over two identical caches,
# including descriptors poked by hand into states no transition
# produces, and compare after every step.


class ReferenceGroupTable:
    """core/groups.py before PR 20: every transition is a
    ``read_desc`` / ``write_desc`` round trip of the whole descriptor."""

    def __init__(self, cache, n_cgs, blocks_per_cg, gdt_blocks, data_start,
                 cg_base_of, span=GROUP_SPAN):
        self.cache = cache
        self.n_cgs = n_cgs
        self.blocks_per_cg = blocks_per_cg
        self.gdt_blocks = gdt_blocks
        self.data_start = data_start
        self._cg_base_of = cg_base_of
        self.span = span
        self.extents_per_cg = (blocks_per_cg - data_start) // span
        self._active = {}

    def extent_of_block(self, bno):
        if bno < self._cg_base_of(0):
            return None
        cgi = (bno - self._cg_base_of(0)) // self.blocks_per_cg
        if cgi >= self.n_cgs:
            return None
        rel = bno - self._cg_base_of(cgi) - self.data_start
        if rel < 0:
            return None
        idx = rel // self.span
        if idx >= self.extents_per_cg:
            return None
        return cgi, idx

    def extent_base(self, ext):
        cgi, idx = ext
        return self._cg_base_of(cgi) + self.data_start + idx * self.span

    def _desc_location(self, ext):
        cgi, idx = ext
        bno = table_block(self._cg_base_of(cgi), idx // GDESC_PER_BLOCK)
        return bno, (idx % GDESC_PER_BLOCK) * GDESC_SIZE

    def read_desc(self, ext):
        bno, off = self._desc_location(ext)
        buf = self.cache.get(bno)
        return unpack_gdesc_from(buf.image, off)

    def write_desc(self, ext, desc):
        bno, off = self._desc_location(ext)
        buf = self.cache.get(bno)
        buf.data[off:off + GDESC_SIZE] = pack_gdesc(
            desc["state"], desc["valid_mask"], desc["owner"], desc["slots"]
        )
        self.cache.mark_dirty(bno)

    def note_ungrouped_alloc(self, bno):
        ext = self.extent_of_block(bno)
        if ext is None:
            return
        desc = self.read_desc(ext)
        if desc["state"] == EXT_FREE:
            desc["state"] = EXT_UNGROUPED
            self.write_desc(ext, desc)
        elif desc["state"] == EXT_GROUPED:
            raise CorruptFileSystem(
                "individual allocation landed inside explicit group %r" % (ext,)
            )

    def note_ungrouped_free(self, bno, block_is_allocated):
        ext = self.extent_of_block(bno)
        if ext is None:
            return
        desc = self.read_desc(ext)
        if desc["state"] != EXT_UNGROUPED:
            return
        base = self.extent_base(ext)
        for i in range(self.span):
            if block_is_allocated(base + i):
                return
        desc["state"] = EXT_FREE
        self.write_desc(ext, desc)

    def claim_extent(self, ext, owner):
        desc = self.read_desc(ext)
        if desc["state"] != EXT_FREE:
            raise CorruptFileSystem("cannot claim non-free extent %r" % (ext,))
        self.write_desc(ext, {
            "state": EXT_GROUPED,
            "valid_mask": 0,
            "owner": owner,
            "slots": [(0, 0)] * GROUP_SPAN,
        })
        self._active[owner] = ext

    def take_slot(self, ext, fileid, fblock):
        desc = self.read_desc(ext)
        if desc["state"] != EXT_GROUPED:
            return None
        mask = desc["valid_mask"]
        for slot in range(self.span):
            if not mask & (1 << slot):
                desc["valid_mask"] = mask | (1 << slot)
                desc["slots"][slot] = (fileid, fblock)
                self.write_desc(ext, desc)
                if desc["valid_mask"] == (1 << self.span) - 1:
                    owner = desc["owner"]
                    if self._active.get(owner) == ext:
                        del self._active[owner]
                return self.extent_base(ext) + slot
        owner = desc["owner"]
        if self._active.get(owner) == ext:
            del self._active[owner]
        return None

    def free_slot(self, bno):
        ext = self.extent_of_block(bno)
        if ext is None:
            raise CorruptFileSystem("block %d is not in any extent" % bno)
        desc = self.read_desc(ext)
        if desc["state"] != EXT_GROUPED:
            raise CorruptFileSystem("freeing group slot in non-group extent")
        slot = bno - self.extent_base(ext)
        if not desc["valid_mask"] & (1 << slot):
            raise CorruptFileSystem("double free of group slot %d" % slot)
        desc["valid_mask"] &= ~(1 << slot)
        desc["slots"][slot] = (0, 0)
        if desc["valid_mask"] == 0:
            desc["state"] = EXT_FREE
            desc["owner"] = 0
            self.write_desc(ext, desc)
            for owner, active in list(self._active.items()):
                if active == ext:
                    del self._active[owner]
            return True
        self.write_desc(ext, desc)
        self._active.setdefault(desc["owner"], ext)
        return False

    def drop_hints(self):
        self._active.clear()


ORACLE_BPC = 256
ORACLE_CGS = 2
ORACLE_SPANS = (1, 2, 8, 16)
ORACLE_SEEDS = range(8)
OWNERS = (5, 6, 7, (1 << 40) + 1)


class _Side:
    """One table over its own cache, plus the set of individually
    allocated blocks a file system's bitmap would hold."""

    def __init__(self, cls, span):
        config = CFFSConfig(blocks_per_cg=ORACLE_BPC, group_span=span)
        self.cache = BufferCache(make_device(), 256)
        self.table = cls(
            self.cache,
            n_cgs=ORACLE_CGS,
            blocks_per_cg=ORACLE_BPC,
            gdt_blocks=config.gdt_blocks,
            data_start=config.data_start,
            cg_base_of=lambda cgi: 1 + cgi * ORACLE_BPC,
            span=span,
        )
        self.gdt = [table_block(1 + cgi * ORACLE_BPC, g)
                    for cgi in range(ORACLE_CGS) for g in range(config.gdt_blocks)]
        for bno in self.gdt:
            self.cache.create(bno)
        self.allocated = set()

    def ungrouped_free(self, bno):
        self.allocated.discard(bno)
        if isinstance(self.table, ReferenceGroupTable):
            # As it was asked before PR 20: block by block.
            self.table.note_ungrouped_free(bno, self.allocated.__contains__)
        else:
            self.table.note_ungrouped_free(
                bno, lambda start, count:
                self.allocated.isdisjoint(range(start, start + count)))

    def ungrouped_alloc(self, bno):
        self.table.note_ungrouped_alloc(bno)
        self.allocated.add(bno)

    def poke(self, ext, offset, raw):
        """Overwrite descriptor bytes by hand, as a dirty cached edit."""
        bno, off = self.table._desc_location(ext)
        self.cache.get(bno).data[off + offset:off + offset + len(raw)] = raw
        self.cache.mark_dirty(bno)

    def observe(self):
        return (dict(self.table._active),
                [bytes(self.cache.peek(bno).image) for bno in self.gdt],
                set(self.cache._dirty))


def _u16(value):
    return value.to_bytes(2, "little")


#: Descriptor states no transition produces: (name, byte offset within
#: the descriptor, bytes) given the span and a slot number.
def _hostile_pokes(span, slot):
    return [
        ("mask_beyond_span", 2, _u16(0xFFFF)),
        ("mask_only_beyond_span", 2, _u16(0xFFFF & ~((1 << span) - 1))),
        ("state_3", 0, _u16(3)),
        ("state_ffff", 0, _u16(0xFFFF)),
        ("grouped_with_empty_mask", 0, _u16(EXT_GROUPED) + _u16(0)),
        ("stale_slot_under_clear_bit", 16 + 12 * slot,
         (0xDEADBEEF).to_bytes(8, "little") + (77).to_bytes(4, "little")),
        ("state_back_to_grouped", 0, _u16(EXT_GROUPED)),
        ("state_back_to_free", 0, _u16(EXT_FREE)),
    ]


def _run_script(seed, span, steps=1200):
    """Drive both sides through one seeded script; returns what the
    script reached, for the corners test."""
    rng = random.Random(seed * 101 + span)
    real, ref = _Side(GroupTable, span), _Side(ReferenceGroupTable, span)
    table = ref.table
    per_cg = table.extents_per_cg
    # A few extents, so operations collide: both ends of a descriptor
    # block, its neighbour block, the last extent, two groups.
    pool = [(0, 0), (0, 1), (0, GDESC_PER_BLOCK - 1), (0, GDESC_PER_BLOCK),
            (0, per_cg - 1), (1, 0), (1, per_cg - 1)]
    reached = set()

    def both(name, *args):
        outcomes = []
        for side in (real, ref):
            target = getattr(side, name, None) or getattr(side.table, name)
            try:
                outcomes.append(("ok", target(*args)))
            except ReproError as exc:   # anything else fails the test as it is
                assert type(exc) is CorruptFileSystem
                outcomes.append(("corrupt", str(exc)))
        assert outcomes[0] == outcomes[1], (name, args, outcomes)
        assert real.observe() == ref.observe(), (name, args)
        return outcomes[1]

    def a_block(ext):
        return table.extent_base(ext) + rng.randrange(span)

    for _ in range(steps):
        ext = rng.choice(pool)
        roll = rng.random()
        if roll < 0.12:
            kind, _ = both("claim_extent", ext, rng.choice(OWNERS))
            reached.add("claim_" + kind)
        elif roll < 0.47:
            if rng.random() < 0.5 and table._active:
                ext = rng.choice(sorted(table._active.values()))
            before = dict(table._active)
            kind, bno = both("take_slot", ext, rng.getrandbits(64), rng.getrandbits(32))
            reached.add("take_none" if bno is None else "take_slot")
            if len(table._active) < len(before):
                reached.add("hint_dropped_on_take")
        elif roll < 0.77:
            bno = rng.choice([a_block(ext), a_block(ext), rng.randrange(0, 4),
                              1 + ORACLE_CGS * ORACLE_BPC + 3])
            kind, result = both("free_slot", bno)
            reached.add("free_%s_%s" % (kind, result if kind == "ok" else
                                        result.split()[0]))
        elif roll < 0.84:
            kind, _ = both("ungrouped_alloc", rng.choice([a_block(ext), 2]))
            reached.add("ungrouped_alloc_" + kind)
        elif roll < 0.92:
            bno = rng.choice(sorted(ref.allocated) + [a_block(ext), 2])
            ext = table.extent_of_block(bno)
            was_ungrouped = (ext is not None
                             and table.read_desc(ext)["state"] == EXT_UNGROUPED)
            both("ungrouped_free", bno)
            if was_ungrouped and table.read_desc(ext)["state"] == EXT_FREE:
                reached.add("ungrouped_reverts_to_free")
        elif roll < 0.93:
            both("drop_hints")
        else:
            name, offset, raw = rng.choice(_hostile_pokes(span, rng.randrange(span)))
            if name == "stale_slot_under_clear_bit":
                slot = (offset - 16) // 12
                if table.read_desc(ext)["valid_mask"] & (1 << slot):
                    continue  # the bit is set: that record is live, not stale
            if name == "state_back_to_free" and ext in table._active.values():
                # FREE under a live hint lets a second directory claim
                # the extent, and then two hints name it.  No transition
                # does that (an extent that empties takes its hint with
                # it), and it is the one state in which free_slot's sweep
                # over every hint could tell itself from a keyed check.
                continue
            both("poke", ext, offset, raw)
            reached.add(name)
    return reached


@pytest.mark.parametrize("span", ORACLE_SPANS)
@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_transitions_match_the_dict_round_trip(seed, span):
    _run_script(seed, span)


def test_the_script_reaches_the_corners():
    """The oracle is only as good as its script: every outcome of every
    transition and every hostile state must really occur."""
    reached = set()
    for span in ORACLE_SPANS:
        for seed in ORACLE_SEEDS:
            reached |= _run_script(seed, span)
    assert reached >= {
        "claim_ok", "claim_corrupt",
        "take_slot", "take_none", "hint_dropped_on_take",
        "free_ok_True", "free_ok_False",
        "free_corrupt_double", "free_corrupt_freeing", "free_corrupt_block",
        "ungrouped_alloc_ok", "ungrouped_alloc_corrupt",
        "ungrouped_reverts_to_free",
    } | {name for name, _, _ in _hostile_pokes(16, 0)}
