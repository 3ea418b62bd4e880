"""Property-based invariants for the substrate: allocator, write
buffer, and drive timing under random operation sequences."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk.cache import WriteBuffer
from repro.disk.drive import SimulatedDisk
from tests.conftest import TEST_PROFILE, free_blocks
from tests.test_alloc_mapping import make_alloc


class TestAllocatorModel:
    @given(st.lists(
        st.tuples(st.sampled_from(["alloc", "free"]), st.integers(0, 2)),
        min_size=1, max_size=120,
    ))
    @settings(max_examples=50, deadline=None)
    def test_random_alloc_free_matches_set_model(self, ops):
        """Allocator state always equals a simple set model: no double
        allocations, frees restore availability, counts agree."""
        alloc, _cache = make_alloc(n_cgs=2, blocks_per_cg=64, data_start=4)
        model = set()
        initial_free = free_blocks(alloc)
        for op, cg in ops:
            cg = cg % 2
            if op == "alloc":
                try:
                    bno = alloc.alloc_block(cg)
                except Exception:
                    assert len(model) == initial_free
                    continue
                assert bno not in model
                model.add(bno)
            elif model:
                victim = sorted(model)[0]
                alloc.free_block(victim)
                model.discard(victim)
            assert free_blocks(alloc) == initial_free - len(model)
        for bno in model:
            assert not alloc.run_is_free(bno, 1)

    @given(st.lists(st.integers(0, 2), min_size=1, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_contiguous_runs_never_overlap(self, prefs):
        alloc, _cache = make_alloc(n_cgs=3, blocks_per_cg=128, data_start=4)
        taken = set()
        for pref in prefs:
            start = alloc.alloc_contiguous(pref % 3, 8, align=8)
            if start is None:
                continue
            run = set(range(start, start + 8))
            assert not (run & taken)
            taken |= run


class TestWriteBufferModel:
    @given(st.lists(
        st.tuples(st.integers(0, 30), st.sampled_from([8, 16])),
        min_size=1, max_size=60,
    ))
    @settings(max_examples=60, deadline=None)
    def test_everything_added_drains_exactly_once(self, writes):
        """Sector-ranges put into the buffer come back out exactly once
        (coalesced), with pending counts consistent throughout."""
        wb = WriteBuffer(capacity_sectors=10_000)
        expected = {}
        for slot, n in writes:
            start = slot * 64  # disjoint slots: no partial overlaps
            wb.add(start, n, when=1.0)
            expected[start] = n
        assert wb.pending_sectors == sum(expected.values())
        drained = []
        while not wb.empty:
            start, n, _ready = wb.pop_drain()
            drained.append((start, n))
        assert wb.pending_sectors == 0
        covered = set()
        for start, n in drained:
            sectors = set(range(start, start + n))
            assert not (sectors & covered)
            covered |= sectors
        want = set()
        for start, n in expected.items():
            want |= set(range(start, start + n))
        assert covered == want

    @given(st.lists(st.integers(0, 50), min_size=2, max_size=50, unique=True))
    @settings(max_examples=40, deadline=None)
    def test_drain_order_is_single_ascending_sweep(self, slots):
        """C-LOOK from rotor 0: drains come out in ascending order."""
        wb = WriteBuffer(capacity_sectors=100_000)
        for slot in slots:
            wb.add(slot * 100, 8)
        order = []
        while not wb.empty:
            order.append(wb.pop_drain()[0])
        assert order == sorted(order)


class TestDriveTimingProperties:
    @given(st.lists(
        st.tuples(st.booleans(), st.integers(0, 1000), st.sampled_from([8, 32, 128])),
        min_size=1, max_size=60,
    ))
    @settings(max_examples=30, deadline=None)
    def test_clock_monotone_and_bounded(self, ops):
        """The clock never regresses, each op costs at least its
        command overhead, and no single small op exceeds a generous
        bound (a write may stall on a full write-behind buffer, paying
        for queued drains, so the bound covers accumulated work)."""
        disk = SimulatedDisk(TEST_PROFILE)
        bound = 1.0
        for is_write, slot, n in ops:
            lba = (slot * 97) % (disk.total_sectors - n)
            before = disk.clock.now
            if is_write:
                disk.write(lba, n)
            else:
                disk.read(lba, n)
            elapsed = disk.clock.now - before
            assert elapsed >= TEST_PROFILE.command_overhead_ms / 1000.0 * 0.99
            assert elapsed < bound
        disk.flush_write_buffer()
        assert disk.write_buffer.empty

    @given(st.integers(0, 2**31))
    @settings(max_examples=20, deadline=None)
    def test_determinism_for_any_seed(self, seed):
        def run() -> float:
            disk = SimulatedDisk(TEST_PROFILE)
            rng = random.Random(seed)
            for _ in range(30):
                lba = rng.randrange(0, disk.total_sectors - 128)
                if rng.random() < 0.5:
                    disk.read(lba, 8)
                else:
                    disk.write(lba, 8)
            disk.flush_write_buffer()
            return disk.clock.now

        assert run() == run()


class TestEndToEndDeterminism:
    def test_full_benchmark_bitwise_repeatable(self):
        from repro.workloads import run_smallfile
        from tests.conftest import make_cffs

        def run():
            fs = make_cffs()
            res = run_smallfile(fs, n_files=120, file_size=1024)
            return [(p, r.seconds, r.measured.disk.reads,
                     r.measured.disk.writes)
                    for p, r in res.phases.items()]

        assert run() == run()
