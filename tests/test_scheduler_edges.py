"""Edge cases for request ordering: the batch helpers in
blockdev/scheduler and the disk queue's per-dispatch selection.

The happy paths are covered by test_blockdev.py and test_engine.py;
these pin the corners: empty inputs, duplicates, run-cap boundaries,
and head positions outside the outstanding address range.
"""

from repro.blockdev.scheduler import MAX_EXTENT_BLOCKS, clook_order, coalesce_blocks
from repro.clock import SimClock
from repro.engine import DiskQueue, EventLoop
from tests.conftest import queue_depth


class TestClookOrderEdges:
    def test_empty_input(self):
        assert clook_order([], head_position=100) == []

    def test_single_block(self):
        assert clook_order([7], head_position=0) == [7]
        assert clook_order([7], head_position=99) == [7]

    def test_duplicates_collapse(self):
        assert clook_order([4, 4, 2, 4, 2], head_position=3) == [4, 2]

    def test_head_beyond_all_blocks_wraps_ascending(self):
        # Nothing at or past the head: the sweep is entirely the wrap.
        assert clook_order([9, 5, 7], head_position=50) == [5, 7, 9]

    def test_head_below_all_blocks_no_wrap(self):
        assert clook_order([9, 5, 7], head_position=0) == [5, 7, 9]

    def test_head_exactly_on_a_block(self):
        # "At or beyond" includes the head position itself.
        assert clook_order([5, 3, 8], head_position=5) == [5, 8, 3]


class TestCoalesceEdges:
    def test_empty_input(self):
        assert coalesce_blocks([]) == []

    def test_single_block(self):
        assert coalesce_blocks([3]) == [(3, 1)]

    def test_cap_boundary_exact(self):
        # A run of exactly MAX_EXTENT_BLOCKS stays one extent...
        cap = MAX_EXTENT_BLOCKS
        assert coalesce_blocks(list(range(cap))) == [(0, cap)]
        # ...one more block starts a second extent.
        assert coalesce_blocks(list(range(cap + 1))) == [(0, cap), (cap, 1)]

    def test_duplicate_blocks_do_not_extend_a_run(self):
        # Callers pass deduplicated lists; a repeat is its own extent,
        # never silently merged into the running one.
        assert coalesce_blocks([4, 4]) == [(4, 1), (4, 1)]

    def test_descending_input_preserved_run_by_run(self):
        assert coalesce_blocks([9, 8, 7]) == [(9, 1), (8, 1), (7, 1)]


class _ParkedDisk:
    """Just enough drive for a DiskQueue: the arm stays where the test
    parks it, every request takes a millisecond."""

    def __init__(self, head_position):
        self.head_position = head_position
        self.clock = SimClock()

    def current_lba_estimate(self):
        return self.head_position

    def read(self, lba, nsectors):
        self.clock.advance(0.001)


def _next_index(policy, addresses, head_position):
    """Index into ``addresses`` (arrival order) of the request the queue
    dispatches first with the arm at ``head_position``."""
    loop = EventLoop()
    queue = DiskQueue(loop, _ParkedDisk(head_position), policy)
    served = []
    queue.submit("read", head_position, 8)      # occupies the drive
    for index, lba in enumerate(addresses):
        queue.submit("read", lba, 8,
                     on_complete=lambda req, index=index: served.append(index))
    assert queue_depth(queue) == len(addresses)
    loop.run()
    assert sorted(served) == list(range(len(addresses)))
    return served[0]


def sstf_next(addresses, head_position):
    return _next_index("sstf", addresses, head_position)


def clook_next(addresses, head_position):
    return _next_index("clook", addresses, head_position)


class TestQueueSelection:
    def test_sstf_empty_queue_dispatches_nothing(self):
        self._assert_empty_queue_is_inert("sstf")

    def test_clook_empty_queue_dispatches_nothing(self):
        self._assert_empty_queue_is_inert("clook")

    @staticmethod
    def _assert_empty_queue_is_inert(policy):
        loop = EventLoop()
        queue = DiskQueue(loop, _ParkedDisk(0), policy)
        loop.run()
        assert loop.events_run == 0 and queue.stats.completed == 0
        # ...and a drained queue is as inert as a new one.
        queue.submit("read", 40, 8)
        loop.run()
        events = loop.events_run
        loop.run()
        assert loop.events_run == events and queue_depth(queue) == 0
        assert queue.stats.submitted == queue.stats.completed == 1

    def test_sstf_picks_closest_either_side(self):
        assert sstf_next([100, 40, 55], head_position=50) == 2
        assert sstf_next([100, 48, 55], head_position=50) == 1

    def test_sstf_tie_goes_to_earliest_submitted(self):
        # 45 and 55 are equidistant from 50; index 0 wins.
        assert sstf_next([55, 45], head_position=50) == 0
        assert sstf_next([45, 55], head_position=50) == 0

    def test_sstf_duplicates_pick_first(self):
        assert sstf_next([60, 60, 60], head_position=50) == 0

    def test_clook_prefers_lowest_at_or_beyond_head(self):
        assert clook_next([90, 55, 10], head_position=50) == 1

    def test_clook_head_beyond_all_wraps_to_lowest(self):
        assert clook_next([90, 55, 10], head_position=95) == 2

    def test_clook_head_exactly_on_address(self):
        assert clook_next([90, 50, 10], head_position=50) == 1

    def test_clook_duplicate_addresses_pick_first(self):
        assert clook_next([70, 70], head_position=50) == 0
        assert clook_next([30, 30], head_position=50) == 0
