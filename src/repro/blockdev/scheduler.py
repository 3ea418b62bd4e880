"""Request ordering for batched I/O.

The driver the paper used applies C-LOOK [Worthington94]: service
requests in ascending address order starting from the arm's current
position, then wrap to the lowest outstanding address.  We apply the
same discipline to each batch the file system hands down (cache flushes
and group operations), and coalesce runs of adjacent blocks into single
scatter/gather requests.  The live multi-client queue keeps itself in
that order (:mod:`repro.engine.diskqueue`); nothing here selects from it.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple


def clook_order(block_numbers: Iterable[int], head_position: int) -> List[int]:
    """Order ``block_numbers`` C-LOOK style around ``head_position``.

    Blocks at or beyond the head position are served first in ascending
    order; the remainder follow, also ascending (the "wrap").
    """
    ordered = sorted(set(block_numbers))
    ge = [b for b in ordered if b >= head_position]
    lt = [b for b in ordered if b < head_position]
    return ge + lt


#: The longest extent one coalesced request covers, in blocks.
MAX_EXTENT_BLOCKS = 256


def coalesce_blocks(block_numbers: Sequence[int]) -> List[Tuple[int, int]]:
    """Collapse runs of adjacent block numbers into (start, count) extents.

    The input order is preserved run-by-run (callers pass C-LOOK-ordered
    lists), and runs are capped at ``MAX_EXTENT_BLOCKS`` so a single
    request cannot grow without bound.
    """
    extents: List[Tuple[int, int]] = []
    run_start = None
    run_len = 0
    for bno in block_numbers:
        if (run_start is not None and bno == run_start + run_len
                and run_len < MAX_EXTENT_BLOCKS):
            run_len += 1
        else:
            if run_start is not None:
                extents.append((run_start, run_len))
            run_start = bno
            run_len = 1
    if run_start is not None:
        extents.append((run_start, run_len))
    return extents
