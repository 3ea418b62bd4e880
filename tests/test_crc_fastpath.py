"""Property tests for the bitmap-scan fast path.

:func:`repro.ffs.cylgroup.find_clear_bit` must agree with a bit-by-bit
probe for every (bitmap, start, end), because the allocator trusts it
to pick the *same* block the probe loop would have picked — that is
what keeps disk images byte-identical.
"""

from __future__ import annotations

import random

from repro.ffs.cylgroup import bit_is_set, find_clear_bit


def _probe_clear_bit(bitmap, start, end):
    """The replaced implementation: probe each offset in order."""
    for offset in range(start, end):
        if not bit_is_set(bitmap, offset):
            return offset
    return None


class TestFindClearBit:
    def test_matches_probe_loop_on_random_bitmaps(self):
        rng = random.Random(0xB17)
        for _ in range(400):
            nbits = rng.randrange(8, 257)
            nbytes = (nbits + 7) // 8
            # Mostly-full bitmaps: the shape the byte-skip targets.
            bitmap = bytearray(
                0xFF if rng.random() < 0.7 else rng.getrandbits(8)
                for _ in range(nbytes))
            start = rng.randrange(0, nbits)
            end = rng.randrange(start, nbits + 1)
            assert find_clear_bit(bitmap, start, end) == \
                _probe_clear_bit(bitmap, start, end)

    def test_edges(self):
        full = bytearray(b"\xff" * 8)
        assert find_clear_bit(full, 0, 64) is None
        assert find_clear_bit(full, 5, 5) is None  # empty range
        empty = bytearray(8)
        assert find_clear_bit(empty, 0, 64) == 0
        assert find_clear_bit(empty, 63, 64) == 63
        # First clear bit sits exactly on / just past the end bound.
        bm = bytearray(b"\xff" * 8)
        bm[4] = 0xFE  # bit 33 onward set, bit 32 clear
        assert find_clear_bit(bm, 0, 33) == 32
        assert find_clear_bit(bm, 0, 32) is None
        assert find_clear_bit(bm, 33, 64) is None
