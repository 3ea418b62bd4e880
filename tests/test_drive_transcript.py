"""Every drive profile, driven by a seeded request script, pinned as a
transcript.

The simulated drive is timing-only, so what it does is the completion
time of each request and where it leaves the arm.  This test runs one
script per profile in ``PROFILES`` (four write-through drives and the
ST31200 with write-behind) and records, for every request,

- the operation, its LBA and sector count;
- the completion time (``float.hex``, so a change in the last bit of a
  float shows);
- ``current_lba_estimate()`` after it;

and at the end the drive's :class:`DiskStats` (every field, floats as
``float.hex``, with ``request_sizes``) and the registry's
``disk.request_sectors`` histogram.  Each hand-picked request also runs
alone on a fresh drive, pinning its seek, rotation and transfer times.

The script is built from each profile's geometry.  It covers requests
at LBA 0 and at the last sector, requests ending on a zone's last
sector, starting on a zone's first sector and spanning two zones,
requests that switch tracks and cylinders (and that end exactly on a
track's last sector), read-ahead stream continuations, hits in frozen
segments, writes that invalidate a segment (including one whose last
sector is the segment's first), and on the write-behind drive write
absorption, overflow stalls, buffer hits, partial-overlap drains and
``flush_write_buffer``; then a seeded mix of the same ingredients with
idle gaps of several sizes.

``tests/golden/drive_transcript.json`` holds each profile's full
transcript.  A change to how the drive computes its timing must leave
all of it unchanged; a mismatch names the first request that moved
(``<profile>/requests[i]``).  Regeneration: see ``tests/golden.py``.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.disk.drive import SimulatedDisk
from repro.disk.profiles import PROFILES
from tests import golden

ALL_PROFILES = sorted(PROFILES)

#: Idle time (seconds) the seeded mix leaves before a request: none
#: (back-to-back, so the write-behind buffer fills), less than one
#: sector, a few sectors of a read-ahead stream, and enough for the
#: buffer to drain.
GAPS = (0.0, 0.0, 0.0, 5e-5, 1e-3, 4e-3, 3e-2)


def _zone_starts(geometry):
    starts, lba = [], 0
    for zone in geometry.zones:
        starts.append(lba)
        lba += zone.cylinders * geometry.heads * zone.sectors_per_track
    return starts


def fixed_steps(profile):
    """The hand-picked part of the script: ``(gap, op, lba, n)``."""
    geometry = profile.geometry()
    total = geometry.total_sectors
    heads = geometry.heads
    starts = _zone_starts(geometry)
    steps = [
        (0.0, "read", 0, 8), (0.0, "read", total - 1, 1),
        (0.0, "write", 0, 1), (0.0, "write", total - 8, 8),
        (0.0, "read", total - 64, 64), (1e-2, "flush", 0, 0),
    ]
    # Zone boundaries: end on the last sector of one zone, start on the
    # first of the next, span both (also past the next zone's first
    # cylinder, where the two zones' cylinder sizes give different
    # answers), and come back from the far side.
    for zi in range(1, len(starts)):
        b = starts[zi]
        spt_before = geometry.zones[zi - 1].sectors_per_track
        spc = heads * geometry.zones[zi].sectors_per_track
        steps += [
            (2e-2, "read", b - 8, spc + 9), (2e-2, "read", b - 8, 8),
            (0.0, "write", b - 2 * spc, 3 * spc + 40), (2e-2, "flush", 0, 0),
            (0.0, "read", b + spc - 1, 8),
            (0.0, "read", b - 8, 8), (0.0, "read", b, 8),
            (0.0, "read", b - 4, 8), (0.0, "write", b - 16, 32),
            (0.0, "read", b - spt_before, spt_before), (0.0, "write", b, 4),
            (2e-2, "read", b - 3 * spt_before - 5, 3 * spt_before + 9),
            (2e-2, "read", 0, 1), (0.0, "write", b - 1, 1),
            (0.0, "read", b, 1), (2e-2, "flush", 0, 0),
        ]
    # Track and cylinder switches inside each zone: a whole track from
    # its first sector (ends on the track's last sector), one sector
    # short of and one past a track, a request across a cylinder.
    for zi, zone in enumerate(geometry.zones):
        spt = zone.sectors_per_track
        base = starts[zi] + 3 * heads * spt
        steps += [
            (0.0, "read", base, spt), (0.0, "read", base + spt - 4, 8),
            (0.0, "read", base + 2 * spt, spt - 1),
            (0.0, "read", base + 3 * spt + 1, spt),
            (0.0, "write", base + heads * spt - 5, 10),
            (0.0, "write", base + 5 * spt, 2 * spt),
            (1e-2, "read", base + heads * spt - spt, 2 * spt + 1),
            (1e-2, "flush", 0, 0),
        ]
    # Every track-switch count up to 47, from a few sector offsets, on
    # the outermost and innermost zones.
    for zi in (0, len(starts) - 1):
        spt = geometry.zones[zi].sectors_per_track
        for k in range(1, 49):
            steps.append((0.0, "read", starts[zi] + (k % 3) * (spt // 2),
                          k * spt - (k % 4)))
    # Read-ahead: a stream and its continuations, a miss past its
    # bound, a frozen segment, and writes that must invalidate it.
    lba = starts[-1] // 2
    far = starts[-1] + 1000
    ra = profile.readahead_sectors
    steps += [
        (1e-2, "read", lba, 8), (0.0, "read", lba + 8, 8),
        (1e-3, "read", lba + 16, 8), (2e-2, "read", lba + 24, 16),
        (0.0, "read", lba + 40 + ra + 100, 8),
        (0.0, "read", far, 8), (0.0, "read", lba + 4, 4),
        (0.0, "read", far + 2, 4), (1e-2, "read", far + 12, 4),
        # The write's last sector is the segment's first.
        (0.0, "read", lba + 500, 8), (0.0, "read", far + 700, 8),
        (0.0, "write", lba + 497, 4), (1e-2, "flush", 0, 0),
        (0.0, "read", lba + 500, 4),
        # The write's first sector is the segment's last reachable one.
        (0.0, "read", lba + 900, 8), (0.0, "read", far + 900, 8),
        (0.0, "write", lba + 907, 2), (1e-2, "flush", 0, 0),
        (0.0, "read", lba + 902, 4),
        # A write just past the segment's bound leaves it alone.
        (0.0, "read", lba + 1300, 8), (0.0, "read", far + 1300, 8),
        (0.0, "write", lba + 1308 + ra, 8), (1e-2, "flush", 0, 0),
        (0.0, "read", lba + 1302, 4),
    ]
    # Write-behind: absorption (same range, then a resize of it), a
    # buffer hit, a partial overlap that drains everything, back-to-back
    # writes until the buffer overflows and stalls, and a flush.
    w = starts[-1] // 3
    steps += [
        (0.0, "write", w, 8), (0.0, "write", w, 8), (0.0, "write", w, 16),
        (0.0, "read", w + 2, 4), (0.0, "write", w + 40, 8),
        (0.0, "read", w + 44, 8), (0.0, "write", w + 16, 8),
        (0.0, "write", w + 24, 8), (1e-3, "read", w + 16, 16),
    ]
    for i in range(24):
        steps.append((0.0, "write", w + 1000 + 137 * i, 64))
    steps += [(0.0, "write", w + 1000, 64), (5e-3, "read", w + 1137, 8),
              (0.0, "flush", 0, 0), (0.0, "flush", 0, 0)]
    return steps


def seeded_steps(profile, seed, count=220):
    """A seeded mix of the fixed part's ingredients."""
    rng = random.Random(seed)
    geometry = profile.geometry()
    total = geometry.total_sectors
    starts = _zone_starts(geometry)
    sizes = (1, 2, 8, 8, 16, 64, 128, geometry.zones[-1].sectors_per_track)
    steps, recent = [], [0]
    for _ in range(count):
        roll = rng.random()
        n = rng.choice(sizes)
        if roll < 0.25:
            lba = rng.randrange(total - n + 1)
        elif roll < 0.45:
            b = rng.choice(starts[1:] + [total])
            lba = b - rng.randrange(1, 2 * n + 2)
        elif roll < 0.75:
            lba = recent[-1]
        elif roll < 0.95:
            lba = rng.choice(recent)
        else:
            steps.append((rng.choice(GAPS), "flush", 0, 0))
            continue
        lba = max(0, min(lba, total - n))
        op = "write" if rng.random() < 0.45 else "read"
        steps.append((rng.choice(GAPS), op, lba, n))
        recent = (recent + [lba + n if roll < 0.75 else lba])[-6:]
    return steps


def run_script(profile, steps):
    disk = SimulatedDisk(profile)
    lines = []
    for gap, op, lba, n in steps:
        disk.clock.advance(gap)
        if op == "flush":
            disk.flush_write_buffer()
            head = "flush"
        else:
            getattr(disk, op)(lba, n)
            head = "%s %d+%d" % (op[0], lba, n)
        lines.append("%s %s %d" % (head, disk.clock.now.hex(),
                                   disk.current_lba_estimate()))
    return disk, lines


def single_requests(profile):
    """Each of the fixed part's requests on a fresh drive, with its
    seek, rotation and transfer times as ``float.hex``.  Inside a long
    script the clock is large and a last-bit change in one transfer can
    round away in the sum; here each component stands alone."""
    lines = []
    for _, op, lba, n in fixed_steps(profile):
        if op == "flush":
            continue
        disk = SimulatedDisk(profile)
        getattr(disk, op)(lba, n)
        s = disk.stats
        lines.append("%s %d+%d %s %s %s %s" % (
            op[0], lba, n, float(s.seek_time).hex(),
            float(s.rotation_time).hex(), float(s.transfer_time).hex(),
            disk.clock.now.hex()))
    return lines


def _stats(stats):
    out = {}
    for f in dataclasses.fields(stats):
        value = getattr(stats, f.name)
        if isinstance(value, dict):
            value = [list(item) for item in sorted(value.items())]
        elif isinstance(value, float):
            value = value.hex()
        out[f.name] = value
    return out


def transcript(name: str) -> dict:
    profile = PROFILES[name]
    steps = fixed_steps(profile) + seeded_steps(profile, 1997)
    disk, lines = run_script(profile, steps)
    return {
        "requests": lines,
        "single": single_requests(profile),
        "stats": _stats(disk.stats),
        "request_sectors": disk.registry.snapshot()["disk.request_sectors"],
    }


@pytest.mark.parametrize("name", ALL_PROFILES)
def test_drive_transcript(name):
    golden.pin("drive_transcript.json", {name: transcript(name)})


def test_script_reaches_every_path():
    """The golden would not pin a path the script never takes."""
    pinned = golden.data("drive_transcript.json")
    for name in ALL_PROFILES:
        stats = pinned[name]["stats"]
        assert stats["cache_hits"] > 0, name
        if PROFILES[name].write_cache:
            assert stats["write_absorbed"] > 0, name
            assert float.fromhex(stats["stall_time"]) > 0, name
    assert any(PROFILES[name].write_cache for name in ALL_PROFILES)
    assert sum(not PROFILES[name].write_cache for name in ALL_PROFILES) == 4
