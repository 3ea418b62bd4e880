"""Offline check and repair of the resilience region.

Runs against the *raw physical* image (the same
``peek_block``/``poke_block``/``total_blocks`` surface the other
checkers use) and validates the self-healing layer's own metadata
before any file-system walk:

- the header block decodes, its CRC holds, and its geometry covers the
  device (:func:`~repro.fsck.image.check_image` decodes it);
- the remap table is internally consistent: spare indices unique and
  inside the consumed prefix of the pool, logical blocks inside the
  usable region, nothing both remapped and lost;
- every non-lost usable block's content matches its sidecar CRC-32.

A sidecar mismatch is *expected* after a crash — checksums are flushed
at sync barriers, so a cut between a media write and the next flush
leaves the sidecar stale — which is why repair mode rebuilds the
sidecar from the media rather than condemning the data: structural
trust in the content is exactly what the file-system walk that follows
(over the remap-resolving
:class:`~repro.resilience.device.LogicalView`) establishes.
"""

from __future__ import annotations

from repro.fsck.checker import FsckReport
from repro.resilience.checksums import (
    CRCS_PER_BLOCK,
    crc32,
    pack_crc_block,
    unpack_crc_block,
)
from repro.resilience.layout import ResilienceHeader


def check_region(device, header: ResilienceHeader,
                 repair: bool) -> FsckReport:
    """Check (and with ``repair=True`` rebuild) the resilience metadata
    ``header`` describes; a repaired header is rewritten in place."""
    report = FsckReport(filesystem="resilience")
    geo = header.geometry
    header_dirty = _check_tables(report, header, repair)

    # Sidecar verification: every non-lost usable block's media content
    # must hash to its stored CRC.
    sidecar_dirty = set()
    stale = 0
    for sidecar_index in range(geo.n_crc_blocks):
        raw = device.peek_block(geo.crc_start + sidecar_index)
        stored = unpack_crc_block(raw)
        base = sidecar_index * CRCS_PER_BLOCK
        for slot in range(min(CRCS_PER_BLOCK, geo.usable_blocks - base)):
            bno = base + slot
            if bno in header.lost:
                continue
            actual = crc32(device.peek_block(header.phys(bno)))
            if actual != stored[slot]:
                stale += 1
                if stale <= 3:
                    report.repair(
                        "sidecar CRC for block %d is 0x%08x, media holds "
                        "0x%08x" % (bno, stored[slot], actual))
                if repair:
                    stored[slot] = actual
                    sidecar_dirty.add(sidecar_index)
        if repair and sidecar_index in sidecar_dirty:
            device.poke_block(geo.crc_start + sidecar_index,
                              pack_crc_block(stored))
    if stale > 3:
        report.repair("... and %d more stale sidecar entries" % (stale - 3))
    if repair and stale:
        report.fix("rebuilt %d sidecar entries from media content" % stale)
    if header.lost:
        report.warn("%d blocks on the lost list; their content is "
                    "untrusted and was not verified" % len(header.lost))

    if repair and header_dirty:
        device.poke_block(geo.header_block, header.pack())
        report.fix("rewrote resilience header")
    report.blocks_in_use = len(header.remap)
    return report


def _check_tables(report: FsckReport, header: ResilienceHeader,
                  repair: bool) -> bool:
    """Validate remap/lost tables; returns whether the header changed."""
    geo = header.geometry
    dirty = False
    if header.spares_used > geo.n_spares:
        report.error("header claims %d spares used of a pool of %d"
                     % (header.spares_used, geo.n_spares))
        if repair:
            header.spares_used = geo.n_spares
            dirty = True
    seen_spares = {}
    for logical in sorted(header.remap):
        spare = header.remap[logical]
        if logical >= geo.usable_blocks:
            report.error("remap entry for block %d outside usable region"
                         % logical)
            if repair:
                del header.remap[logical]
                dirty = True
            continue
        if spare >= geo.n_spares:
            report.error("block %d remapped to nonexistent spare %d"
                         % (logical, spare))
            if repair:
                del header.remap[logical]
                header.lost.add(logical)
                dirty = True
            continue
        if spare >= header.spares_used:
            # The spare is real but outside the consumed prefix: the
            # allocation counter lagged the remap write.  Trust the map.
            report.repair("spare %d in use but spares_used is %d"
                          % (spare, header.spares_used))
            if repair:
                header.spares_used = spare + 1
                dirty = True
        if spare in seen_spares:
            report.error("spare %d claimed by blocks %d and %d"
                         % (spare, seen_spares[spare], logical))
            if repair:
                del header.remap[logical]
                header.lost.add(logical)
                dirty = True
            continue
        seen_spares[spare] = logical
    for logical in sorted(header.lost):
        if logical >= geo.usable_blocks:
            report.error("lost entry for block %d outside usable region"
                         % logical)
            if repair:
                header.lost.discard(logical)
                dirty = True
        elif logical in header.remap:
            report.repair("block %d both remapped and lost; the remap wins"
                          % logical)
            if repair:
                header.lost.discard(logical)
                dirty = True
    return dirty
