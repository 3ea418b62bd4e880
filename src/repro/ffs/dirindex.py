"""The in-memory directory index, one structure for both on-disk formats.

A kernel dnlc analogue: name -> whatever the format's codec yields for a
live entry, plus a map of insertion space per *slot* — a whole block
for the FFS format, a ``(block, sector)`` pair for C-FFS.  The on-disk
entries stay authoritative; the index fills *incrementally* — a lookup
scans directory blocks only until its name appears, the way a real
lookup walks the directory, and only absence checks (create, link,
rename targets) force a full scan.  The file system charges all scan
costs (disk reads, per-entry CPU) as it fills the index.

For the FFS format the index also keeps each block's *room list*
(``rooms``: block -> ``ffs.directory.room_list``), built by one walk
the first time the block takes an insert and kept from what the edits
return, so an insert reads only its target record's header.  It lives
and dies with the index.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Hashable, List, Optional, Tuple


class DirIndex:
    """Name cache and free-space map of one directory."""

    __slots__ = ("names", "free", "rooms", "scan_hint", "scanned_blocks",
                 "complete")

    def __init__(self) -> None:
        self.names: Dict[str, tuple] = {}
        self.free: Dict[Hashable, int] = {}
        self.rooms: Dict[int, List[Tuple[int, int]]] = {}
        # needed-size -> position in ``free``'s (insertion) order before
        # which no slot can hold an entry of that size.  Keys are never
        # removed from ``free`` and new ones append at the end, so a hint
        # stays valid as long as no existing slot's free count grows —
        # set_free clears the hints when one does.
        self.scan_hint: Dict[int, int] = {}
        self.scanned_blocks = 0
        self.complete = False

    def set_free(self, slot: Hashable, value: int) -> None:
        prev = self.free.get(slot)
        if prev is not None and value > prev:
            self.scan_hint.clear()
        self.free[slot] = value

    def first_fit(self, needed: int) -> Optional[Hashable]:
        """The first slot (in scan order) with room for ``needed`` bytes,
        resuming past the prefix a prior search of this size proved too
        full; None when the directory must grow."""
        pos = self.scan_hint.get(needed, 0)
        found = None
        for slot, free in islice(self.free.items(), pos, None):
            if free >= needed:
                found = slot
                break
            pos += 1
        self.scan_hint[needed] = pos
        return found
