"""Zoned disk geometry and logical-block-address translation.

Modern (for 1996) drives use zoned recording: outer cylinders hold more
sectors per track than inner ones, so the media transfer rate depends on
the cylinder.  The geometry object owns the zone table and performs the
LBA <-> (cylinder, head, sector) translation the mechanical model needs.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import AddressError

SECTOR_SIZE = 512


@dataclass(frozen=True)
class Zone:
    """A contiguous run of cylinders sharing one sectors-per-track value."""

    cylinders: int
    sectors_per_track: int

    def __post_init__(self) -> None:
        if self.cylinders <= 0:
            raise ValueError("zone must span at least one cylinder")
        if self.sectors_per_track <= 0:
            raise ValueError("zone must have at least one sector per track")


class DiskGeometry:
    """Zoned platter geometry with O(log zones) address translation.

    Parameters
    ----------
    heads:
        Number of recording surfaces (tracks per cylinder).
    zones:
        Zone table, ordered from the outermost (first) cylinders inward.
        Outer zones should have the larger sectors-per-track values, but
        this is not enforced — test geometries are free to be uniform.
    """

    def __init__(self, heads: int, zones: List[Zone]) -> None:
        if heads <= 0:
            raise ValueError("disk must have at least one head")
        if not zones:
            raise ValueError("disk must have at least one zone")
        self.heads = heads
        self.zones = list(zones)
        self.cylinders = sum(z.cylinders for z in self.zones)

        # Prefix tables (first cylinder and first LBA of each zone) for
        # bisect, and each zone's sectors per track and per cylinder,
        # computed once.
        self._zone_first_cyl: List[int] = []
        self._zone_first_lba: List[int] = []
        self._zone_spt: List[int] = []
        self._zone_spc: List[int] = []
        cyl = 0
        lba = 0
        for zone in self.zones:
            self._zone_first_cyl.append(cyl)
            self._zone_first_lba.append(lba)
            self._zone_spt.append(zone.sectors_per_track)
            self._zone_spc.append(zone.sectors_per_track * heads)
            cyl += zone.cylinders
            lba += zone.cylinders * heads * zone.sectors_per_track
        self.total_sectors = lba

    @property
    def capacity_bytes(self) -> int:
        return self.total_sectors * SECTOR_SIZE

    def zone_of_cylinder(self, cylinder: int) -> int:
        """Index of the zone containing ``cylinder``."""
        if not 0 <= cylinder < self.cylinders:
            raise AddressError("cylinder %d outside [0, %d)" % (cylinder, self.cylinders))
        return bisect_right(self._zone_first_cyl, cylinder) - 1

    def zone_of_lba(self, lba: int) -> int:
        """Index of the zone containing logical block address ``lba``."""
        if not 0 <= lba < self.total_sectors:
            raise AddressError("lba %d outside [0, %d)" % (lba, self.total_sectors))
        return bisect_right(self._zone_first_lba, lba) - 1

    def zone_spans(self) -> List[Tuple[int, int, int, int, int]]:
        """Per zone: first LBA, end LBA (exclusive), first cylinder,
        sectors per track and sectors per cylinder."""
        ends = self._zone_first_lba[1:] + [self.total_sectors]
        return list(zip(self._zone_first_lba, ends, self._zone_first_cyl,
                        self._zone_spt, self._zone_spc))

    def chs(self, lba: int) -> Tuple[int, int, int]:
        """Translate an LBA to (cylinder, head, sector-on-track)."""
        zi = self.zone_of_lba(lba)
        cyl_offset, rem = divmod(lba - self._zone_first_lba[zi], self._zone_spc[zi])
        head, sector = divmod(rem, self._zone_spt[zi])
        return self._zone_first_cyl[zi] + cyl_offset, head, sector

    def lba(self, cylinder: int, head: int, sector: int) -> int:
        """Translate (cylinder, head, sector) back to an LBA."""
        zi = self.zone_of_cylinder(cylinder)
        spt = self._zone_spt[zi]
        if not 0 <= head < self.heads:
            raise AddressError("head %d outside [0, %d)" % (head, self.heads))
        if not 0 <= sector < spt:
            raise AddressError("sector %d outside [0, %d)" % (sector, spt))
        cyl_offset = cylinder - self._zone_first_cyl[zi]
        return self._zone_first_lba[zi] + (cyl_offset * self.heads + head) * spt + sector

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "DiskGeometry(cyls=%d, heads=%d, zones=%d, sectors=%d)" % (
            self.cylinders,
            self.heads,
            len(self.zones),
            self.total_sectors,
        )

