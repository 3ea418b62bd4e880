"""One offline path for every image: check it, or mount it.

Around the walk (:mod:`repro.fsck.checker`) sit two questions every
offline caller asks of an image: does it carry a resilience region, and
which format does block 0 name?  :func:`check_image` and
:func:`mount_image` answer both, in one order, for the CLI, the
crash-point sweep and the chaos soak alike (:func:`open_image` answers
them for a reader that must not mount, such as ``repro journal``: a
mount replays the log it wants to show).  A check goes:

1. read the resilience header (the last physical block) once;
2. on a resilient image, check the region — and with ``repair=True``
   rebuild it (:func:`~repro.fsck.resilience.check_region`) — and stop
   there unless it is ok; the walk then runs over the remap-resolving
   :class:`~repro.resilience.device.LogicalView`;
3. walk the format block 0's magic names.  With ``repair=True`` and an
   unrecognised magic, try each format's replica restore in
   :data:`FORMAT_LABELS` order: the magic may itself be the damage.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Optional, Tuple, Type

from repro.core.filesystem import CFFS
from repro.errors import CorruptFileSystem, UnknownFormat
from repro.ffs.base import BlockFileSystem
from repro.ffs.filesystem import FFS
from repro.fsck.checker import FsckReport, fsck_cffs, fsck_ffs
from repro.fsck.resilience import check_region
from repro.resilience.device import LogicalView, ResilientBlockDevice
from repro.resilience.layout import ResilienceHeader, try_unpack_header

#: Every format (label, checker, file-system class), in the order to try
#: them on an image whose magic is itself the damage.
_FORMATS = (("ffs", fsck_ffs, FFS), ("cffs", fsck_cffs, CFFS))

#: The format labels, in that order.
FORMAT_LABELS = tuple(label for label, _, _ in _FORMATS)
_BY_KEY = {key: (check, cls) for label, check, cls in _FORMATS
           for key in (label, cls.MAGIC)}


def format_for(key) -> Optional[Type[BlockFileSystem]]:
    """The file-system class (``mkfs``, ``mount``, ``Config``,
    ``unpack_superblock``) of the format named by its label ("ffs",
    "cffs") or by its superblock magic; None when there is none."""
    return _BY_KEY.get(key, (None, None))[1]


@dataclass
class ImageReport:
    """What :func:`check_image` found on one image."""

    #: The resilience region's report; None on a bare image.
    resilience: Optional[FsckReport]
    #: The walk's report; None when no walk ran (the region was not ok,
    #: or block 0's magic named no format).
    filesystem: Optional[FsckReport]
    #: Block 0's magic when it named no format and no replica restored one.
    unknown_magic: Optional[int]

    def _reports(self) -> List[FsckReport]:
        return [r for r in (self.resilience, self.filesystem) if r is not None]

    @property
    def ok(self) -> bool:
        return (self.filesystem is not None
                and all(r.ok for r in self._reports()))

    @property
    def pristine(self) -> bool:
        return (self.filesystem is not None
                and all(r.pristine for r in self._reports()))

    @property
    def errors(self) -> List[str]:
        return [line for r in self._reports() for line in r.errors]

    @property
    def repairs(self) -> List[str]:
        return [line for r in self._reports() for line in r.repairs]

    @property
    def fixed(self) -> List[str]:
        return [line for r in self._reports() for line in r.fixed]

    def render(self) -> str:
        return "\n".join(r.render() for r in self._reports())


def _header(device) -> Optional[ResilienceHeader]:
    """The resilience header in the last physical block: None on a bare
    image, :class:`CorruptFileSystem` when it is damaged."""
    return try_unpack_header(device.peek_block(device.total_blocks - 1),
                             device.total_blocks)


def _magic(device) -> int:
    return struct.unpack_from("<I", device.peek_block(0), 0)[0]


def check_image(device, repair: bool = False) -> ImageReport:
    """Check an image offline; with ``repair=True`` also fix it (the
    fixes land on ``device``: writing it back is the caller's call)."""
    try:
        header = _header(device)
    except CorruptFileSystem as exc:
        # The geometry lives only in the header; with it unreadable
        # there is nothing trustworthy to rebuild from.
        unreadable = FsckReport("resilience")
        unreadable.error("resilience header unreadable: %s" % exc)
        return ImageReport(unreadable, None, None)
    resilience = None
    if header is not None:
        resilience = check_region(device, header, repair)
        if not resilience.ok:
            return ImageReport(resilience, None, None)
        device = LogicalView(device, header)
    magic = _magic(device)
    check = _BY_KEY.get(magic, (None, None))[0]
    if check is not None:
        return ImageReport(resilience, check(device, repair=repair), None)
    if repair:
        for _, check, _ in _FORMATS:
            report = check(device, repair=True)
            if report.fixed:
                return ImageReport(resilience, report, None)
    return ImageReport(resilience, None, magic)


def open_image(device) -> Tuple[object, Type[BlockFileSystem]]:
    """The device a file system on this image is read through — the
    resilient device when the image carries a resilience region — and
    the format block 0's magic names."""
    if _header(device) is not None:
        device = ResilientBlockDevice.attach(device)
    magic = _magic(device)
    fmt = format_for(magic)
    if fmt is None:
        raise UnknownFormat("unrecognizable file system (magic 0x%x)" % magic)
    return device, fmt


def mount_image(device) -> BlockFileSystem:
    """Mount the file system an image holds (:func:`open_image`)."""
    device, fmt = open_image(device)
    return fmt.mount(device)
