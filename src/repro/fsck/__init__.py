"""Offline consistency checking.

The paper's recovery discussion: "Although inodes are no longer at
statically determined locations, they can all be found (assuming no
media corruption) by following the directory hierarchy."  That walk is
the checker — one walk for every format (:mod:`repro.fsck.checker`);
:func:`fsck_ffs` and :func:`fsck_cffs` run it over the static-table
baseline and over C-FFS.

"Assuming no media corruption" is where the resilience region comes
in: on images formatted through the self-healing device layer the
checksum sidecar and bad-block remap table are validated first
(:mod:`repro.fsck.resilience`), and the walk then runs unchanged over
the remap-resolved usable window.

Every offline caller — the CLI, the crash-point sweep, the chaos soak —
takes one path through all of this (:mod:`repro.fsck.image`):
:func:`check_image` checks, and with ``repair=True`` repairs, whatever
an image holds, and :func:`mount_image` mounts it; both find the
resilience region and the format (block 0's magic) the same way, and
:func:`open_image` is that finding on its own.
:func:`format_for` gives the file system class to make under a format
label.
"""

from repro.fsck.checker import FsckReport, fsck_cffs, fsck_ffs
from repro.fsck.image import (FORMAT_LABELS, ImageReport, check_image,
                              format_for, mount_image, open_image)
from repro.fsck.timing import timed_fsck

__all__ = [
    "FORMAT_LABELS",
    "FsckReport",
    "ImageReport",
    "check_image",
    "format_for",
    "fsck_cffs",
    "fsck_ffs",
    "mount_image",
    "open_image",
    "timed_fsck",
]
