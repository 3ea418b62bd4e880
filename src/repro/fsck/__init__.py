"""Offline consistency checking.

The paper's recovery discussion: "Although inodes are no longer at
statically determined locations, they can all be found (assuming no
media corruption) by following the directory hierarchy."  That walk is
the checker — one walk for every format (:mod:`repro.fsck.checker`);
:func:`fsck_ffs` and :func:`fsck_cffs` run it over the static-table
baseline and over C-FFS, and :func:`checker_for` picks between them by
format label or superblock magic (:func:`format_for` gives the file
system class to make or mount under the same key).

"Assuming no media corruption" is where :func:`fsck_resilience` comes
in: on images formatted through the self-healing device layer it
validates the checksum sidecar and bad-block remap table first, and
:func:`open_logical` then presents the remap-resolved usable window so
the walk runs unchanged.
"""

from repro.fsck.checker import (CHECKERS, FORMAT_LABELS, FsckReport,
                                checker_for, format_for, fsck_cffs, fsck_ffs)
from repro.fsck.resilience import fsck_resilience, is_resilient, open_logical
from repro.fsck.timing import timed_fsck

__all__ = [
    "CHECKERS",
    "FORMAT_LABELS",
    "FsckReport",
    "checker_for",
    "format_for",
    "fsck_cffs",
    "fsck_ffs",
    "fsck_resilience",
    "is_resilient",
    "open_logical",
    "timed_fsck",
]
