"""Common file system interface.

Workloads, examples and benchmarks are written against
:class:`repro.vfs.interface.FileSystem`, so the conventional FFS and
C-FFS (and the intermediate single-technique configurations) are
interchangeable everywhere.
"""

from repro.vfs.stat import FileKind, StatResult
from repro.vfs.path import basename_of, split_path
from repro.vfs.interface import FileSystem
from repro.vfs.fdtable import FdTable, OpenFile

__all__ = [
    "FileKind",
    "StatResult",
    "split_path",
    "basename_of",
    "FileSystem",
    "FdTable",
    "OpenFile",
]
