"""In-memory inodes for the FFS baseline.

An :class:`Inode` is a parsed view of one 128-byte on-disk record.  The
file system writes every metadata change through to the owning inode
table buffer immediately (synchronously or as a delayed write depending
on the metadata policy), so the in-memory copy never holds state the
buffer cache does not.
"""

from __future__ import annotations

from typing import List

from repro.ffs import layout


class BaseInode:
    """The on-disk inode fields both formats share (identity and, for
    C-FFS, the write-back location are the subclasses')."""

    __slots__ = (
        "mode", "nlink", "flags", "gen", "size", "mtime",
        "direct", "indirect", "dindirect", "nblocks",
    )

    def __init__(self) -> None:
        self.init_as(layout.MODE_FREE, gen=0, mtime=0.0)
        self.nlink = 0

    @property
    def is_dir(self) -> bool:
        return self.mode == layout.MODE_DIR

    @property
    def is_file(self) -> bool:
        return self.mode == layout.MODE_FILE

    def init_as(self, mode: int, gen: int, mtime: float) -> None:
        """(Re)initialize for a fresh allocation."""
        self.mode = mode
        self.nlink = 1
        self.flags = 0
        self.gen = gen
        self.size = 0
        self.mtime = mtime
        self.direct: List[int] = [0] * layout.NDIRECT
        self.indirect = 0
        self.dindirect = 0
        self.nblocks = 0

    def _packed_fields(self) -> tuple:
        """The shared fields in both layouts' pack order."""
        return (self.mode, self.nlink, self.flags, self.gen, self.size,
                self.mtime, self.direct, self.indirect, self.dindirect,
                self.nblocks)

    def _load(self, fields: dict) -> None:
        """Adopt the shared fields of an unpacked on-disk record."""
        for name in BaseInode.__slots__:
            setattr(self, name, fields[name])


class Inode(BaseInode):
    """A parsed FFS inode plus its identity."""

    __slots__ = ("inum",)

    def __init__(self, inum: int) -> None:
        super().__init__()
        self.inum = inum

    def clear(self) -> None:
        """Reset to the free state (file deletion)."""
        self.init_as(layout.MODE_FREE, self.gen, 0.0)
        self.nlink = 0

    def pack(self) -> bytes:
        return layout.pack_inode(*self._packed_fields())

    @classmethod
    def unpack(cls, inum: int, data: bytes) -> "Inode":
        inode = cls(inum)
        inode._load(layout.unpack_inode(data))
        return inode

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = {0: "free", 1: "file", 2: "dir"}.get(self.mode, "?")
        return "Inode(%d, %s, size=%d, nlink=%d)" % (self.inum, kind, self.size, self.nlink)
