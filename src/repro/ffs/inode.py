"""In-memory inodes for the FFS baseline.

An :class:`Inode` is a parsed view of one 128-byte on-disk record
(``layout.INODE``), packed into and unpacked from its inode-table block
where it sits.  The file system writes every metadata change through to
the owning inode table buffer immediately (synchronously or as a delayed
write depending on the metadata policy), so the in-memory copy never
holds state the buffer cache does not.
"""

from __future__ import annotations

from typing import List

from repro.ffs import layout

_pack_into = layout.INODE.pack_into
_unpack_from = layout.INODE.unpack_from


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

    def pack_into(self, block: bytearray, off: int) -> None:
        """Write the 128-byte record at ``off`` of ``block`` (a cached
        block's ``data``): no intermediate bytes, no argument tuple."""
        d = self.direct
        _pack_into(block, off, self.mode, self.nlink, self.flags, self.gen,
                   self.size, self.mtime,
                   d[0], d[1], d[2], d[3], d[4], d[5],
                   d[6], d[7], d[8], d[9], d[10], d[11],
                   self.indirect, self.dindirect, self.nblocks)

    @classmethod
    def unpack(cls, inum: int, image: bytes, off: int) -> "Inode":
        """Inode ``inum``, whose record sits at ``off`` of ``image``,
        read in place."""
        f = _unpack_from(image, off)
        inode = cls.__new__(cls)
        (inode.mode, inode.nlink, inode.flags, inode.gen, inode.size,
         inode.mtime) = f[:6]
        inode.direct = list(f[6:18])
        inode.indirect, inode.dindirect, inode.nblocks = f[18:]
        inode.inum = inum
        return inode

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = {0: "free", 1: "file", 2: "dir"}.get(self.mode, "?")
        return "Inode(%d, %s, size=%d, nlink=%d)" % (self.inum, kind, self.size, self.nlink)
