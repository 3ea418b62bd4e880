"""In-memory C-FFS inodes.

A :class:`CNode` is the parsed form of one 96-byte C-FFS inode plus a
*location*: embedded in a directory block, externalized in the inode
file, or resident in the superblock (the root).  The location is what
``_istore`` uses to write the inode back; embedded entries never move
within their sector, so locations stay valid until rename or
externalization updates them explicitly.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple

from repro.core import layout
from repro.ffs.inode import BaseInode

_pack_into = layout.CINODE.pack_into
_unpack_from = layout.CINODE.unpack_from

FLAG_LARGE = 0x1  # file outgrew explicit grouping and was migrated out

# Location tags.
LOC_SUPER = "super"
LOC_DIR = "dir"
LOC_EXT = "ext"


class CNode(BaseInode):
    """A parsed C-FFS inode with identity and write-back location."""

    __slots__ = ("fileid", "loc", "home_cg", "owner_dir")

    def __init__(self, fileid: int, mode: int, gen: int, mtime: float) -> None:
        self.init_as(mode, gen, mtime)
        self.fileid = fileid
        # loc: (LOC_SUPER,) | (LOC_DIR, parent CNode, blk, entry_off,
        #      payload_off) | (LOC_EXT, inum)
        self.loc: Tuple[Any, ...] = (LOC_SUPER,)
        self.home_cg = 0        # allocation locality hint (in-memory only)
        # The directory that most recently named this file; grouping
        # places its data in that directory's groups even when the
        # inode is externalized (in-memory hint only).
        self.owner_dir: Optional["CNode"] = None

    @property
    def is_large(self) -> bool:
        return bool(self.flags & FLAG_LARGE)

    def mark_large(self) -> None:
        self.flags |= FLAG_LARGE

    def pack_into(self, block: bytearray, off: int) -> None:
        """Write the 96-byte record at ``off`` of ``block`` (a cached
        block's ``data``): no intermediate bytes, no argument tuple."""
        d = self.direct
        _pack_into(block, off, self.fileid, self.mode, self.nlink,
                   self.flags, self.gen, self.size, self.mtime,
                   d[0], d[1], d[2], d[3], d[4], d[5],
                   d[6], d[7], d[8], d[9], d[10], d[11],
                   self.indirect, self.dindirect, self.nblocks)

    @classmethod
    def unpack(cls, image: bytes, off: int) -> "CNode":
        """The node whose record sits at ``off`` of ``image``, read in
        place; location and hints as a fresh node has them."""
        f = _unpack_from(image, off)
        node = cls.__new__(cls)
        (node.fileid, node.mode, node.nlink, node.flags, node.gen,
         node.size, node.mtime) = f[:7]
        # list() of a slice is sized exactly; a starred target
        # over-allocates, 1.3 MB of peak RSS over smallfile-cffs's nodes.
        node.direct = list(f[7:19])
        node.indirect, node.dindirect, node.nblocks = f[19:]
        node.loc = (LOC_SUPER,)
        node.home_cg = 0
        node.owner_dir = None
        return node

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = {0: "free", 1: "file", 2: "dir"}.get(self.mode, "?")
        return "CNode(fileid=%d, %s, size=%d, loc=%s)" % (
            self.fileid, kind, self.size, self.loc[0],
        )
