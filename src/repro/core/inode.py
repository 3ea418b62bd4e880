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

FLAG_LARGE = 0x1  # file outgrew explicit grouping and was migrated out

# Location tags.
LOC_SUPER = "super"
LOC_DIR = "dir"
LOC_EXT = "ext"


class CNode(BaseInode):
    """A parsed C-FFS inode with identity and write-back location."""

    __slots__ = ("fileid", "loc", "home_cg", "owner_dir")

    def __init__(self, fileid: int) -> None:
        super().__init__()
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

    def pack(self) -> bytes:
        return layout.pack_cinode(self.fileid, *self._packed_fields())

    @classmethod
    def unpack(cls, data: bytes) -> "CNode":
        fields = layout.unpack_cinode(data)
        node = cls(fields["fileid"])
        node._load(fields)
        return node

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = {0: "free", 1: "file", 2: "dir"}.get(self.mode, "?")
        return "CNode(fileid=%d, %s, size=%d, loc=%s)" % (
            self.fileid, kind, self.size, self.loc[0],
        )
