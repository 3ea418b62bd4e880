"""A cached disk block."""

from __future__ import annotations

from typing import Optional, Tuple

from repro.blockdev.device import block_image

# Logical identity: (file id, block index within the file).  Blocks
# installed by a group read before any logical access carry None — the
# "invalid file/offset identity" of the paper.
LogicalId = Tuple[int, int]


class Buffer:
    """One cached block: physical address, optional logical identity,
    contents, and a dirty flag.

    ``image`` is the contents for reading, never a copy: an immutable
    ``bytes`` whenever another layer may hold the same object (the
    device's store, a fault recorder, a journal image) and a private
    ``bytearray`` only between the first edit and the next write-out.
    ``data`` is the one way to edit; :meth:`freeze` ends the edit.
    """

    __slots__ = ("bno", "image", "dirty", "logical")

    def __init__(self, bno: int, image: bytes, logical: Optional[LogicalId] = None) -> None:
        self.bno = bno
        self.replace(image)
        self.dirty = False
        self.logical = logical

    def replace(self, image: bytes) -> None:
        """New contents wholesale; ``bytes`` is shared, not copied."""
        self.image = block_image(image)

    @property
    def data(self) -> bytearray:
        """The contents for editing in place, copied on the first edit
        of a shared image.  A write-out replaces this object: finish the
        edit and mark the block dirty before any cache call that can
        insert, evict or flush, and take ``data`` again afterwards."""
        image = self.image
        if type(image) is bytes:
            image = self.image = bytearray(image)
        return image

    def freeze(self) -> bytes:
        """The contents as the one immutable object every holder of this
        version shares from here on (one copy if the block was edited)."""
        image = self.image
        if type(image) is not bytes:
            image = self.image = bytes(image)
        return image

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Buffer(bno=%d, dirty=%s, logical=%r)" % (self.bno, self.dirty, self.logical)
