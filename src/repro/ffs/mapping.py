"""File-offset -> disk-block mapping through direct and indirect pointers.

Shared by the FFS baseline and C-FFS (embedded and external inodes use
the same twelve-direct + single + double indirect pointer shape).
Indirect blocks are ordinary cached blocks holding 1024 little-endian
pointers; a zero pointer is a hole.

All functions take the owning inode as any object with ``direct``
(list of 12 ints), ``indirect`` and ``dindirect`` (ints) attributes,
mutating them in place; callers persist the inode afterwards.
"""

from __future__ import annotations

import struct
from typing import Callable, Iterator, Tuple

from repro.cache.buffercache import BufferCache
from repro.errors import InvalidArgument
from repro.ffs.layout import NDIRECT, PTRS_PER_INDIRECT

_PTR_FMT = "<%dI" % PTRS_PER_INDIRECT
_PTR_STRUCT = struct.Struct(_PTR_FMT)

MAX_FILE_BLOCKS = NDIRECT + PTRS_PER_INDIRECT + PTRS_PER_INDIRECT * PTRS_PER_INDIRECT

AllocFn = Callable[[], int]   # returns a freshly allocated block number
FreeFn = Callable[[int], None]


def _read_ptrs(cache: BufferCache, bno: int) -> Tuple[int, ...]:
    # Decoded in place from the cached image (no 4 KB copy).
    return _PTR_STRUCT.unpack_from(cache.get(bno).image, 0)


def _write_ptr(cache: BufferCache, bno: int, index: int, value: int) -> None:
    buf = cache.get(bno)
    struct.pack_into("<I", buf.data, index * 4, value)
    cache.mark_dirty(bno)


def bmap_lookup(cache: BufferCache, inode, idx: int) -> int:
    """Disk block holding file block ``idx``; 0 for a hole."""
    if idx < 0:
        raise InvalidArgument("negative file block index")
    if idx < NDIRECT:
        return inode.direct[idx]
    idx -= NDIRECT
    if idx < PTRS_PER_INDIRECT:
        if inode.indirect == 0:
            return 0
        return _read_ptrs(cache, inode.indirect)[idx]
    idx -= PTRS_PER_INDIRECT
    if idx < PTRS_PER_INDIRECT * PTRS_PER_INDIRECT:
        if inode.dindirect == 0:
            return 0
        outer, inner = divmod(idx, PTRS_PER_INDIRECT)
        l1 = _read_ptrs(cache, inode.dindirect)[outer]
        if l1 == 0:
            return 0
        return _read_ptrs(cache, l1)[inner]
    raise InvalidArgument("file block %d exceeds maximum file size" % idx)


def bmap_ensure(
    cache: BufferCache,
    inode,
    idx: int,
    alloc_data: AllocFn,
    alloc_meta: AllocFn,
) -> Tuple[int, bool]:
    """Like :func:`bmap_lookup` but allocates missing blocks.

    Returns ``(block_number, created)``.  ``alloc_meta`` places
    indirect blocks (file systems may position them differently from
    data).
    """
    if idx < 0:
        raise InvalidArgument("negative file block index")
    if idx < NDIRECT:
        if inode.direct[idx] == 0:
            inode.direct[idx] = alloc_data()
            return inode.direct[idx], True
        return inode.direct[idx], False

    rel = idx - NDIRECT
    if rel < PTRS_PER_INDIRECT:
        if inode.indirect == 0:
            inode.indirect = alloc_meta()
            cache.create(inode.indirect)
            cache.mark_dirty(inode.indirect)
        ptr = _read_ptrs(cache, inode.indirect)[rel]
        if ptr == 0:
            ptr = alloc_data()
            _write_ptr(cache, inode.indirect, rel, ptr)
            return ptr, True
        return ptr, False

    rel -= PTRS_PER_INDIRECT
    if rel >= PTRS_PER_INDIRECT * PTRS_PER_INDIRECT:
        raise InvalidArgument("file block %d exceeds maximum file size" % idx)
    outer, inner = divmod(rel, PTRS_PER_INDIRECT)
    if inode.dindirect == 0:
        inode.dindirect = alloc_meta()
        cache.create(inode.dindirect)
        cache.mark_dirty(inode.dindirect)
    l1 = _read_ptrs(cache, inode.dindirect)[outer]
    if l1 == 0:
        l1 = alloc_meta()
        cache.create(l1)
        cache.mark_dirty(l1)
        _write_ptr(cache, inode.dindirect, outer, l1)
    ptr = _read_ptrs(cache, l1)[inner]
    if ptr == 0:
        ptr = alloc_data()
        _write_ptr(cache, l1, inner, ptr)
        return ptr, True
    return ptr, False


def enumerate_blocks(cache: BufferCache, inode) -> Iterator[Tuple[int, int]]:
    """Yield (file block index, disk block) for every allocated block."""
    for i in range(NDIRECT):
        if inode.direct[i]:
            yield i, inode.direct[i]
    if inode.indirect:
        ptrs = _read_ptrs(cache, inode.indirect)
        for i, ptr in enumerate(ptrs):
            if ptr:
                yield NDIRECT + i, ptr
    if inode.dindirect:
        for outer, l1 in enumerate(_read_ptrs(cache, inode.dindirect)):
            if not l1:
                continue
            base = NDIRECT + PTRS_PER_INDIRECT + outer * PTRS_PER_INDIRECT
            for inner, ptr in enumerate(_read_ptrs(cache, l1)):
                if ptr:
                    yield base + inner, ptr


def truncate_blocks(
    cache: BufferCache,
    inode,
    keep_blocks: int,
    free_fn: FreeFn,
) -> int:
    """Free every data block at index >= ``keep_blocks`` plus any
    indirect blocks that become empty; returns count of data blocks freed.

    Freed blocks are also dropped from the cache — their dirty contents
    must not reach the disk.
    """
    freed = 0

    def release(bno: int) -> None:
        cache.forget(bno)
        free_fn(bno)

    for i in range(keep_blocks, NDIRECT):
        if inode.direct[i]:
            release(inode.direct[i])
            inode.direct[i] = 0
            freed += 1

    if inode.indirect:
        ptrs = list(_read_ptrs(cache, inode.indirect))
        start = max(0, keep_blocks - NDIRECT)
        for i in range(start, PTRS_PER_INDIRECT):
            if ptrs[i]:
                release(ptrs[i])
                _write_ptr(cache, inode.indirect, i, 0)
                ptrs[i] = 0
                freed += 1
        if keep_blocks <= NDIRECT and not any(ptrs):
            release(inode.indirect)
            inode.indirect = 0

    if inode.dindirect:
        outers = list(_read_ptrs(cache, inode.dindirect))
        base = NDIRECT + PTRS_PER_INDIRECT
        for outer, l1 in enumerate(outers):
            if not l1:
                continue
            inners = list(_read_ptrs(cache, l1))
            o_base = base + outer * PTRS_PER_INDIRECT
            for inner in range(PTRS_PER_INDIRECT):
                if inners[inner] and o_base + inner >= keep_blocks:
                    release(inners[inner])
                    _write_ptr(cache, l1, inner, 0)
                    inners[inner] = 0
                    freed += 1
            if not any(inners) and o_base >= keep_blocks:
                release(l1)
                _write_ptr(cache, inode.dindirect, outer, 0)
                outers[outer] = 0
        if keep_blocks <= base and not any(outers):
            release(inode.dindirect)
            inode.dindirect = 0

    return freed
