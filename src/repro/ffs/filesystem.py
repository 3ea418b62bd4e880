"""The conventional FFS: static inode tables and name-only directories.

Operation sequences under ``SYNC_METADATA`` follow 4.4BSD:

- create: write the initialized inode synchronously, *then* the
  directory block naming it (a name must never reference an
  uninitialized inode);
- unlink: write the directory block (name removal) synchronously,
  then the inode with its dropped link count, then — at "inactive"
  time — the cleared inode as the file's storage is reclaimed;
- bitmaps and size/mtime updates are always delayed (fsck rebuilds
  free maps; timestamps carry no ordering requirement).

C-FFS collapses the create/delete pairs to single writes; the paper's
Section 4 quantifies exactly that difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro import obs
from repro.errors import (
    CorruptFileSystem,
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    IsADirectory,
    NotADirectory,
)
from repro.ffs import directory as dirfmt
from repro.ffs import layout
from repro.ffs.alloc import GroupedAllocator
from repro.ffs.base import BlockFileSystem, OrderToken, VolumeConfig
from repro.ffs.cylgroup import table_block
from repro.ffs.inode import Inode

ROOT_INUM = 1


@dataclass
class FFSConfig(VolumeConfig):
    """Tunable parameters of the baseline."""

    inodes_per_cg: int = 1024

    @property
    def itable_blocks(self) -> int:
        return (self.inodes_per_cg + layout.INODES_PER_BLOCK - 1) // layout.INODES_PER_BLOCK

    @property
    def data_start(self) -> int:
        """cg-relative offset of the first data block."""
        return 2 + self.itable_blocks


class FFS(BlockFileSystem):
    """The baseline Fast File System."""

    name = "ffs"
    Config = FFSConfig
    MAGIC = layout.FFS_MAGIC
    SB_LABEL = "superblock"
    unpack_superblock = staticmethod(layout.unpack_superblock)
    dirfmt = dirfmt

    # ------------------------------------------------------------------ mkfs/mount

    def _superblock_fields(self, n_cgs: int) -> dict:
        config = self.config
        return {
            "inodes_per_cg": config.inodes_per_cg,
            "itable_blocks": config.itable_blocks,
            "data_start": config.data_start,
            "root_inum": ROOT_INUM,
            "next_gen": 1,
            "free_blocks": n_cgs * (config.blocks_per_cg - config.data_start),
            "free_inodes": n_cgs * config.inodes_per_cg,
        }

    def _init_volume(self, n_cgs: int) -> None:
        config = self.config
        for cgi in range(n_cgs):
            self.alloc.format_group(
                cgi, config.blocks_per_cg - config.data_start)
        # Root directory: inode 1 in group 0, no data blocks yet.
        root_inum = self.alloc.alloc_inode(0)
        if root_inum != ROOT_INUM:
            raise CorruptFileSystem("root inode landed at %d" % root_inum)
        root = Inode(root_inum)
        root.init_as(layout.MODE_DIR, gen=self._next_gen(),
                     mtime=self.device.clock.now)
        self._icache[root_inum] = root
        self._istore(root)

    @classmethod
    def _config_from_superblock(cls, sb: dict) -> FFSConfig:
        return FFSConfig(blocks_per_cg=sb["blocks_per_cg"],
                         inodes_per_cg=sb["inodes_per_cg"])

    def _check_geometry(self, sb: dict) -> None:
        config = self.config
        if sb["blocks_per_cg"] != config.blocks_per_cg or sb["inodes_per_cg"] != config.inodes_per_cg:
            raise CorruptFileSystem("superblock geometry disagrees with config")

    def _pack_superblock(self) -> bytes:
        return layout.pack_superblock(self.sb)

    def _build_allocator(self) -> None:
        self.alloc = GroupedAllocator(
            self.cache,
            n_cgs=self.sb["n_cgs"],
            blocks_per_cg=self.sb["blocks_per_cg"],
            inodes_per_cg=self.sb["inodes_per_cg"],
            data_start=self.sb["data_start"],
            cg_base_of=self.cg_base,
            counts=self.sb,
        )

    # ------------------------------------------------------------------ geometry

    def cg_of_inum(self, inum: int) -> int:
        return (inum - 1) // self.sb["inodes_per_cg"]

    def _inode_location(self, inum: int) -> Tuple[int, int]:
        """(inode table block, slot) of an inode."""
        cgi, within = divmod(inum - 1, self.sb["inodes_per_cg"])
        bno = table_block(self.cg_base(cgi), within // layout.INODES_PER_BLOCK)
        return bno, within % layout.INODES_PER_BLOCK

    # ------------------------------------------------------------------ inodes

    def _iget(self, inum: int) -> Inode:
        inode = self._icache.get(inum)
        if inode is None:
            bno, slot = self._inode_location(inum)
            # The static inode-table fetch: the per-file metadata request
            # embedded inodes eliminate (visible as fs.inode_fetch spans).
            # enabled() guards keep the disabled-observability hot path
            # free of the span call's keyword-dict allocation (here and
            # below).
            if obs.enabled():
                with obs.span("fs", "inode_fetch", inum=inum):
                    buf = self.cache.get(bno)
            else:
                buf = self.cache.get(bno)
            raw = bytes(buf.image[slot * layout.INODE_SIZE:(slot + 1) * layout.INODE_SIZE])
            inode = Inode.unpack(inum, raw)
            self._icache[inum] = inode
        return inode

    def _istore(self, handle: Inode, sync_op: bool = False,
                requires: Tuple = ()) -> OrderToken:
        bno, slot = self._inode_location(handle.inum)
        buf = self.cache.get(bno)
        buf.data[slot * layout.INODE_SIZE:(slot + 1) * layout.INODE_SIZE] = handle.pack()
        if sync_op:
            return self._meta_write(bno, requires)
        self.cache.mark_dirty(bno)
        return None

    def _file_id(self, handle: Inode) -> int:
        return handle.inum

    def _metadata_block_of(self, handle: Inode) -> int:
        return self._inode_location(handle.inum)[0]

    # ------------------------------------------------------------------ allocation hooks

    def _home_cg(self, handle: Inode) -> int:
        return self.cg_of_inum(handle.inum)

    def _alloc_meta_block(self, handle: Inode) -> int:
        return self.alloc.alloc_block(self._home_cg(handle))

    def _free_file_block(self, handle: Inode, bno: int) -> None:
        self.alloc.free_block(bno)

    # ------------------------------------------------------------------ directories

    def _dir_add_entry(self, dirh: Inode, name: str, inum: int, kind: int,
                       requires: Tuple = ()) -> OrderToken:
        index = self._complete_index(dirh)
        needed = layout.dirent_size(len(name.encode("utf-8")))
        target_blk = index.first_fit(needed)
        if target_blk is None:
            target_blk = self._grow_directory(dirh)
        bno = self._dir_block_bno(dirh, target_blk)
        buf = self.cache.get(bno, logical=(dirh.inum, target_blk))
        # reprolint: disable=J001 -- add_entry mutates only when it returns the block's new free count; the None path raises over an untouched block
        free = dirfmt.add_entry(buf.data, inum, kind, name)
        if free is None:
            raise CorruptFileSystem("free-space accounting disagrees with block")
        token = self._meta_write(bno, requires)
        index.names[name] = (inum, kind, target_blk)
        index.set_free(target_blk, free)
        dirh.mtime = self.device.clock.now
        self._istore(dirh)
        return token

    def _dir_remove_entry(self, dirh: Inode, name: str, entry: tuple,
                          requires: Tuple = ()) -> OrderToken:
        """Remove ``name``, whose index entry is ``entry``."""
        index = self._index_for(dirh)
        inum, _kind, blk = entry
        bno = self._dir_block_bno(dirh, blk)
        buf = self.cache.get(bno, logical=(dirh.inum, blk))
        removed = dirfmt.remove_entry(buf.data, name)
        # Seal before the consistency check: if the block disagrees with
        # the index, remove_entry still scrubbed *some* entry out of the
        # cached bytes, and the journal/soft-updates trackers must hear
        # about that mutation before the raise unwinds.  In a healthy
        # run removed == inum, so the order is unobservable.
        token = self._meta_write(bno, requires)
        if removed is None or removed[0] != inum:
            raise CorruptFileSystem("index and block disagree on %r" % name)
        del index.names[name]
        # A removal grows one record and shrinks none.
        index.set_free(blk, max(index.free[blk], removed[1]))
        dirh.mtime = self.device.clock.now
        self._istore(dirh)
        return token

    # ------------------------------------------------------------------ VFS internals

    def _root_handle(self) -> Inode:
        return self._iget(ROOT_INUM)

    def _lookup(self, dirh: Inode, name: str) -> Optional[Inode]:
        if obs.enabled():
            with obs.span("fs", "lookup", name=name, embedded=False):
                return self._lookup_entry(dirh, name)
        return self._lookup_entry(dirh, name)

    def _lookup_entry(self, dirh: Inode, name: str) -> Optional[Inode]:
        # A warm index answers in one probe; only a cold one is scanned.
        index = self._dir_index.get(dirh.inum)
        entry = index.names.get(name) if index is not None else None
        if entry is None and (index is None or not index.complete):
            entry = self._find_entry(dirh, name)
        return self._iget(entry[0]) if entry is not None else None

    def _create_file(self, dirh: Inode, name: str) -> Inode:
        if obs.enabled():
            with obs.span("fs", "create_node", name=name, embedded=False):
                return self._create_node(dirh, name, layout.MODE_FILE, layout.DT_FILE)
        return self._create_node(dirh, name, layout.MODE_FILE, layout.DT_FILE)

    def _make_directory(self, dirh: Inode, name: str) -> Inode:
        return self._create_node(dirh, name, layout.MODE_DIR, layout.DT_DIR)

    def _create_node(self, dirh: Inode, name: str, mode: int, kind: int) -> Inode:
        index = self._complete_index(dirh)
        if name in index.names:
            raise FileExists("%r already exists" % name)
        inum = self.alloc.alloc_inode(self.cg_of_inum(dirh.inum),
                                      spread_dirs=kind == layout.DT_DIR)
        inode = Inode(inum)
        inode.init_as(mode, gen=self._next_gen(), mtime=self.device.clock.now)
        self._icache[inum] = inode
        # Ordering: initialized inode reaches disk before the name.
        init_token = self._istore(inode, sync_op=True)
        self._dir_add_entry(dirh, name, inum, kind, requires=(init_token,))
        return inode

    def _unlink(self, dirh: Inode, name: str) -> None:
        if obs.enabled():
            with obs.span("fs", "unlink_node", name=name, embedded=False):
                self._unlink_entry(dirh, name)
            return
        self._unlink_entry(dirh, name)

    def _unlink_entry(self, dirh: Inode, name: str) -> None:
        entry = self._find_entry(dirh, name)
        if entry is None:
            raise FileNotFound("no entry %r" % name)
        if entry[1] == layout.DT_DIR:
            raise IsADirectory("%r is a directory (use rmdir)" % name)
        rm_token = self._dir_remove_entry(dirh, name, entry)  # name removal first
        inode = self._iget(entry[0])
        inode.nlink -= 1
        self._istore(inode, sync_op=True,             # dropped link count
                     requires=(rm_token,))
        if inode.nlink == 0:
            self._reclaim(inode, rm_token)

    def _reclaim(self, inode: Inode, rm_token: OrderToken) -> None:
        """ "Inactive"-time reclamation: free the storage, write the
        cleared inode (ordered after the name removal)."""
        freed = self._release_all_blocks(inode)
        inode.clear()
        clear_token = self._istore(inode, sync_op=True, requires=(rm_token,))
        # Freed blocks stay quarantined until the cleared pointers are
        # on disk.
        self._gate_freed_blocks(freed, clear_token)
        self.alloc.free_inode(inode.inum)
        self._icache.pop(inode.inum, None)

    def _rmdir(self, dirh: Inode, name: str) -> None:
        entry = self._find_entry(dirh, name)
        if entry is None:
            raise FileNotFound("no entry %r" % name)
        if entry[1] != layout.DT_DIR:
            raise NotADirectory("%r is not a directory" % name)
        victim = self._iget(entry[0])
        victim_index = self._complete_index(victim)
        if victim_index.names:
            raise DirectoryNotEmpty("%r is not empty" % name)
        rm_token = self._dir_remove_entry(dirh, name, entry)
        self._reclaim(victim, rm_token)
        self._dir_index.pop(victim.inum, None)

    def _link(self, handle: Inode, dirh: Inode, name: str) -> None:
        index = self._complete_index(dirh)
        if name in index.names:
            raise FileExists("%r already exists" % name)
        handle.nlink += 1
        link_token = self._istore(handle, sync_op=True)
        self._dir_add_entry(dirh, name, handle.inum, layout.DT_FILE,
                            requires=(link_token,))

    def _rename(self, src_dir: Inode, old: str, dst_dir: Inode, new: str) -> None:
        entry = self._find_entry(src_dir, old)
        if entry is None:
            raise FileNotFound("no entry %r" % old)
        inum, kind, _ = entry
        dst_index = self._complete_index(dst_dir)
        existing = dst_index.names.get(new)
        if existing is not None:
            if existing[0] == inum:
                return
            if kind == layout.DT_FILE and existing[1] == layout.DT_FILE:
                self._unlink(dst_dir, new)
            else:
                raise FileExists("%r already exists" % new)
        # New name first, then old-name removal: a crash leaves the file
        # reachable (possibly under both names), never lost.
        add_token = self._dir_add_entry(dst_dir, new, inum, kind)
        self._dir_remove_entry(src_dir, old, entry, requires=(add_token,))

    # ------------------------------------------------------------------ introspection

    def total_data_blocks(self) -> int:
        return self.sb["n_cgs"] * (self.sb["blocks_per_cg"] - self.sb["data_start"])

    def free_inodes(self) -> int:
        return self.sb["free_inodes"]


#: Convenience factory: a fresh FFS on a fresh simulated disk
#: (``make_ffs(config=None)``).
make_ffs = FFS.fresh
