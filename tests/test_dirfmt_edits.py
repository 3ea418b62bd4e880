"""Edit oracle for the two directory-block codecs.

The reference functions below are verbatim copies of the edit paths as
they stood at commit fcfdfdb (the parent of the header-walk rewrite):
one rescan of the whole block / sector after every edit, every name
decoded.  The real codec and the reference are driven side by side
over the same seeded insert/remove sequences, and after every step the
block bytes must be equal and the outcome of the edit must agree.

Keep the references as they are: they are what "same bytes, same free
count" means for ``repro.ffs.directory`` and ``repro.core.directory``.
"""

import random
import struct

import pytest

from repro.blockdev.device import BLOCK_SIZE
from repro.core import directory as cdir
from repro.core import layout as clayout
from repro.core.inode import CNode
from repro.errors import CorruptFileSystem
from repro.ffs import directory as fdir
from repro.ffs import layout as flayout

# --------------------------------------------------------------------------
# Reference: repro.ffs.directory at fcfdfdb, verbatim.
# --------------------------------------------------------------------------

_F_HEADER = struct.Struct(flayout.DIRENT_HEADER_FMT)
_F_HSIZE = flayout.DIRENT_HEADER_SIZE


def ref_f_iter_entries(block):
    offset = 0
    while offset < BLOCK_SIZE:
        inum, reclen, namelen, kind = _F_HEADER.unpack_from(block, offset)
        if reclen < _F_HSIZE or offset + reclen > BLOCK_SIZE:
            raise CorruptFileSystem(
                "bad dirent reclen %d at offset %d" % (reclen, offset)
            )
        name = ""
        if inum != 0 and namelen:
            raw = bytes(block[offset + _F_HSIZE:offset + _F_HSIZE + namelen])
            name = raw.decode("utf-8", errors="replace")
        yield offset, inum, kind, name, reclen
        offset += reclen
    if offset != BLOCK_SIZE:
        raise CorruptFileSystem("dirent chain does not tile the block")


def ref_f_free_bytes(block):
    best = 0
    for _, inum, _, entry_name, reclen in ref_f_iter_entries(block):
        if inum == 0:
            avail = reclen
        else:
            avail = reclen - flayout.dirent_size(len(entry_name.encode("utf-8")))
        best = max(best, avail)
    return best


def ref_f_add_entry(block, inum, kind, name):
    encoded = name.encode("utf-8")
    needed = flayout.dirent_size(len(encoded))
    offset = 0
    while offset < BLOCK_SIZE:
        cur_inum, reclen, namelen, cur_kind = _F_HEADER.unpack_from(
            block, offset
        )
        if cur_inum == 0 and reclen >= needed:
            _ref_f_write_entry(block, offset, inum, needed, kind, encoded)
            remainder = reclen - needed
            if remainder >= _F_HSIZE:
                _F_HEADER.pack_into(
                    block, offset + needed, 0, remainder, 0, 0
                )
            else:
                _F_HEADER.pack_into(
                    block, offset, inum, needed + remainder,
                    len(encoded), kind,
                )
            return True
        if cur_inum != 0:
            used = flayout.dirent_size(namelen)
            slack = reclen - used
            if slack >= needed:
                _F_HEADER.pack_into(
                    block, offset, cur_inum, used, namelen, cur_kind
                )
                _ref_f_write_entry(block, offset + used, inum, slack, kind, encoded)
                return True
        offset += reclen
    return False


def ref_f_remove_entry(block, name):
    prev_offset = None
    offset = 0
    while offset < BLOCK_SIZE:
        inum, reclen, namelen, kind = _F_HEADER.unpack_from(block, offset)
        if inum != 0:
            raw = bytes(block[offset + _F_HSIZE:offset + _F_HSIZE + namelen])
            if raw.decode("utf-8", errors="replace") == name:
                if prev_offset is None:
                    _F_HEADER.pack_into(block, offset, 0, reclen, 0, 0)
                else:
                    p_inum, p_reclen, p_namelen, p_kind = _F_HEADER.unpack_from(
                        block, prev_offset
                    )
                    _F_HEADER.pack_into(
                        block, prev_offset,
                        p_inum, p_reclen + reclen, p_namelen, p_kind,
                    )
                return inum
        prev_offset = offset
        offset += reclen
    return None


def _ref_f_write_entry(block, offset, inum, reclen, kind, encoded):
    _F_HEADER.pack_into(block, offset, inum, reclen, len(encoded), kind)
    block[offset + _F_HSIZE:offset + _F_HSIZE + len(encoded)] = encoded


# --------------------------------------------------------------------------
# Reference: repro.core.directory at fcfdfdb, verbatim.
# --------------------------------------------------------------------------

_C_HEADER = struct.Struct(clayout.DENT_HEADER_FMT)
_C_HSIZE = clayout.DENT_HEADER_SIZE
SECTOR = clayout.SECTOR_SIZE
SECTORS = clayout.SECTORS_PER_DIR_BLOCK


def ref_c_sector_free_bytes(block, sector):
    offset = sector * SECTOR
    end = offset + SECTOR
    best = 0
    while offset < end:
        reclen, namelen, etype, _kind = _C_HEADER.unpack_from(block, offset)
        if reclen < _C_HSIZE or offset + reclen > end:
            raise CorruptFileSystem(
                "bad embedded dirent reclen %d at offset %d" % (reclen, offset)
            )
        avail = reclen if etype == clayout.ET_FREE else reclen - clayout.dent_size(namelen, etype)
        if avail > best:
            best = avail
        offset += reclen
    if offset != end:
        raise CorruptFileSystem("embedded dirent chain does not tile the sector")
    return best


def ref_c_add_entry(block, sector, name, etype, kind, payload):
    encoded = name.encode("utf-8")
    needed = clayout.dent_size(len(encoded), etype)
    base = sector * SECTOR
    offset = base
    end = base + SECTOR
    while offset < end:
        reclen, namelen, cur_etype, cur_kind = _C_HEADER.unpack_from(
            block, offset
        )
        if cur_etype == clayout.ET_FREE and reclen >= needed:
            remainder = reclen - needed
            if remainder >= _C_HSIZE:
                _ref_c_write_entry(block, offset, needed, etype, kind, encoded, payload)
                _C_HEADER.pack_into(
                    block, offset + needed, remainder, 0, clayout.ET_FREE, 0
                )
            else:
                _ref_c_write_entry(block, offset, reclen, etype, kind, encoded, payload)
            return offset + _C_HSIZE + clayout._pad(len(encoded))
        if cur_etype != clayout.ET_FREE:
            used = clayout.dent_size(namelen, cur_etype)
            slack = reclen - used
            if slack >= needed:
                _C_HEADER.pack_into(
                    block, offset, used, namelen, cur_etype, cur_kind
                )
                new_off = offset + used
                _ref_c_write_entry(block, new_off, slack, etype, kind, encoded, payload)
                return new_off + _C_HSIZE + clayout._pad(len(encoded))
        offset += reclen
    return None


def _ref_c_write_entry(block, offset, reclen, etype, kind, encoded, payload):
    _C_HEADER.pack_into(block, offset, reclen, len(encoded), etype, kind)
    name_off = offset + _C_HSIZE
    block[name_off:name_off + clayout._pad(len(encoded))] = encoded + bytes(
        clayout._pad(len(encoded)) - len(encoded)
    )
    payload_off = name_off + clayout._pad(len(encoded))
    block[payload_off:payload_off + len(payload)] = payload


def ref_c_remove_entry(block, name):
    for sector in range(SECTORS):
        base = sector * SECTOR
        end = base + SECTOR
        prev_offset = None
        offset = base
        while offset < end:
            reclen, namelen, etype, kind = _C_HEADER.unpack_from(block, offset)
            if etype != clayout.ET_FREE:
                raw = bytes(block[offset + _C_HSIZE:offset + _C_HSIZE + namelen])
                if raw.decode("utf-8", errors="replace") == name:
                    if prev_offset is None:
                        _C_HEADER.pack_into(block, offset, reclen, 0, clayout.ET_FREE, 0)
                        block[offset + _C_HSIZE:offset + reclen] = bytes(
                            reclen - _C_HSIZE
                        )
                    else:
                        p_reclen, p_namelen, p_etype, p_kind = _C_HEADER.unpack_from(
                            block, prev_offset
                        )
                        _C_HEADER.pack_into(
                            block, prev_offset,
                            p_reclen + reclen, p_namelen, p_etype, p_kind,
                        )
                        block[offset:offset + reclen] = bytes(reclen)
                    return sector, etype
            prev_offset = offset
            offset += reclen
    return None


# --------------------------------------------------------------------------
# Side-by-side drivers: every edit goes to both blocks and is checked.
# --------------------------------------------------------------------------


class FfsPair:
    """One FFS directory block edited by the codec and by the reference."""

    def __init__(self):
        self.real = fdir.init_block()
        self.ref = fdir.init_block()
        self.live = {}          # name -> inum

    def add(self, name, inum):
        before = bytes(self.ref)
        want = ref_f_add_entry(self.ref, inum, flayout.DT_FILE, name)
        got = fdir.add_entry(self.real, inum, flayout.DT_FILE, name)
        assert self.real == self.ref
        assert bool(got) == want
        if want:
            self.live[name] = inum
        else:
            assert bytes(self.real) == before, "a refused insert wrote"
        return want

    def remove(self, name):
        want = ref_f_remove_entry(self.ref, name)
        got = fdir.remove_entry(self.real, name)
        assert self.real == self.ref
        assert got == want == self.live.pop(name, None)
        return want


def embedded_payload(fileid):
    node = CNode(fileid)
    node.init_as(clayout.MODE_FILE, gen=1, mtime=0.5)
    return node.pack()


class CffsPair:
    """One C-FFS directory block (eight sectors), same arrangement."""

    def __init__(self):
        self.real = cdir.init_block()
        self.ref = cdir.init_block()
        self.live = {}          # name -> sector

    def add(self, name, sector, etype, ident):
        payload = (embedded_payload(ident) if etype == cdir.ET_EMBEDDED
                   else struct.pack("<Q", ident))
        before = bytes(self.ref)
        want = ref_c_add_entry(self.ref, sector, name, etype, cdir.DK_FILE, payload)
        got = cdir.add_entry(self.real, sector, name, etype, cdir.DK_FILE, payload)
        assert self.real == self.ref
        assert got == want
        if want is not None:
            self.live[name] = sector
        else:
            assert bytes(self.real) == before, "a refused insert wrote"
        return want is not None

    def remove(self, name):
        want = ref_c_remove_entry(self.ref, name)
        got = cdir.remove_entry(self.real, name)
        assert self.real == self.ref
        assert got == want
        assert (want is None) == (self.live.pop(name, None) is None)
        return want


_ALPHABETS = ("abcdefghijklmnopqrstuvwxyz0123456789._-", "éßñøλж", "名前文件", "🙂🗂")


def random_name(rng, taken):
    """A fresh name of 1..200 encoded bytes; one in three mixes in
    two-, three- or four-byte UTF-8 sequences."""
    while True:
        target = rng.choice((rng.randint(1, 12), rng.randint(1, 40), rng.randint(1, 200)))
        alphabet = _ALPHABETS[0]
        if rng.random() < 0.33:
            alphabet += rng.choice(_ALPHABETS[1:])
        name = ""
        while True:
            ch = rng.choice(alphabet)
            if len((name + ch).encode("utf-8")) > target:
                break
            name += ch
        if name and name not in taken:
            return name


def _drive(rng, steps, add, remove, live):
    """Alternate growing and shrinking phases so the block is filled to
    refusal, drained, and its freed space refilled, several times."""
    growing = True
    for step in range(steps):
        if step % 50 == 49:
            growing = not growing
        if live and rng.random() < (0.2 if growing else 0.8):
            remove(rng.choice(sorted(live)))
        else:
            add(random_name(rng, live))
    for name in sorted(live):
        remove(name)


@pytest.mark.parametrize("seed", range(12))
def test_ffs_random_edits_match_reference(seed):
    rng = random.Random(seed)
    pair = FfsPair()
    inums = iter(range(1, 1 << 20))
    _drive(rng, 500, lambda name: pair.add(name, next(inums)), pair.remove,
           pair.live)
    assert fdir.live_entries(bytes(pair.real)) == []


@pytest.mark.parametrize("seed", range(12))
def test_cffs_random_edits_match_reference(seed):
    rng = random.Random(1000 + seed)
    pair = CffsPair()
    idents = iter(range(1, 1 << 20))

    def add(name):
        etype = cdir.ET_EMBEDDED if rng.random() < 0.7 else cdir.ET_EXTERNAL
        pair.add(name, rng.randrange(SECTORS), etype, next(idents))

    _drive(rng, 500, add, pair.remove, pair.live)
    assert cdir.live_entries(bytes(pair.real)) == []


# -- the named cases, one by one ---------------------------------------------


def test_ffs_remainder_under_a_header_is_absorbed():
    pair = FfsPair()
    # 19 records of 208 bytes and one of 124 leave a 20-byte free tail:
    # an 8-byte name needs 16, and 4 bytes cannot hold a header.
    for i in range(19):
        pair.add(("%02d" % i).ljust(200, "a"), i + 1)
    pair.add("b" * 116, 20)
    assert ref_f_free_bytes(pair.ref) == 20
    pair.add("absorbed", 21)
    offset, _inum, _kind, name, reclen = list(ref_f_iter_entries(pair.ref))[-1]
    assert (name, reclen) == ("absorbed", 20)
    assert offset + reclen == BLOCK_SIZE


def test_ffs_head_removal_then_merge_into_the_free_head():
    pair = FfsPair()
    for i, name in enumerate(("head", "second", "third")):
        pair.add(name, i + 1)
    pair.remove("head")            # head of the chain: becomes a free record
    pair.remove("second")          # merges into a predecessor that is free
    pair.remove("third")
    # One free record where the three were (the free tail behind them
    # is a separate record: merging only ever goes backwards).
    merged = sum(flayout.dirent_size(len(n)) for n in ("head", "second", "third"))
    assert _F_HEADER.unpack_from(pair.real, 0) == (0, merged, 0, 0)


def test_ffs_fill_until_refusal_then_refill_freed_space():
    pair = FfsPair()
    n = 0
    while pair.add("n%06d" % n, n + 1):
        n += 1
    assert n == BLOCK_SIZE // flayout.dirent_size(7)
    assert not pair.add("one-more", 9999)
    pair.remove("n000003")
    pair.remove("n000004")         # merges into a live predecessor's slack
    assert pair.add("refill", 9999)
    assert not pair.add("x" * 40, 10000)


def test_cffs_head_removal_merge_and_refill_per_sector():
    pair = CffsPair()
    for sector in (0, 5):
        n = 0
        while pair.add("s%d-%03d" % (sector, n), sector, cdir.ET_EMBEDDED, n + 1):
            n += 1
        assert n == SECTOR // clayout.dent_size(6, cdir.ET_EMBEDDED)
        pair.remove("s%d-000" % sector)     # head of the sector's chain
        pair.remove("s%d-001" % sector)     # merges into the free head
        pair.remove("s%d-003" % sector)     # merges into a live predecessor
        assert pair.add("again-%d" % sector, sector, cdir.ET_EXTERNAL, 77)
        assert pair.add("and-again-%d" % sector, sector, cdir.ET_EMBEDDED, 78)
    assert pair.remove("absent") is None
