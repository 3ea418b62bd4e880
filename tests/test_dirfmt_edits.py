"""Edit oracle for the two directory-block codecs.

The reference functions below are verbatim copies of the edit paths as
they stood at commit fcfdfdb (the parent of the header-walk rewrite):
one rescan of the whole block / sector after every edit, every name
decoded.  The real codec and the reference are driven side by side
over the same seeded insert/remove sequences, and after every step the
block bytes must be equal and the free count the edit returned must be
what the reference rescan of that block / sector says.

Keep the references as they are: they are what "same bytes, same free
count" means for ``repro.ffs.directory`` and ``repro.core.directory``.

Mutants of the real codec this file kills (each tried by hand):

- ``remove_entry`` subtracting the predecessor's entry size when the
  predecessor is itself free (``freed`` 8 short): the head/merge cases
  and every random seed;
- the caller's ``max(free, freed)`` replaced by ``freed`` (``Pair.remove``
  does what ``_dir_remove_entry`` / ``_dir_remove`` do): every random
  seed, and fill-until-refusal;
- ``add_entry`` counting a remainder it absorbed as 0 instead of the 4
  bytes the rescan sees, or counting the target's room before the
  split: the absorb case, fill-until-refusal and every random seed;
- ``add_entry`` taking the best fit instead of the first, or writing
  before it knows the insert fits: bytes differ from the reference.
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


def f_free(block):
    """The block's largest insertion, as the index scan reads it."""
    [(_slot, free)] = fdir.scan_block(block, 0)[1]
    return free


def c_free(block, sector):
    """One sector's largest insertion, as the index scan reads it."""
    slot, free = cdir.scan_block(block, 0)[1][sector]
    assert slot == (0, sector)
    return free


def _room_at(records, offset):
    """Room of the record covering ``offset``; ``records`` are (offset,
    reclen, room) triples from a reference walk."""
    [room] = [room for start, reclen, room in records
              if start <= offset < start + reclen]
    return room


class FfsPair:
    """One FFS directory block edited by the codec and by the reference.
    ``free`` and the room list ``rooms`` are kept the way
    ``FFS._dir_add_entry`` / ``_dir_remove_entry`` keep ``DirIndex.free``
    and ``DirIndex.rooms``: from what the edits return, never a rescan
    (the list is built by the first insert's walk).  After every step
    the list must be what a fresh walk of the block gives."""

    def __init__(self):
        self.real = fdir.init_block()
        self.ref = fdir.init_block()
        self.live = {}          # name -> inum
        self.free = f_free(self.real)
        self.rooms = None

    def _check_rooms(self):
        if self.rooms is not None:
            assert self.rooms == fdir.room_list(bytes(self.real))

    def _records(self):
        return [(offset, reclen, reclen if inum == 0 else
                 reclen - flayout.dirent_size(len(name.encode("utf-8"))))
                for offset, inum, _kind, name, reclen in ref_f_iter_entries(self.ref)]

    def _offset_of(self, name):
        return next((offset for offset, inum, _k, entry_name, _r
                     in ref_f_iter_entries(self.ref)
                     if inum != 0 and entry_name == name), None)

    def add(self, name, inum):
        before = bytes(self.ref)
        want = ref_f_add_entry(self.ref, inum, flayout.DT_FILE, name)
        if self.rooms is None:
            self.rooms = fdir.room_list(self.real)
        got = fdir.add_entry(self.real, self.rooms, inum, flayout.DT_FILE, name)
        assert self.real == self.ref
        if want:
            self.live[name] = inum
            self.free = got
            assert got == ref_f_free_bytes(self.ref)
        else:
            assert got is None
            assert bytes(self.real) == before, "a refused insert wrote"
        assert f_free(self.real) == self.free
        self._check_rooms()
        return want

    def remove(self, name):
        offset = self._offset_of(name)
        want = ref_f_remove_entry(self.ref, name)
        got = fdir.remove_entry(self.real, name)
        assert self.real == self.ref
        assert want == self.live.pop(name, None)
        if want is None:
            assert got is None
        else:
            inum, start, reclen, freed = got
            assert inum == want
            assert freed == _room_at(self._records(), offset)
            assert (start, reclen, freed) in self._records()
            if self.rooms is not None:
                fdir.merge_room(self.rooms, start, reclen, freed)
            self.free = max(self.free, freed)
        assert self.free == ref_f_free_bytes(self.ref) == f_free(self.real)
        self._check_rooms()
        return want


def embedded_payload(fileid):
    record = bytearray(clayout.CINODE_SIZE)
    CNode(fileid, clayout.MODE_FILE, 1, 0.5).pack_into(record, 0)
    return bytes(record)


class CffsPair:
    """One C-FFS directory block (eight sectors), same arrangement:
    ``free[sector]`` is kept as ``CFFS._dir_insert`` / ``_dir_remove``
    keep the index."""

    def __init__(self):
        self.real = cdir.init_block()
        self.ref = cdir.init_block()
        self.live = {}          # name -> sector
        self.free = [c_free(self.real, s) for s in range(SECTORS)]

    def _records(self, sector):
        records = []
        offset = sector * SECTOR
        while offset < (sector + 1) * SECTOR:
            reclen, namelen, etype, _kind = _C_HEADER.unpack_from(self.ref, offset)
            records.append((offset, reclen, reclen if etype == clayout.ET_FREE
                            else reclen - clayout.dent_size(namelen, etype)))
            offset += reclen
        return records

    def _offset_of(self, name):
        for sector in range(SECTORS):
            for offset, _reclen, _room in self._records(sector):
                _r, namelen, etype, _k = _C_HEADER.unpack_from(self.ref, offset)
                raw = bytes(self.ref[offset + _C_HSIZE:offset + _C_HSIZE + namelen])
                if etype != clayout.ET_FREE and raw.decode("utf-8", "replace") == name:
                    return offset
        return None

    def _check_free(self):
        for s in range(SECTORS):
            assert (self.free[s] == ref_c_sector_free_bytes(self.ref, s)
                    == c_free(self.real, s)), "sector %d" % s

    def add(self, name, sector, etype, ident):
        payload = (embedded_payload(ident) if etype == cdir.ET_EMBEDDED
                   else struct.pack("<Q", ident))
        before = bytes(self.ref)
        want = ref_c_add_entry(self.ref, sector, name, etype, cdir.DK_FILE, payload)
        got = cdir.add_entry(self.real, sector, name, etype, cdir.DK_FILE, payload)
        assert self.real == self.ref
        if want is not None:
            payload_off, self.free[sector] = got
            assert payload_off == want
            self.live[name] = sector
        else:
            assert got is None
            assert bytes(self.real) == before, "a refused insert wrote"
        self._check_free()
        return want is not None

    def remove(self, name):
        offset = self._offset_of(name)
        want = ref_c_remove_entry(self.ref, name)
        got = cdir.remove_entry(self.real, name)
        assert self.real == self.ref
        assert (want is None) == (self.live.pop(name, None) is None)
        if want is None:
            assert got is None
        else:
            sector, freed = got
            assert sector == want[0]
            assert freed == _room_at(self._records(sector), offset)
            self.free[sector] = max(self.free[sector], freed)
        self._check_free()
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


# -- hostile chains end in the taxonomy ---------------------------------------
#
# At fcfdfdb add_entry and remove_entry of both codecs stepped
# ``offset += reclen`` unchecked: a zero reclen spun forever and a chain
# ending within a header's length of the end raised struct.error; only
# the scan that had loaded the block (or fsck's parse) stood in front.
# All six functions now share their codec's one validated walk.


def _ffs_block_with(hostile_reclen):
    """Three live entries, then the second record's reclen overwritten
    with ``hostile_reclen(its offset)``."""
    block = fdir.init_block()
    rooms = fdir.room_list(block)
    for i, name in enumerate(("first", "second", "third")):
        fdir.add_entry(block, rooms, i + 1, flayout.DT_FILE, name)
    second = flayout.dirent_size(5)
    inum, _reclen, namelen, kind = _F_HEADER.unpack_from(block, second)
    _F_HEADER.pack_into(block, second, inum, hostile_reclen(second), namelen, kind)
    return block


def _cffs_block_with(hostile_reclen):
    block = cdir.init_block()
    for i, name in enumerate(("first", "second", "third")):
        cdir.add_entry(block, 0, name, cdir.ET_EXTERNAL, cdir.DK_FILE,
                       struct.pack("<Q", i + 1))
    second = clayout.dent_size(5, cdir.ET_EXTERNAL)
    _reclen, namelen, etype, kind = _C_HEADER.unpack_from(block, second)
    _C_HEADER.pack_into(block, second, hostile_reclen(second), namelen, etype, kind)
    return block


HOSTILE_FFS = {
    "zero-reclen": lambda second: 0,
    "overrun": lambda second: BLOCK_SIZE - second + 4,
    "does-not-tile": lambda second: BLOCK_SIZE - second - 4,
}
HOSTILE_CFFS = {
    "zero-reclen": lambda second: 0,
    "overrun": lambda second: SECTOR - second + 4,
    "does-not-tile": lambda second: SECTOR - second - 4,
}


def _with_sector_of(block, sector):
    """A fresh block holding ``block``'s ``sector`` and nothing else:
    one sector scanned apart from a damaged neighbour."""
    fresh = cdir.init_block()
    fresh[sector * SECTOR:(sector + 1) * SECTOR] = block[sector * SECTOR:(sector + 1) * SECTOR]
    return fresh


@pytest.mark.parametrize("case", sorted(HOSTILE_FFS))
def test_ffs_hostile_chain_is_corrupt_filesystem(case):
    block = _ffs_block_with(HOSTILE_FFS[case])
    before = bytes(block)
    with pytest.raises(CorruptFileSystem):
        fdir.scan_block(block, 0)
    # An insert's room list comes from one walk of the whole chain.
    with pytest.raises(CorruptFileSystem):
        fdir.room_list(block)
    with pytest.raises(CorruptFileSystem):
        fdir.add_entry(block, fdir.room_list(block), 9, flayout.DT_FILE,
                       "x" * 300)                              # fits nowhere
    with pytest.raises(CorruptFileSystem):
        fdir.add_entry(block, fdir.room_list(block), 9, flayout.DT_FILE,
                       "new")                                  # fits past the damage
    with pytest.raises(CorruptFileSystem):
        fdir.remove_entry(block, "third")                      # lives past the damage
    with pytest.raises(CorruptFileSystem):
        fdir.remove_entry(block, "absent")
    with pytest.raises(CorruptFileSystem):
        fdir.live_entries(block)
    assert bytes(block) == before, "an edit wrote before the walk had validated"
    # An entry in front of the damage is still found and removed: the
    # walk validates as far as it goes, like the lookup scan.
    assert fdir.remove_entry(block, "first") == (
        1, 0, flayout.dirent_size(5), flayout.dirent_size(5))


@pytest.mark.parametrize("case", sorted(HOSTILE_CFFS))
def test_cffs_hostile_chain_is_corrupt_filesystem(case):
    block = _cffs_block_with(HOSTILE_CFFS[case])
    before = bytes(block)
    payload = struct.pack("<Q", 9)
    with pytest.raises(CorruptFileSystem):
        cdir.scan_block(block, 0)
    with pytest.raises(CorruptFileSystem):
        cdir.add_entry(block, 0, "x" * 255, cdir.ET_EMBEDDED, cdir.DK_FILE,
                       embedded_payload(9))               # the longest name
    with pytest.raises(CorruptFileSystem):
        cdir.add_entry(block, 0, "new", cdir.ET_EXTERNAL, cdir.DK_FILE, payload)
    with pytest.raises(CorruptFileSystem):
        cdir.remove_entry(block, "third")
    with pytest.raises(CorruptFileSystem):
        cdir.remove_entry(block, "absent")      # sector 0 is walked first
    with pytest.raises(CorruptFileSystem):
        list(cdir.iter_block(block))
    assert bytes(block) == before, "an edit wrote before the walk had validated"
    # The other seven sectors are independent chains.
    assert c_free(_with_sector_of(block, 1), 1) == SECTOR
    assert cdir.add_entry(block, 1, "new", cdir.ET_EXTERNAL, cdir.DK_FILE,
                          payload) is not None


# A live record must hold its header, its padded name and its entry
# type's payload. At 01fdf5e the walk checked only that a record fit its
# sector, so a record too short for its payload went through and the
# index scan read the payload past the record, or (at the end of the
# block) raised struct.error.

#: name -> (sector, the records that tile it: (reclen, namelen, etype)).
SHORT_CFFS = {
    "embedded-at-block-end": (7, [(504, 0, cdir.ET_FREE), (8, 0, cdir.ET_EMBEDDED)]),
    "external-at-block-end": (7, [(500, 0, cdir.ET_FREE), (12, 3, cdir.ET_EXTERNAL)]),
    "unknown-type-at-block-end": (7, [(504, 0, cdir.ET_FREE), (8, 0, 3)]),
    "embedded-without-its-inode": (0, [(12, 3, cdir.ET_EMBEDDED), (500, 0, cdir.ET_FREE)]),
    "name-past-the-record": (0, [(16, 40, cdir.ET_EXTERNAL), (496, 0, cdir.ET_FREE)]),
}


def _cffs_block_with_records(sector, records):
    block = cdir.init_block()
    offset = sector * SECTOR
    for reclen, namelen, etype in records:
        _C_HEADER.pack_into(block, offset, reclen, namelen, etype, cdir.DK_FILE)
        offset += reclen
    assert offset == (sector + 1) * SECTOR
    return block


@pytest.mark.parametrize("case", sorted(SHORT_CFFS))
def test_cffs_short_live_record_is_corrupt_filesystem(case):
    sector, records = SHORT_CFFS[case]
    block = _cffs_block_with_records(sector, records)
    before = bytes(block)
    with pytest.raises(CorruptFileSystem):
        cdir.scan_block(block, 0)
    with pytest.raises(CorruptFileSystem):
        list(cdir.iter_block(block))
    with pytest.raises(CorruptFileSystem):
        cdir.add_entry(block, sector, "new", cdir.ET_EXTERNAL, cdir.DK_FILE,
                       struct.pack("<Q", 9))
    with pytest.raises(CorruptFileSystem):
        cdir.remove_entry(block, "absent")
    assert bytes(block) == before, "an edit wrote before the walk had validated"
    other = 3
    assert c_free(_with_sector_of(block, other), other) == SECTOR
    assert cdir.add_entry(block, other, "new", cdir.ET_EXTERNAL, cdir.DK_FILE,
                          struct.pack("<Q", 9)) is not None


#: name -> the records that tile an FFS block: (inum, reclen, namelen,
#: name bytes).  Until the walk checked a live record's room, the first
#: read back as one entry named ``abcd`` followed by the next header's
#: bytes and zeros.
SHORT_FFS = {
    "name-past-the-record": [(5, 12, 40, b"abcd"), (0, BLOCK_SIZE - 12, 0, b"")],
    "name-past-the-block-end": [(0, BLOCK_SIZE - 8, 0, b""), (5, 8, 1, b"")],
}


@pytest.mark.parametrize("case", sorted(SHORT_FFS))
def test_ffs_short_live_record_is_corrupt_filesystem(case):
    block = fdir.init_block()
    offset = 0
    for inum, reclen, namelen, raw in SHORT_FFS[case]:
        _F_HEADER.pack_into(block, offset, inum, reclen, namelen, flayout.DT_FILE)
        block[offset + _F_HSIZE:offset + _F_HSIZE + len(raw)] = raw
        offset += reclen
    assert offset == BLOCK_SIZE
    before = bytes(block)
    with pytest.raises(CorruptFileSystem):
        fdir.scan_block(block, 0)
    with pytest.raises(CorruptFileSystem):
        fdir.live_entries(block)
    with pytest.raises(CorruptFileSystem):
        fdir.room_list(block)
    with pytest.raises(CorruptFileSystem):
        fdir.remove_entry(block, "abcd")
    with pytest.raises(CorruptFileSystem):
        fdir.remove_entry(block, "absent")
    assert bytes(block) == before, "an edit wrote before the walk had validated"


# -- stored names that are not UTF-8 ------------------------------------------


def _ffs_block_with_raw_names(*raw_names, slack=0):
    """Live entries whose name bytes are given verbatim, packed from
    offset 0: the first carries ``slack`` spare bytes, the last owns
    the rest of the block."""
    block = fdir.init_block()
    offset = 0
    for i, raw in enumerate(raw_names):
        reclen = flayout.dirent_size(len(raw)) + (slack if i == 0 else 0)
        if i == len(raw_names) - 1:
            reclen = BLOCK_SIZE - offset
        _F_HEADER.pack_into(block, offset, i + 1, reclen, len(raw), flayout.DT_FILE)
        block[offset + _F_HSIZE:offset + _F_HSIZE + len(raw)] = raw
        offset += reclen
    return block


def test_ffs_free_space_is_counted_from_the_stored_namelen():
    """b"\\xff\\xfe" occupies two bytes on disk and reads back as two
    U+FFFD, six bytes re-encoded.  The parent's free_bytes sized the
    entry by the re-encoded name and so under-reported what add_entry
    (which always split by the stored namelen) would accept; the free
    count now follows the same rule as the insert."""
    # The odd entry with 16 bytes of slack, then 19 records of 208 bytes
    # and one of 116 with none.
    raws = [b"\xff\xfe"] + [(b"%02d" % i).ljust(200, b"a") for i in range(19)]
    block = _ffs_block_with_raw_names(*raws, b"b" * 108, slack=16)
    head = flayout.dirent_size(2) + 16
    assert [r for _o, _i, _k, _n, r in ref_f_iter_entries(block)] == (
        [head] + [208] * 19 + [116])
    assert f_free(block) == 16
    assert ref_f_free_bytes(block) == head - flayout.dirent_size(6) == 12
    # An 8-byte name needs the 16: both edit paths accept it.
    ref = bytearray(block)
    assert ref_f_add_entry(ref, 77, flayout.DT_FILE, "eightlen")
    assert fdir.add_entry(block, fdir.room_list(block), 77, flayout.DT_FILE,
                          "eightlen") == 0
    assert block == ref


@pytest.mark.parametrize("raw_names", [
    (b"a\xff", b"other"),                       # matches only after replacement
    (b"a\xff", "a\ufffd".encode("utf-8")),      # ... and shadows the real one
    ("a\ufffd".encode("utf-8"), b"a\xff"),      # the real one comes first
    (b"\xf0\x9f\x98", b"zz"),                   # same length as U+FFFD encoded
])
def test_ffs_removal_by_replacement_decoded_name_is_unchanged(raw_names):
    """fsck's repair hands remove_entry the name as it decoded it; a
    stored name that is not UTF-8 decodes with U+FFFD.  At the parent
    the *first* entry whose replacement-decoded name equals the argument
    is removed; comparing stored bytes finds the same entry unless the
    argument contains U+FFFD, and then the decode comparison is kept."""
    for target in ("a\ufffd", "\ufffd"):
        block = _ffs_block_with_raw_names(*raw_names)
        ref = bytearray(block)
        want = ref_f_remove_entry(ref, target)
        got = fdir.remove_entry(block, target)
        assert block == ref
        assert (got[0] if got else None) == want


def test_cffs_not_utf8_names_free_space_and_removal():
    """C-FFS always counted free space from the stored namelen; removal
    keeps the parent's first-replacement-decoded-match outcome."""
    block = cdir.init_block()
    size = clayout.dent_size(2, cdir.ET_EXTERNAL)
    for i, raw in enumerate((b"a\xff", "a\ufffd".encode("utf-8"))):
        offset = i * size
        reclen = size if i == 0 else SECTOR - size
        _C_HEADER.pack_into(block, offset, reclen, len(raw), cdir.ET_EXTERNAL,
                            cdir.DK_FILE)
        block[offset + _C_HSIZE:offset + _C_HSIZE + len(raw)] = raw
    assert (c_free(block, 0) == ref_c_sector_free_bytes(block, 0)
            == SECTOR - size - clayout.dent_size(4, cdir.ET_EXTERNAL))
    ref = bytearray(block)
    assert ref_c_remove_entry(ref, "a\ufffd") == (0, cdir.ET_EXTERNAL)
    assert cdir.remove_entry(block, "a\ufffd") == (0, size)
    assert block == ref
    # The head went (the not-UTF-8 one); the real name is still there.
    assert [e[4] for _s, e in cdir.live_entries(bytes(block))] == ["a\ufffd"]


def test_removal_skips_a_free_record_that_kept_a_name():
    """A removal walks only as far as the name, and only a live record
    can be the name: a free record whose header still carries the same
    name length and bytes (no edit writes one, damage can) is passed
    over, in both codecs."""
    name = b"abc"
    block = fdir.init_block()
    _F_HEADER.pack_into(block, 0, 0, 12, len(name), flayout.DT_FILE)   # free
    block[_F_HSIZE:_F_HSIZE + 3] = name
    _F_HEADER.pack_into(block, 12, 5, 12, len(name), flayout.DT_FILE)  # live
    block[12 + _F_HSIZE:12 + _F_HSIZE + 3] = name
    _F_HEADER.pack_into(block, 24, 0, BLOCK_SIZE - 24, 0, 0)
    assert fdir.remove_entry(block, "abc") == (5, 0, 24, 24)
    assert fdir.live_entries(bytes(block)) == []

    block = cdir.init_block()
    size = clayout.dent_size(len(name), cdir.ET_EXTERNAL)
    for offset, etype in ((0, clayout.ET_FREE), (size, cdir.ET_EXTERNAL)):
        _C_HEADER.pack_into(block, offset, size, len(name), etype, cdir.DK_FILE)
        block[offset + _C_HSIZE:offset + _C_HSIZE + 3] = name
    _C_HEADER.pack_into(block, 2 * size, SECTOR - 2 * size, 0, clayout.ET_FREE, 0)
    assert cdir.remove_entry(block, "abc") == (0, 2 * size)
    assert cdir.live_entries(bytes(block)) == []
