"""The directory index is one mechanism: the same contract on every
on-disk format, and a single definition under ``repro.ffs.base``."""

import pytest

import repro.core.filesystem as core_fs
import repro.ffs.filesystem as ffs_fs
from repro.blockdev.device import BLOCK_SIZE
from repro.core import directory as cdir
from repro.core.filesystem import CFFS
from repro.errors import CorruptFileSystem
from repro.ffs import directory as fdir
from repro.ffs import layout as fdir_layout
from repro.ffs.base import BlockFileSystem
from repro.ffs.filesystem import FFS
from tests.conftest import assert_dir_index_matches_blocks, make_cffs, make_ffs

FORMATS = {
    "ffs": make_ffs,
    "cffs": lambda: make_cffs(embedded=True, grouping=True),
    "cffs-embed-only": lambda: make_cffs(embedded=True, grouping=False),
    "cffs-group-only": lambda: make_cffs(embedded=False, grouping=True),
    "cffs-conventional": lambda: make_cffs(embedded=False, grouping=False),
}


BLK = 2  # both formats' index records keep the directory block index third


def _name(i: int) -> str:
    return "n%03d" % i + "x" * 116   # long names: few creates per block


def _index(fs):
    dirh = fs._resolve("/d")
    return dirh, fs._dir_index[fs._file_id(dirh)]


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_directory_index_contract(fmt):
    fs = FORMATS[fmt]()
    fs.mkdir("/d")
    created = 0
    while fs._resolve("/d").size < 3 * BLOCK_SIZE:
        fs.create("/d/" + _name(created))
        created += 1
        assert assert_dir_index_matches_blocks(fs) > 0
    fs.sync()

    # A name in block 0 is found after scanning one block of three.
    fs.drop_caches()
    assert fs._dir_index == {}
    fs.stat("/d/" + _name(0))
    dirh, index = _index(fs)
    assert dirh.size == 3 * BLOCK_SIZE
    assert (index.scanned_blocks, index.complete) == (1, False)

    # An absence check has to see every block.
    assert not fs.exists("/d/absent")
    _, index = _index(fs)
    assert (index.scanned_blocks, index.complete) == (3, True)

    # Space freed in block 0 is reused first-fit before the directory grows.
    fs.unlink("/d/" + _name(0))
    assert_dir_index_matches_blocks(fs)
    fs.create("/d/" + _name(created))
    assert_dir_index_matches_blocks(fs)
    dirh, index = _index(fs)
    assert dirh.size == 3 * BLOCK_SIZE
    assert index.names[_name(created)][BLK] == 0
    assert sorted(fs.readdir("/d")) == sorted(
        _name(i) for i in range(1, created + 1))

    # A second link (with embedded inodes the entry is retyped in place
    # and gives up most of its payload; the new name goes to another
    # directory, so no insert recounts that sector) and a rename keep
    # the same books.
    fs.link("/d/" + _name(5), "/hard")
    assert_dir_index_matches_blocks(fs)
    fs.rename("/d/" + _name(2), "/d/moved")
    assert assert_dir_index_matches_blocks(fs) >= 3

    fs.drop_caches()
    assert fs._dir_index == {}


class _Recording:
    """Stands in for a codec module on one file system: records the
    name of every function the skeleton calls on it."""

    def __init__(self, codec, calls):
        self._codec, self._calls = codec, calls

    def __getattr__(self, name):
        self._calls.append(name)
        return getattr(self._codec, name)


class _CountingHeader:
    """Stands in for a codec's header ``Struct``: counts decodes."""

    def __init__(self, header):
        self._header, self.decodes = header, 0

    def unpack_from(self, block, offset):
        self.decodes += 1
        return self._header.unpack_from(block, offset)

    def pack_into(self, *args):
        return self._header.pack_into(*args)


def _records(codec, image) -> int:
    if codec is cdir:
        return sum(len(cdir._headers(image, s))
                   for s in range(cdir.SECTORS_PER_DIR_BLOCK))
    return len(fdir._headers(image))


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_index_scan_decodes_each_header_once(fmt, monkeypatch):
    """A cold full scan calls the codec's ``scan_block`` once per block
    and nothing else of it, and decodes every record header of the
    directory exactly once."""
    fs = FORMATS[fmt]()
    fs.mkdir("/d")
    created = 0
    while fs._resolve("/d").size < 3 * BLOCK_SIZE:
        fs.create("/d/" + _name(created))
        created += 1
    fs.sync()
    fs.drop_caches()
    dirh = fs._resolve("/d")           # the root's scan happens here
    codec = fs.dirfmt
    fid = fs._file_id(dirh)
    records = sum(_records(codec, fs.cache.get(fs._dir_block_bno(dirh, blk),
                                               logical=(fid, blk)).image)
                  for blk in range(3))
    header_name = "_DENT_HEADER" if codec is cdir else "_DIRENT_HEADER"
    header = _CountingHeader(getattr(codec, header_name))
    monkeypatch.setattr(codec, header_name, header)
    calls = []
    fs.dirfmt = _Recording(codec, calls)
    assert not fs.exists("/d/absent")
    assert calls == ["scan_block"] * 3
    assert header.decodes == records > 3 * 8


def test_ffs_insert_decodes_one_header(monkeypatch):
    """Once a block has its room list, an FFS insert into it decodes
    exactly one record header (its target's) and calls nothing of the
    codec but ``add_entry``; the list is built by one walk per block per
    index lifetime."""
    fs = make_ffs()
    fs.mkdir("/d")
    calls = []
    monkeypatch.setattr(ffs_fs, "dirfmt", _Recording(fdir, calls))
    created = 0
    while fs._resolve("/d").size < 3 * BLOCK_SIZE:
        fs.create("/d/" + _name(created))
        created += 1
    assert calls.count("room_list") == 3
    _, index = _index(fs)
    assert sorted(index.rooms) == [0, 1, 2]
    header = _CountingHeader(fdir._DIRENT_HEADER)
    monkeypatch.setattr(fdir, "_DIRENT_HEADER", header)
    del calls[:]
    fs.create("/d/" + _name(created))
    assert calls == ["add_entry"]
    assert header.decodes == 1
    assert_dir_index_matches_blocks(fs)
    # Removals keep the list; the next insert into that block walks nothing.
    fs.unlink("/d/" + _name(0))
    del calls[:]
    header.decodes = 0
    fs.create("/d/" + _name(created + 1))
    assert index.names[_name(created + 1)][BLK] == 0
    assert "room_list" not in calls and header.decodes == 1
    assert_dir_index_matches_blocks(fs)


def _skewed(rooms):
    """Each way a room list can disagree with the block at its target."""
    (offset, room), = rooms
    return {
        "room": [(offset, room + 4)],
        "offset": [(offset + 4, room - 4)],
        "before-a-live-record": [(0, room)],
    }


@pytest.mark.parametrize("case", ["room", "offset", "before-a-live-record"])
def test_ffs_insert_against_a_skewed_room_list_is_corrupt(case):
    block = fdir.init_block()
    rooms = fdir.room_list(block)
    for i in range(3):
        fdir.add_entry(block, rooms, i + 1, fdir_layout.DT_FILE, "n%d" % i)
    before = bytes(block)
    skewed = _skewed(rooms)[case]
    with pytest.raises(CorruptFileSystem):
        fdir.add_entry(block, skewed, 9, fdir_layout.DT_FILE, "new")
    assert bytes(block) == before

    # Through the file system: the cached block is left as it was.
    fs = make_ffs()
    fs.mkdir("/d")
    fs.create("/d/a")
    dirh, index = _index(fs)
    buf = fs.cache._logical[(fs._file_id(dirh), 0)]
    before = bytes(buf.image)
    index.rooms[0] = _skewed(index.rooms[0])[case]
    with pytest.raises(CorruptFileSystem):
        fs.create("/d/b")
    assert bytes(buf.image) == before


def test_ffs_insert_into_an_overrunning_record_is_corrupt():
    """A target whose header agrees with its list entry but runs past
    the block end is refused too, block untouched."""
    block = fdir.init_block()
    rooms = fdir.room_list(block)
    fdir.add_entry(block, rooms, 1, fdir_layout.DT_FILE, "n0")
    (offset, room), = rooms
    fdir._DIRENT_HEADER.pack_into(block, offset, 0, room + 4, 0, 0)
    before = bytes(block)
    with pytest.raises(CorruptFileSystem):
        fdir.add_entry(block, [(offset, room + 4)], 9, fdir_layout.DT_FILE, "new")
    assert bytes(block) == before


HOISTED = (
    "mkfs", "mount", "_store_superblock", "_write_back_metadata",
    "cg_base", "_next_gen", "_kind_of", "free_blocks",
    "_index_for", "_find_entry", "_complete_index", "_scan_until",
    "_dir_block_bno", "_grow_directory", "_readdir", "_alloc_conventional",
)


def test_skeleton_mechanisms_are_defined_once():
    for name in HOISTED:
        assert name in vars(BlockFileSystem), name
        assert name not in vars(FFS), "FFS redefines %s" % name
        assert name not in vars(CFFS), "CFFS redefines %s" % name
    # The same-file companion walk: FFS inherits it, C-FFS only wraps it.
    assert "_flush_companions" not in vars(FFS)
    for module in (ffs_fs, core_fs):
        assert not hasattr(module, "_DirIndex")
        assert not hasattr(module, "DirIndex")


def test_fsck_and_group_format_are_single_sourced():
    """One walk over one cylinder-group format: the checker borrows its
    bit helpers from ``ffs.cylgroup`` and its slot geometry from
    ``core.extinodes``, follows block pointers in one place, and mkfs
    leaves bitmap bytes to the group's owner."""
    import ast
    import inspect
    import textwrap

    from repro.core import extinodes
    from repro.ffs import cylgroup
    from repro.fsck import checker

    own = {name for name, obj in vars(checker).items()
           if getattr(obj, "__module__", checker.__name__) == checker.__name__
           and not inspect.ismodule(obj)}
    assert not [name for name in own if "bit" in name.lower()], own
    slot_names = [name for name in vars(checker) if "SLOT" in name]
    assert sorted(slot_names) == ["SLOTS_PER_BLOCK", "SLOT_SIZE"]
    assert checker.SLOT_SIZE is extinodes.SLOT_SIZE
    assert checker.cylgroup is cylgroup
    # Exactly one place decodes an indirect block; exactly one walker class
    # defines each step.
    assert inspect.getsource(checker).count("_PTRS.unpack") == 1
    for gone in ("_collect_blocks", "_ext_table_block", "_bit", "_set_bit",
                 "_check_cffs_groups", "_EXT_SLOT_SIZE"):
        assert not hasattr(checker, gone), gone
    for step in ("run", "_inode", "_entry", "_sweep_table", "_check_groups",
                 "_check_counters"):
        assert step in vars(checker._Walk), step
        for fmt in (checker._FFSWalk, checker._CFFSWalk):
            assert step not in vars(fmt), (fmt.__name__, step)
    for fs_class in (FFS, CFFS):
        tree = ast.parse(textwrap.dedent(
            inspect.getsource(fs_class._init_volume)))
        assert not [
            n for n in ast.walk(tree)
            if isinstance(n, ast.AugAssign)
            or (isinstance(n, ast.Subscript)
                and isinstance(n.value, ast.Attribute)
                and n.value.attr == "data")], fs_class


def test_cluster_replays_retries_and_records_through_one_mechanism_each():
    """The cluster is built *on* the engine, not beside it: one replay
    loop, generator driver and phase starter (``engine.client``), one
    retry-budget decision and failure classifier (``cluster.health``),
    one sealed-record codec and ``/.cluster`` listing
    (``cluster.intent``), one checksum (``resilience.checksums``)."""
    import ast
    import inspect
    import pkgutil
    import re

    import repro.cluster
    from repro.cluster import core, health, intent
    from repro.engine import client as engine_client

    sources = {
        name: inspect.getsource(__import__("repro.cluster." + name,
                                           fromlist=[name]))
        for _, name, _ in pkgutil.iter_modules(repro.cluster.__path__)}

    # (a) replay: the driver and the phase starter are inherited, the
    # per-request loop is delegated to, captures happen in one place.
    for host in (engine_client.Engine, core.Cluster):
        assert issubclass(host, engine_client.Replayer)
        for name in ("run_phase", "_step"):
            assert name not in vars(host), (host.__name__, name)
    assert "yield from replay(" in inspect.getsource(
        engine_client.ClientContext._run_ops)
    # The cluster's one per-op loop delegates each leg to its runner;
    # the replay clients hand it ``replay`` itself.
    run_op = inspect.getsource(core.Cluster.run_op)
    assert "yield from run_leg(" in run_op
    assert re.search(r"run_op\([^)]*\breplay\b",
                     inspect.getsource(core.ClusterClient._run_ops))
    for name, source in sources.items():
        assert not re.search(r"for \w+ in [\w.]+\.requests", source), name
        assert ".capture(" not in source, name
        assert ".submit(" not in source and "flush_barrier" not in source, name

    # (b) retry: one comparison against the per-op timeout, one place
    # the three counters are incremented, both in health.py.
    for name, source in sources.items():
        if name != "health":
            assert "OP_TIMEOUT" not in source, name
            assert "OP_ATTEMPTS" not in source, name
            for counter in ("attempts", "exhausted", "absorbed"):
                assert 'cluster.retry.%s").inc' % counter not in source, name
    compares = [
        node for node in ast.walk(ast.parse(sources["health"]))
        if isinstance(node, ast.Compare)
        and any(isinstance(n, ast.Name) and n.id == "OP_TIMEOUT"
                for n in ast.walk(node))]
    assert len(compares) == 1
    assert "OP_TIMEOUT" in inspect.getsource(health.next_delay)
    # One post-failure decision: the budget is spent, and the write
    # refusal worded, in one place each, both inside health.py.
    decide = inspect.getsource(health.ClusterHealth.after_failure)
    for needle in (r"(?<!def )next_delay\(", "shard refuses writes"):
        sites = [name for name, source in sources.items()
                 for _ in re.findall(needle, source)]
        assert sites == ["health"], (needle, sites)
    assert "next_delay(" in decide
    for name, source in sources.items():
        assert name == "health" or ".classify(" not in source, name
    # One request path: the per-op loop gates every write, hands every
    # failure to that decision and settles every success; the facade
    # and the lock-step section only delegate.
    for needle in (r"\.after_failure\(", r"\.refusal\(",
                   r"(?<!def )settle\("):
        sites = [name for name, source in sources.items()
                 for _ in re.findall(needle, source)]
        assert sites == ["core"], (needle, sites)
        assert re.search(needle, run_op), needle
    for needle in ("after_failure(", "refusal(", "settle(", "backoff(",
                   "lockstep("):
        assert needle not in sources["facade"], needle
    lockstep = inspect.getsource(core.Cluster.lockstep)
    assert "run_sync(" in lockstep and "pending" not in lockstep

    # (c) records: one framing literal and one directory listing.
    framing = re.compile(r"=%[sd]\\n")
    for name, source in sources.items():
        if name != "intent":
            assert not framing.search(source), name
    assert len(framing.findall(sources["intent"])) == 1
    assert framing.search(inspect.getsource(intent.encode_record))
    listings = [name for name, source in sources.items()
                for _ in re.findall(r"readdir\(CLUSTER_DIR\)", source)]
    assert listings == ["intent"]
    assert "readdir(CLUSTER_DIR)" in inspect.getsource(intent.scan_records)

    # (d) checksum: one name, bound in ``resilience.checksums``; the hash
    # ring and the trace replayer's payload seed hash with the stdlib
    # function itself (a process-independent hash, not a checksum).
    import pathlib

    import repro

    root = pathlib.Path(repro.__file__).parent
    mentions = sorted(
        path.relative_to(root).as_posix() for path in root.rglob("*.py")
        if re.search(r"\b(zlib|binascii)\.crc32\b", path.read_text()))
    assert mentions == ["cluster/router.py", "resilience/checksums.py",
                        "workloads/trace.py"]
