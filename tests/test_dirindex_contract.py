"""The directory index is one mechanism: the same contract on every
on-disk format, and a single definition under ``repro.ffs.base``."""

import pytest

import repro.core.filesystem as core_fs
import repro.ffs.filesystem as ffs_fs
from repro.blockdev.device import BLOCK_SIZE
from repro.core.filesystem import CFFS
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
    for client in (engine_client.ClientContext, core.ClusterClient):
        assert "yield from replay(" in inspect.getsource(client._run_ops)
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
        assert source.count(".after_failure(") == (
            name in ("core", "facade")), name

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
