"""Property-based model check: random operation sequences against a
dictionary model, for every file system configuration; the image must
also pass fsck afterwards."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import FileExists, FileNotFound
from repro.fsck import fsck_cffs, fsck_ffs
from tests.conftest import (
    PinnedFaults,
    assert_dir_index_matches_blocks,
    dirty_count,
    make_cffs,
    make_ffs,
)

# Small name pool so operations collide meaningfully.
name_pool = st.sampled_from(["a", "b", "c", "dd", "ee", "file1", "file2"])

operations = st.lists(
    st.one_of(
        st.tuples(st.just("write"), name_pool,
                  st.integers(min_value=0, max_value=6000)),
        st.tuples(st.just("unlink"), name_pool),
        st.tuples(st.just("rename"), name_pool, name_pool),
        st.tuples(st.just("truncate"), name_pool,
                  st.integers(min_value=0, max_value=3000)),
        st.tuples(st.just("link"), name_pool, name_pool),
        st.tuples(st.just("sync_drop"),),
    ),
    min_size=1,
    max_size=40,
)


def run_model(fs, ops):
    model = {}

    def payload(n):
        return bytes((i * 7 + n) % 256 for i in range(n))

    for op in ops:
        kind = op[0]
        if kind == "write":
            _, name, size = op
            data = payload(size)
            fs.write_file("/" + name, data)
            # Hard-linked names share a content cell, so a write via
            # one name is visible through all of them.
            _model_set(model, name, data)
        elif kind == "unlink":
            _, name = op
            if name in model:
                fs.unlink("/" + name)
                _model_unlink(model, name)
            else:
                with pytest.raises(FileNotFound):
                    fs.unlink("/" + name)
        elif kind == "rename":
            _, old, new = op
            if old not in model:
                with pytest.raises(FileNotFound):
                    fs.rename("/" + old, "/" + new)
            elif new in model and model[new] is model[old]:
                # POSIX: renaming one hard link onto another name of
                # the same file is a no-op; both names remain.
                fs.rename("/" + old, "/" + new)
            else:
                fs.rename("/" + old, "/" + new)
                _model_rename(model, old, new)
        elif kind == "truncate":
            _, name, size = op
            if name in model:
                fs.truncate("/" + name, size)
                data = _model_get(model, name)
                if size <= len(data):
                    _model_set_content(model, name, data[:size])
                else:
                    _model_set_content(model, name, data + bytes(size - len(data)))
        elif kind == "link":
            _, src, dst = op
            if src in model and dst not in model:
                fs.link("/" + src, "/" + dst)
                _model_link(model, src, dst)
            elif src in model and dst in model:
                with pytest.raises(FileExists):
                    fs.link("/" + src, "/" + dst)
        elif kind == "sync_drop":
            fs.sync()
            fs.drop_caches()
        # Incremental free-space accounting may not drift from the bytes.
        assert_dir_index_matches_blocks(fs)

    # Final verification: contents and directory listing agree.
    assert sorted(fs.readdir("/")) == sorted(model.keys())
    for name in model:
        assert fs.read_file("/" + name) == _model_get(model, name), name
    fs.sync()
    return fs


# The model stores {name: group_id}; groups map to content so hard
# links alias properly.
def _fresh_model():
    return {}


def _model_set(model, name, data):
    group = model.get(name)
    if group is None:
        model[name] = [data]  # one-element list is the shared cell
    else:
        group[0] = data


def _model_set_content(model, name, data):
    model[name][0] = data


def _model_get(model, name):
    return model[name][0]


def _model_unlink(model, name):
    del model[name]


def _model_rename(model, old, new):
    cell = model.pop(old)
    model[new] = cell


def _model_link(model, src, dst):
    model[dst] = model[src]


@given(operations)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_ops_cffs(ops):
    fs = run_model(make_cffs(), ops)
    report = fsck_cffs(fs.device)
    assert report.ok, report.render()


@given(operations)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_ops_cffs_conventional(ops):
    fs = run_model(make_cffs(embedded=False, grouping=False), ops)
    report = fsck_cffs(fs.device)
    assert report.ok, report.render()


@given(operations)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_ops_ffs(ops):
    fs = run_model(make_ffs(), ops)
    report = fsck_ffs(fs.device)
    assert report.ok, report.render()


@given(operations)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_ops_cffs_softdep(ops):
    from repro.cache.policy import MetadataPolicy

    fs = run_model(make_cffs(policy=MetadataPolicy.DELAYED_METADATA), ops)
    report = fsck_cffs(fs.device)
    assert report.ok, report.render()


# ---------------------------------------------------------------------------
# The same sequences through a 16-block cache: evictions and gathered
# write-outs fall between any two edits, so an edit made through a
# reference a write-out has replaced (Buffer.data's one hazard) would
# lose bytes the model still has.  At 512 blocks nothing ever evicts.
# ---------------------------------------------------------------------------

from repro.cache.policy import MetadataPolicy  # noqa: E402

_SMALL_CACHE = {
    "cffs": (lambda: make_cffs(cache_blocks=16), fsck_cffs),
    "conventional": (lambda: make_cffs(embedded=False, grouping=False,
                                       cache_blocks=16), fsck_cffs),
    "ffs": (lambda: make_ffs(cache_blocks=16), fsck_ffs),
    "softdep": (lambda: make_cffs(policy=MetadataPolicy.DELAYED_METADATA,
                                  cache_blocks=16), fsck_cffs),
    "journal": (lambda: make_cffs(policy=MetadataPolicy.JOURNAL_METADATA,
                                  cache_blocks=16), fsck_cffs),
}


@pytest.mark.parametrize("config", sorted(_SMALL_CACHE))
@given(operations)
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_ops_through_a_16_block_cache(config, ops):
    make, fsck = _SMALL_CACHE[config]
    fs = run_model(make(), ops)
    assert fs.cache.capacity == 16
    report = fsck(fs.device)
    assert report.ok, report.render()


# ---------------------------------------------------------------------------
# Fault injection: transient faults are invisible to the oracle; hard
# faults surface as clean errors and a retried sync leaves no damage.
# ---------------------------------------------------------------------------

from repro.errors import MediaReadError, MediaWriteError  # noqa: E402
from repro.faults import FaultSchedule, FaultyBlockDevice  # noqa: E402


def _faulty(fs, schedule):
    fs.device = FaultyBlockDevice(fs.device, schedule=schedule)
    fs.cache.device = fs.device
    return fs


@given(operations, st.integers(min_value=0, max_value=999))
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_ops_cffs_transient_faults(ops, fault_seed):
    """With the drive absorbing transient faults (bounded retries), the
    oracle must still agree byte-for-byte and the image stays clean."""
    fs = _faulty(make_cffs(), FaultSchedule(
        seed=fault_seed, transient_rate=0.15, max_transient_failures=2))
    run_model(fs, ops)
    report = fsck_cffs(fs.device)
    assert report.ok, report.render()


@given(operations, st.integers(min_value=0, max_value=999))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_ops_ffs_transient_faults(ops, fault_seed):
    fs = _faulty(make_ffs(), FaultSchedule(
        seed=fault_seed, transient_rate=0.15, max_transient_failures=2))
    run_model(fs, ops)
    report = fsck_ffs(fs.device)
    assert report.ok, report.render()


def test_hard_write_fault_fails_sync_cleanly_then_retries():
    """A hard write fault during a delayed-metadata sync raises a typed
    error, leaves the cache dirty, and a retried sync recovers fully."""
    from repro.cache.policy import MetadataPolicy

    fs = _faulty(make_cffs(policy=MetadataPolicy.DELAYED_METADATA),
                 PinnedFaults())
    for i in range(8):
        fs.write_file("/f%d" % i, b"h" * (700 * (i + 1)))
    # Fail the next media write — it will happen inside sync's flush.
    fs.device.schedule.fail_write(fs.device.stats.writes)
    with pytest.raises(MediaWriteError):
        fs.sync()
    assert dirty_count(fs.cache) > 0  # nothing silently marked clean
    fs.sync()  # the fault was one-shot; the retry lands everything
    report = fsck_cffs(fs.device)
    assert report.pristine, report.render()
    fs.drop_caches()
    for i in range(8):
        assert fs.read_file("/f%d" % i) == b"h" * (700 * (i + 1))


def test_hard_read_fault_surfaces_not_corrupts():
    fs = _faulty(make_ffs(), PinnedFaults())
    fs.write_file("/x", b"y" * 5000)
    fs.sync()
    fs.drop_caches()
    fs.device.schedule.fail_read(fs.device.stats.reads)
    with pytest.raises(MediaReadError):
        fs.read_file("/x")
    assert fs.read_file("/x") == b"y" * 5000  # next attempt succeeds
    assert fsck_ffs(fs.device).pristine
