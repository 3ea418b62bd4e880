"""Differential tests: the optimized hot paths are behavior-neutral.

The perf overhaul (zero-copy block handling, batched event-loop
dispatch, allocation-free disabled observability) promises to change *nothing* observable: for a fixed
seed, the disk image must stay byte-identical, and the trace/metric
event streams must stay identical too.  These tests pin that promise
to goldens captured from the pre-optimization code.

Three seeded scenarios cover the three stacks the optimizations touch:

- ``fig5``: the paper's smallfile benchmark on the conventional and
  C-FFS configurations (vfs -> core/ffs -> cache -> blockdev -> disk);
- ``postmark``: mixed transactional churn with deletes and appends;
- ``chaos``: the resilience soak (checksum verify on every read, remap,
  scrub) whose report renders deterministically.

Each scenario captures a SHA-256 of the device's logical contents
(:meth:`BlockDevice.content_digest` — independent of the image
compressor), of the JSONL trace export, and of the canonical metrics
snapshot, plus the simulated end time.  ``trace_sans_cache_hits`` is the
trace digest again with ``counters["cache.hits"]`` struck from every
span: a change in how often a *resident* block is looked up moves
``trace`` and ``metrics`` but not this one, which then certifies that
nothing else in the trace moved.  Regeneration is a reviewed event:
see ``tests/golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro import obs
from repro.faults.chaos import ChaosConfig, render_chaos, run_chaos
from repro.workloads import build_filesystem, run_smallfile
from repro.workloads.postmark import PostmarkConfig, run_postmark
from tests import golden


def _sha(text_or_bytes) -> str:
    data = (text_or_bytes if isinstance(text_or_bytes, bytes)
            else text_or_bytes.encode("utf-8"))
    return hashlib.sha256(data).hexdigest()


def _metrics_digest(registry) -> str:
    return _sha(json.dumps(registry.snapshot(), sort_keys=True))


def _sans_cache_hits(jsonl: str) -> str:
    """The JSONL export with ``cache.hits`` struck from each span."""
    lines = []
    for line in jsonl.splitlines():
        span = json.loads(line)
        span["counters"].pop("cache.hits", None)
        lines.append(json.dumps(span, sort_keys=True, separators=(",", ":")))
    return "\n".join(lines)


def _traced_run(fs, body) -> dict:
    """Run ``body`` under a tracer; capture image/trace/metric digests.

    The metrics digest is of the drive's registry (what ``repro trace
    --metrics`` writes): the disk counters, the request histogram and
    every field the layers over the drive registered there.
    """
    device = fs.cache.device
    tracer = obs.Tracer(clock=device.clock)
    obs.install(tracer)
    try:
        body()
    finally:
        obs.uninstall()
    jsonl = obs.export_jsonl(tracer)
    return {
        "image": device.content_digest(),
        "trace": _sha(jsonl),
        "trace_sans_cache_hits": _sha(_sans_cache_hits(jsonl)),
        "metrics": _metrics_digest(device.disk.registry),
        "spans": len(tracer.spans),
        "sim_seconds": round(device.clock.now, 9),
    }


def capture_fig5() -> dict:
    out = {}
    for label in ("conventional", "cffs"):
        fs = build_filesystem(label)
        out[label] = _traced_run(
            fs, lambda fs=fs: run_smallfile(fs, n_files=120, file_size=4096,
                                            n_dirs=2))
    return out


def capture_postmark() -> dict:
    fs = build_filesystem("cffs")
    cfg = PostmarkConfig(n_files=150, n_transactions=300, seed=1997)
    return {"cffs": _traced_run(fs, lambda: run_postmark(fs, cfg))}


def capture_chaos() -> dict:
    # The soak builds its own (faulty, resilient) stack; its rendered
    # report is the deterministic fingerprint — it folds in every op
    # outcome, health transition, scrub verdict and fsck result.
    report = run_chaos(ChaosConfig())
    passed, reasons = report.verdict()
    assert passed, "chaos soak must pass before fingerprinting: %s" % reasons
    return {"report": _sha(render_chaos(report))}


CAPTURES = {
    "fig5": capture_fig5,
    "postmark": capture_postmark,
    "chaos": capture_chaos,
}


@pytest.mark.parametrize("scenario", sorted(CAPTURES))
def test_differential(scenario):
    golden.pin("differential.json", {scenario: CAPTURES[scenario]()})


def test_struck_digest_ignores_only_cache_hits():
    def span(hits, misses):
        return json.dumps({"id": 1, "op": "get", "counters": {
            "cache.hits": hits, "cache.misses": misses}}) + "\n"

    assert _sans_cache_hits(span(3, 1)) == _sans_cache_hits(span(9, 1))
    assert _sans_cache_hits(span(3, 1)) != _sans_cache_hits(span(3, 2))
    assert "cache.hits" not in _sans_cache_hits(span(3, 1))


def test_image_digest_ignores_compression_and_zero_blocks():
    """content_digest is stable across save/load and zero-block writes."""
    from repro.blockdev.device import BLOCK_SIZE, BlockDevice
    from repro.disk.profiles import SEAGATE_ST31200

    dev = BlockDevice(SEAGATE_ST31200)
    dev.write_block(7, b"\x42" * BLOCK_SIZE)
    digest = dev.content_digest()
    # Writing zeros somewhere else reads back identically to never
    # having written — the digest must not change.
    dev.write_block(9, bytes(BLOCK_SIZE))
    assert dev.content_digest() == digest
    # Round-trip through the compressed image format.
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "img")
        dev.save_image(path)
        assert BlockDevice.load_image(path).content_digest() == digest
