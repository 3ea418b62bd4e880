"""Signal-sampled profile of one benchmark workload's timed body.

    python3 benchmarks/profile_body.py --workload webserve-resilient \\
        --seed 1997

Builds the workload of ``benchmarks/perf`` exactly as a repeat of
``benchmarks/perf/run.py`` does (same inputs, one warm-up pass at a
tenth of the size, a fresh stack per body, the string hash seed pinned
to 0), then runs its timed ``body`` 40 times with a ``SIGPROF`` timer
firing every 2 ms of process CPU (``signal.setitimer(ITIMER_PROF)``).
Each tick records the Python stack it interrupted; only stacks that
pass through the workload's ``body`` count, so set-up, fsck and garbage
from earlier repeats stay out.  Unlike a deterministic profiler it adds
no cost per call, so the shares are those of an untraced run.

Printed: the sample count, then the 25 functions under ``src/`` with
the largest inclusive share (the function is anywhere on the sampled
stack) and their exclusive share (it is the innermost frame), and the
25 largest exclusive shares of any file (the C-level work a Python
frame calls, such as ``zlib.crc32``, counts to that frame).
"""

from __future__ import annotations

import argparse
import collections
import gc
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

BODIES = 40         # timed bodies sampled
INTERVAL_S = 0.002  # process CPU between samples
TOP = 25            # rows per table


def _where(code) -> str:
    """``path::qualname`` of a code object, the path relative to the
    repository root."""
    path = os.path.relpath(code.co_filename, ROOT)
    return "%s::%s" % (path, getattr(code, "co_qualname", code.co_name))


def profile(workload: str, seed: int):
    """(samples, inclusive Counter, exclusive Counter) over ``BODIES``
    timed bodies of ``workload``."""
    from benchmarks.perf.runner import WARMUP_SCALE
    from benchmarks.perf.workloads import WORKLOADS

    cls = WORKLOADS[workload]
    inputs = cls.generate(seed, 1)
    warm = cls(cls.generate(seed, WARMUP_SCALE))
    warm.setup()
    warm.run()
    del warm
    body_code = cls.body.__code__
    inclusive: collections.Counter = collections.Counter()
    exclusive: collections.Counter = collections.Counter()
    samples = 0

    def tick(_signum, frame):
        nonlocal samples
        seen = []
        while frame is not None:
            seen.append(frame.f_code)
            frame = frame.f_back
        if body_code not in seen:
            return
        samples += 1
        exclusive[_where(seen[0])] += 1
        for code in set(seen):
            inclusive[_where(code)] += 1

    signal.signal(signal.SIGPROF, tick)
    for _ in range(BODIES):
        w = cls(inputs)
        w.setup()
        gc.collect()
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        try:
            w.run()
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
        del w
    signal.signal(signal.SIGPROF, signal.SIG_DFL)
    return samples, inclusive, exclusive


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="webserve-resilient")
    parser.add_argument("--seed", type=int, default=1997)
    args = parser.parse_args(argv)
    samples, inclusive, exclusive = profile(args.workload, args.seed)
    if not samples:
        print("no sample passed through %s.body" % args.workload)
        return 1
    print("%s, seed %d: %d bodies, %d samples every %g ms of CPU" % (
        args.workload, args.seed, BODIES, samples, INTERVAL_S * 1e3))
    print()
    print("%8s %8s  function (src/)" % ("incl %", "excl %"))
    ours = [(n, where) for where, n in inclusive.items()
            if where.startswith("src" + os.sep)]
    for n, where in sorted(ours, reverse=True)[:TOP]:
        print("%8.1f %8.1f  %s" % (100.0 * n / samples,
                                   100.0 * exclusive[where] / samples, where))
    print()
    print("%8s  function (largest exclusive)" % "excl %")
    for where, n in exclusive.most_common(TOP):
        print("%8.1f  %s" % (100.0 * n / samples, where))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.path[0] = ROOT
    sys.path.insert(1, os.path.join(ROOT, "src"))
    sys.exit(main())
