"""What ``BENCHMARK.json`` declares, as the benchmark's own code reads it.

The file at the repository root is the single place workload names,
metric names, units, directions and regression bounds are written down;
nothing here repeats them.
"""

from __future__ import annotations

import functools
import json
import os
import re
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

#: Where runs leave their detail and trace files (ignored by the
#: directory's own .gitignore).
OUT_DIR = os.path.join(HERE, "out")

#: ``setup_s`` is a few milliseconds on most workloads; a difference
#: below this many seconds is never a regression.
SETUP_FLOOR_S = 0.05

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@functools.lru_cache(maxsize=None)
def declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as src:
        return json.load(src)


def workload_names() -> List[str]:
    return [w["name"] for w in declared()["workloads"]]


def end_to_end() -> List[Dict[str, object]]:
    return declared()["end_to_end"]


def per_layer() -> List[Dict[str, object]]:
    return declared()["per_layer"]


def run_seconds() -> int:
    return declared()["run_seconds"]


def on_host_clock(metric: str) -> bool:
    """Whether an end-to-end metric is a measurement of this machine.

    Every other one is counted or timed on the simulated clock, which
    makes it a pure function of the seed: two runs of one commit with
    one seed must agree on it exactly.
    """
    return metric.startswith("host_") or metric == "setup_s"
