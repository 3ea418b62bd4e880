"""``python -m benchmarks.perf``: the whole suite, or ``--compare``."""

import sys

from benchmarks.perf.cli import main

sys.exit(main())
