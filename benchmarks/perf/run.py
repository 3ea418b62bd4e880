"""Entry point by path: ``python3 benchmarks/perf/run.py ...``.

Puts the repository root and ``src/`` on the import path in place of
this directory (whose ``trace.py`` would otherwise shadow the standard
library's), pins the string hash seed, and hands over to the CLI.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        sys.exit("the program under test (src/repro) is not in this checkout")
    sys.path[0] = ROOT
    sys.path.insert(1, os.path.join(ROOT, "src"))
    from benchmarks.perf.cli import main

    sys.exit(main())
