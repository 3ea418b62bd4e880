#!/usr/bin/env python3
"""Write a workload down once, replay it everywhere.

A working session is a script of :class:`Operation` records — plain
data, one VFS call each.  Printed, the script is a text trace; read
back, the trace runs against each configuration of the grid, which
measures them on *identical* activity — the methodology behind every
comparison in the paper.

Run:  python examples/trace_replay.py
"""

from repro.analysis import Table
from repro.cache.policy import MetadataPolicy
from repro.workloads import Operation, build_filesystem, run_script
from repro.workloads.trace import dumps, loads


def session() -> list:
    """A small development session: project setup, edits, cleanup."""
    ops = [Operation("mkdir", (d,))
           for d in ("/proj", "/proj/src", "/proj/build")]
    ops += [Operation("write_file", ("/proj/src/mod%02d.c" % i,),
                      size=800 + 113 * i % 4000, fill=ord("c"))
            for i in range(60)]
    ops.append(Operation("sync"))
    # An edit/build cycle.
    for _round in range(3):
        ops += [Operation("read_file", ("/proj/src/mod%02d.c" % i,))
                for i in range(0, 60, 3)]
        ops += [Operation("write_file", ("/proj/build/mod%02d.o" % i,),
                          size=2400, fill=ord("o"))
                for i in range(0, 60, 3)]
        ops.append(Operation("sync"))
    # Cleanup.
    ops += [Operation("unlink", ("/proj/build/mod%02d.o" % i,))
            for i in range(0, 60, 3)]
    ops.append(Operation("sync"))
    return [(op.kind, op) for op in ops]


def main() -> None:
    text = dumps(session())
    script = loads(text)
    print("%d operations; first lines of the trace:" % len(script))
    for line in text.splitlines()[:5]:
        print("   ", line)
    print("    ...")
    print()

    table = Table(
        "One trace, every configuration (simulated seconds)",
        ["configuration", "seconds", "disk requests"],
    )
    for label in ("conventional", "embedded", "grouping", "cffs"):
        fs = build_filesystem(label, MetadataPolicy.SYNC_METADATA)
        measured = run_script(fs, script)
        table.add_row(label, "%.2f" % measured.seconds, measured.disk_requests)
    table.caption = "identical operations; only the on-disk layout differs"
    print(table.render())


if __name__ == "__main__":
    main()
