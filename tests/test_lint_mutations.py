"""Every lint rule still catches the defect it is kept for.

A row puts one rule's defect back into a real site of ``src/``: the
rule, the file, the exact text there today, and the same text with the
defect.  All rows are applied to one in-memory copy of the tree, which
is linted once; each row must raise an unsuppressed finding of its rule
in its file.  A row whose exact text is gone fails
too: move it to the site's new shape, or to another real site of the
same defect.  The rows come from the mutation table in
docs/STATIC_ANALYSIS.md.
"""

from pathlib import Path

from tests.conftest import lint_sources


ROOT = Path(__file__).resolve().parent.parent

_FETCH = ("data = self.cache.device.read_extent(start, count)  "
          "# reprolint: disable=L001 -- grouped extent fetch is the one "
          "sanctioned boundary read below the cache\n")

#: (rule, file, text today, text with the rule's defect)
ROWS = [
    # A file system reading a block from the device behind the cache.
    ("L001", "src/repro/ffs/base.py",
     "            self.cache.get(bno, logical=(fid, idx))\n",
     "            self.cache.install(bno, self.cache.device.read_block(bno),\n"
     "                               logical=(fid, idx))\n"),
    # A replayed trace's payload seeded from the salted builtin hash.
    ("D001", "src/repro/workloads/trace.py",
     "    seed = (zlib.crc32(b\"%s@%d\" % (path.encode(\"utf-8\"), offset))"
     " & 0xFF) or 1\n",
     "    seed = (hash((path, offset)) & 0xFF) or 1\n"),
    # A bare except that would turn a PowerLoss during the stat into a
    # missing file.
    ("E001", "src/repro/vfs/interface.py",
     "        except FileNotFound:\n            return False\n",
     "        except:  # noqa: E722\n            return False\n"),
    # A dirent header packed in host byte order.
    ("F001", "src/repro/ffs/layout.py",
     'DIRENT_HEADER_FMT = "<IHBB"\n',
     'DIRENT_HEADER_FMT = "IHBB"\n'),
    # A waiver that no longer says why.
    ("S001", "src/repro/ffs/base.py",
     "# reprolint: disable=L001 -- clustered prefetch is a sanctioned "
     "boundary read; blocks install into the cache immediately below\n",
     "# reprolint: disable=L001\n"),
    # FFS._dir_remove_entry sealing after its consistency raise: the
    # scrubbed block never reaches the journal on the raise path.
    ("J001", "src/repro/ffs/filesystem.py",
     "        token = self._meta_write(bno, requires)\n"
     "        if removed is None or removed[0] != inum:\n"
     "            raise CorruptFileSystem(\"index and block disagree on %r\""
     " % name)\n",
     "        if removed is None or removed[0] != inum:\n"
     "            raise CorruptFileSystem(\"index and block disagree on %r\""
     " % name)\n"
     "        token = self._meta_write(bno, requires)\n"),
    # The group fetch's span built on every grouped read.
    ("O001", "src/repro/core/filesystem.py",
     "            if obs.enabled():\n"
     "                with obs.span(\"fs\", \"group_fetch\", extent=ext,"
     " blocks=count):\n"
     "                    " + _FETCH +
     "            else:\n"
     "                " + _FETCH,
     "            with obs.span(\"fs\", \"group_fetch\", extent=ext,"
     " blocks=count):\n"
     "                " + _FETCH),
    # The embedded dirent header re-parsed from its format string on
    # every record of every scan.
    ("O001", "src/repro/core/directory.py",
     "        reclen, namelen, etype, kind = unpack_header(block, offset)\n",
     "        reclen, namelen, etype, kind = struct.unpack_from(\n"
     "            DENT_HEADER_FMT, block, offset)\n"),
]


def test_every_row_fires():
    sources = {path.relative_to(ROOT).as_posix(): path.read_text(encoding="utf-8")
               for path in (ROOT / "src" / "repro").rglob("*.py")}
    for rule, path, text, mutated in ROWS:
        assert sources[path].count(text) == 1, (rule, path, text)
        sources[path] = sources[path].replace(text, mutated)
    # The tree itself lints clean (tests/test_reprolint_selfhost.py), so
    # every unsuppressed finding here is one a row put back.
    fired = {(f.rule, f.path) for f in lint_sources(sources).unsuppressed}
    assert [row[:2] for row in ROWS if row[:2] not in fired] == []
