"""Path handling shared by both file systems."""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import InvalidArgument, NameTooLong

MAX_NAME_LEN = 255


def split_path(path: str) -> List[str]:
    """Components of an absolute ``path`` (empty list for the root),
    validated in the same pass: slashes collapse, and every component
    must be a name other than '.' and '..' that encodes as UTF-8 in at
    most :data:`MAX_NAME_LEN` bytes."""
    if not path or not path.startswith("/"):
        raise InvalidArgument("paths must be absolute: %r" % path)
    parts = path[1:].split("/")
    if "" in parts:
        parts = [p for p in parts if p]
    # One C-speed test of the whole list; only a path that fails it is
    # walked name by name, so the first bad component decides the error.
    if parts and ("." in parts or ".." in parts or not path.isascii()
                  or max(map(len, parts)) > MAX_NAME_LEN):
        for part in parts:
            _check_name(part, path)
    return parts


def _check_name(part: str, path: str) -> None:
    if part in (".", ".."):
        raise InvalidArgument("'.' and '..' are not supported in paths: %r" % path)
    if len(part) > MAX_NAME_LEN:
        raise NameTooLong("component %r exceeds %d bytes" % (part, MAX_NAME_LEN))
    if part.isascii():
        return
    try:
        size = len(part.encode("utf-8"))
    except UnicodeEncodeError:
        raise InvalidArgument(
            "component %r is not encodable as UTF-8" % part) from None
    if size > MAX_NAME_LEN:
        raise NameTooLong("component %r exceeds %d bytes" % (part, MAX_NAME_LEN))


def basename_of(path: str) -> Tuple[List[str], str]:
    """Split into (parent components, final name); root is invalid."""
    parts = split_path(path)
    if not parts:
        raise InvalidArgument("operation requires a non-root path")
    name = parts.pop()
    return parts, name
