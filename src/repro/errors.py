"""Exception hierarchy for the C-FFS reproduction.

File system errors deliberately mirror POSIX errno semantics so that the
workloads and examples can treat FFS and C-FFS uniformly.
"""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class DiskError(ReproError):
    """Base class for simulated-disk errors."""


class AddressError(DiskError):
    """A sector or block address fell outside the device."""


class MediaError(DiskError):
    """A permanent (hard) media fault: the sector is gone for good."""


class MediaReadError(MediaError):
    """A read hit an unreadable sector (uncorrectable ECC)."""


class MediaWriteError(MediaError):
    """A write failed permanently; part of an extent may have landed."""


class ChecksumError(MediaError):
    """A read returned data whose CRC disagrees with the sidecar.

    Raised by the resilience layer *instead of* returning the bytes, so
    torn or bit-rotted blocks are detected — never silently installed
    into the buffer cache.
    """


class TransientDiskError(DiskError):
    """A recoverable fault (timeout, recalibration); retrying may succeed."""


class DeviceDegraded(DiskError):
    """The device refused a request because its health no longer allows
    it (spare pool gone, retry budget exhausted, or FAILED outright)."""


class PowerLoss(DiskError):
    """Power was cut; the device accepts no further requests."""


class FileSystemError(ReproError):
    """Base class for file system errors (POSIX-flavoured)."""

    errno_name = "EIO"


class FileNotFound(FileSystemError):
    """Path component does not exist (ENOENT)."""

    errno_name = "ENOENT"


class FileExists(FileSystemError):
    """Target name already exists (EEXIST)."""

    errno_name = "EEXIST"


class NotADirectory(FileSystemError):
    """A non-directory appeared where a directory was required (ENOTDIR)."""

    errno_name = "ENOTDIR"


class IsADirectory(FileSystemError):
    """A directory appeared where a file was required (EISDIR)."""

    errno_name = "EISDIR"


class DirectoryNotEmpty(FileSystemError):
    """rmdir of a non-empty directory (ENOTEMPTY)."""

    errno_name = "ENOTEMPTY"


class NoSpace(FileSystemError):
    """The file system is out of blocks or inodes (ENOSPC)."""

    errno_name = "ENOSPC"


class InvalidArgument(FileSystemError):
    """Bad offset, name, or flag combination (EINVAL)."""

    errno_name = "EINVAL"


class NameTooLong(FileSystemError):
    """A path component exceeds the maximum name length (ENAMETOOLONG)."""

    errno_name = "ENAMETOOLONG"


class BadFileDescriptor(FileSystemError):
    """Operation on a closed or unknown file descriptor (EBADF)."""

    errno_name = "EBADF"


class ReadOnlyFileSystem(FileSystemError):
    """A mutating operation reached a volume demoted to read-only
    service (EROFS) — the graceful-degradation alternative to dying
    when the storage below can no longer absorb writes."""

    errno_name = "EROFS"


class CorruptFileSystem(FileSystemError):
    """An on-disk structure failed a sanity check."""

    errno_name = "EIO"


class UnknownFormat(CorruptFileSystem):
    """Block 0's magic names no file-system format this package reads."""


class JournalCorrupt(FileSystemError):
    """The on-disk journal failed a structural check (bad magic, CRC
    mismatch on the header, impossible geometry).  The committed state
    of the volume is still intact — only log replay is unavailable."""

    errno_name = "EIO"


class ReplayError(FileSystemError):
    """Journal replay could not be applied (a committed record names a
    block outside the volume, or the log contradicts itself)."""

    errno_name = "EIO"


class LintError(ReproError):
    """A source file handed to reprolint could not be read or parsed."""
