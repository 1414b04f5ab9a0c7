"""Exception taxonomy for the FFIS reproduction.

The taxonomy separates three very different kinds of failure:

* :class:`ApplicationCrash` and its subclasses — *expected experimental
  outcomes*.  When a fault-injection run raises one of these, the campaign
  runner records a ``CRASH`` outcome.  They model the application (or a
  library beneath it, such as the mini-HDF5 reader) aborting because
  corrupted state became unjustifiable.
* :class:`FFISError` — misuse of the framework itself (bad configuration,
  arming an injector twice, targeting an unknown primitive).  These are
  bugs in the experiment setup and are never swallowed by campaigns.
* :class:`VFSError` and subclasses — POSIX-style errors surfaced by the
  virtual file system (missing file, is-a-directory, ...).  Whether a
  particular ``VFSError`` counts as a crash outcome depends on whether the
  application under test handles it; unhandled ones propagate and are
  classified as crashes by the campaign runner.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this package."""


class FFISError(ReproError):
    """Misuse of the FFIS framework (configuration or sequencing bug)."""


class ConfigError(FFISError):
    """A user configuration could not be validated."""


class ApplicationCrash(ReproError):
    """An application under test terminated before producing its output.

    Campaigns catch this (and any other unhandled exception escaping the
    application callable) and record a ``CRASH`` outcome.
    """


class FormatError(ApplicationCrash):
    """A structured file (mini-HDF5 / mini-FITS) failed validation.

    Raised by the strict readers when a signature, version number, message
    type, or structural size check fails -- the same condition under which
    the real HDF5 library throws and the paper records a crash.
    """


class VFSError(ReproError, OSError):
    """POSIX-style error from the virtual file system."""

    errno_name = "EIO"


class FileNotFound(VFSError):
    errno_name = "ENOENT"


class FileExists(VFSError):
    errno_name = "EEXIST"


class NotADirectory(VFSError):
    errno_name = "ENOTDIR"


class IsADirectory(VFSError):
    errno_name = "EISDIR"


class DirectoryNotEmpty(VFSError):
    errno_name = "ENOTEMPTY"


class BadFileDescriptor(VFSError):
    errno_name = "EBADF"


class NotMounted(FFISError):
    """An I/O primitive was invoked on an unmounted FFIS file system."""
