"""Exception hierarchy for the ROS reproduction.

Every subsystem raises a subclass of :class:`ROSError`; POSIX-visible
failures carry an ``errno``-style name so the OLFS interface layer can
translate them the way a FUSE daemon would.
"""

from __future__ import annotations


class ROSError(Exception):
    """Base class for every error raised by the repro package."""


# ----------------------------------------------------------------------
# Media / drives / mechanics
# ----------------------------------------------------------------------
class MediaError(ROSError):
    """Problems with optical discs themselves."""


class WormViolationError(MediaError):
    """Attempt to rewrite a burned region of a write-once disc."""


class DiscFullError(MediaError):
    """Burn would exceed the disc's capacity."""


class SectorError(MediaError):
    """An unrecoverable sector read error (bit rot / scratch)."""

    def __init__(self, disc_id: str, sector: int):
        super().__init__(f"unreadable sector {sector} on disc {disc_id}")
        self.disc_id = disc_id
        self.sector = sector


class DriveError(ROSError):
    """Optical-drive state machine violations (no disc, busy, ...)."""


class MechanicsError(ROSError):
    """Robotic arm / roller / PLC faults."""


class PLCFaultError(MechanicsError):
    """A PLC instruction failed its sensor feedback check."""


# ----------------------------------------------------------------------
# Storage tier
# ----------------------------------------------------------------------
class StorageError(ROSError):
    """Block device and RAID failures."""


class DeviceFailedError(StorageError):
    """I/O against a failed block device."""


class RaidDegradedError(StorageError):
    """Too many member failures for the RAID level to recover."""


# ----------------------------------------------------------------------
# File systems
# ----------------------------------------------------------------------
class FilesystemError(ROSError):
    """Base for UDF/OLFS file system errors; carries a POSIX errno name."""

    errno_name = "EIO"


class FileNotFoundOLFSError(FilesystemError):
    errno_name = "ENOENT"


class FileExistsOLFSError(FilesystemError):
    errno_name = "EEXIST"


class NotADirectoryOLFSError(FilesystemError):
    errno_name = "ENOTDIR"


class IsADirectoryOLFSError(FilesystemError):
    errno_name = "EISDIR"


class NoSpaceOLFSError(FilesystemError):
    errno_name = "ENOSPC"


class ReadOnlyOLFSError(FilesystemError):
    errno_name = "EROFS"


class InvalidPathError(FilesystemError):
    errno_name = "EINVAL"


class TimeoutOLFSError(FilesystemError):
    """A read could not be served before the client-visible timeout."""

    errno_name = "ETIMEDOUT"


# ----------------------------------------------------------------------
# Serving layer (repro.serve)
# ----------------------------------------------------------------------
class ServeError(ROSError):
    """Base for failures in the multi-tenant serving layer."""


class AdmissionRejectedError(ServeError):
    """Backpressure: the tenant's admission queue (or the rack) is full."""


class AdmissionTimeoutError(ServeError):
    """A queued request outlived its admission deadline."""


class LinkDownError(ServeError):
    """The 10GbE link is flapped down; the request never reached the rack."""


class SessionDisconnectedError(ServeError):
    """The client session dropped before the operation could be issued."""


# ----------------------------------------------------------------------
# Fleet layer (repro.fleet)
# ----------------------------------------------------------------------
class FleetError(ROSError):
    """Base for failures in the geo-distributed fleet layer."""


class RackLostError(FleetError):
    """The targeted shard rack is down (or destroyed); the shard op failed."""


class ShardUnavailableError(FleetError):
    """The requested shard is not present on the rack that should hold it."""


class ObjectUnrecoverableError(FleetError):
    """Fewer than ``k`` shards of an erasure-coded object survive."""
