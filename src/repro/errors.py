"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch the whole family with a single ``except`` clause while
still being able to distinguish the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class CryptoError(ReproError):
    """Base class for errors in the crypto substrate."""


class InvalidKeyError(CryptoError):
    """A key has the wrong length or structure."""


class InvalidBlockSizeError(CryptoError):
    """Plaintext or ciphertext is not a multiple of the cipher block size."""


class PaddingError(CryptoError):
    """PKCS#7 padding is malformed on decryption."""


class StorageError(ReproError):
    """Base class for errors in the storage substrate."""


class BlockOutOfRangeError(StorageError):
    """A block index falls outside the storage volume."""


class BlockSizeMismatchError(StorageError):
    """A buffer written to the disk does not match the block size."""


class SnapshotMismatchError(StorageError):
    """Two snapshots being compared come from different volumes."""


class BackendClosedError(StorageError):
    """A block backend was accessed after :meth:`close`."""


class VolumeFileError(StorageError):
    """A file opened as a durable volume does not have a volume's shape."""


class JournalError(StorageError):
    """The durable plan journal is unusable (unbound, full, closed or malformed)."""


class InjectedCrashError(StorageError):
    """A fault-injecting backend killed execution at its armed device call.

    Raised by :class:`~repro.storage.backend.FaultInjectingBackend` to
    model the process dying mid-plan; everything the backend applied
    before the crash stays on the device (including a torn block), and
    every later access raises this error again — a dead process issues
    no further I/O.
    """


class FileSystemError(ReproError):
    """Base class for errors in the file-system layers."""


class VolumeFullError(FileSystemError):
    """No free block could be allocated."""


class HiddenFileNotFoundError(FileSystemError):
    """A hidden file could not be located from the supplied FAK/path."""


class HiddenFileExistsError(FileSystemError):
    """A hidden file already exists at the target path."""


class AccessDeniedError(FileSystemError):
    """The supplied access key does not open the target file."""


class IntegrityError(FileSystemError):
    """Decrypted content failed an integrity check (wrong key or corruption)."""


class AgentError(ReproError):
    """Base class for errors in the agent layer."""


class NotLoggedInError(AgentError):
    """A volatile-agent operation referenced a user who is not logged in."""


class UnknownFileError(AgentError):
    """The agent was asked to operate on a file it has no key for."""


class ConcurrentAccessError(AgentError):
    """Two agent operations overlapped without external serialization.

    The agents are deliberately single-threaded (see the locking
    contract in :mod:`repro.core.agent`); concurrent callers must go
    through :class:`repro.service.ConcurrentVolumeService`, which
    serializes every operation behind its scheduler.
    """


class ObliviousStorageError(ReproError):
    """Base class for errors in the oblivious storage."""


class LevelFullError(ObliviousStorageError):
    """A level overflowed without being dumped (internal invariant violation)."""


class BlockNotCachedError(ObliviousStorageError):
    """A block requested from the oblivious store is not present in any level."""


class ServiceError(ReproError):
    """Base class for errors raised by the service facade."""


class ServiceClosedError(ServiceError):
    """An operation was issued on a service after :meth:`close`."""


class SessionClosedError(ServiceError):
    """An operation was issued on a session after it logged out."""


class SessionConflictError(ServiceError):
    """A user tried to open a second concurrent session under the same name."""


class ByteRangeError(ServiceError):
    """A byte-granular read/write fell outside the file's current extent."""


class WorkloadError(ReproError):
    """Base class for errors in workload generation."""


class SimulationError(ReproError):
    """Base class for errors in the simulation engine."""
