"""Pluggable block backends: who owns the volume's bytes.

:class:`~repro.storage.disk.RawStorage` is split into two halves.  The
*accounting* half (latency model, I/O counters, columnar trace) stays in
``RawStorage``; the *bytes* live behind the :class:`BlockBackend`
protocol defined here, with two implementations:

* :class:`MemoryBackend` — the historical behaviour: a numpy-viewed
  ``bytearray`` that dies with the process.  This is the default and is
  bit-identical to the pre-split ``RawStorage`` (same data movement,
  same ``fill_random`` stream).
* :class:`MmapFileBackend` — a single flat file of
  ``num_blocks * block_size`` bytes, memory-mapped.  This makes the
  paper's threat model literal: the volume file *is* the seized disk
  (nothing but encrypted blocks and random bytes is ever written to it),
  and it survives process restarts so an owner can come back later and
  recover the hidden files from a keyring
  (:meth:`repro.service.HiddenVolumeService.open`).

The backend is deliberately dumb: no latency, no counters, no trace.
Every accounted access still goes through ``RawStorage``; the backend
only moves bytes.
"""

from __future__ import annotations

import mmap
import os
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.errors import BackendClosedError, InjectedCrashError, VolumeFileError

if TYPE_CHECKING:
    from repro.storage.disk import StorageGeometry


@runtime_checkable
class BlockBackend(Protocol):
    """Minimal byte-owner interface ``RawStorage`` accounts on top of.

    Implementations hold exactly ``num_blocks * block_size`` bytes and
    move them without charging latency or recording traces — that is the
    storage layer's job.  ``read_many``/``write_many`` must be
    observationally identical to loops of ``read``/``write`` (last
    writer wins on duplicate indices).
    """

    @property
    def block_size(self) -> int:
        """Bytes per block."""

    @property
    def num_blocks(self) -> int:
        """Number of addressable blocks."""

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has been called."""

    def read(self, index: int) -> bytes:
        """Raw bytes of one block."""

    def write(self, index: int, data: bytes) -> None:
        """Overwrite one block."""

    def read_many(self, indices: np.ndarray) -> list[bytes]:
        """Raw bytes of many blocks, in order."""

    def write_many(self, indices: np.ndarray, datas: Sequence[bytes]) -> None:
        """Overwrite many blocks (duplicate indices: last writer wins)."""

    def fill_random(self, seed: int = 0) -> None:
        """Fill the whole volume with pseudo-random bytes (formatting)."""

    def raw_bytes(self) -> bytes:
        """An independent copy of the whole volume."""

    def flush(self) -> None:
        """Push pending bytes to durable storage (no-op for memory)."""

    def close(self) -> None:
        """Release the bytes; every later access raises ``BackendClosedError``."""


class _ArrayBackend:
    """Shared numpy data movement for backends exposing a (blocks, bytes) view.

    Subclasses set ``self._view`` to a writable ``(num_blocks,
    block_size)`` uint8 array; the movement code here is lifted verbatim
    from the pre-split ``RawStorage`` so the bytes produced (including
    the ``fill_random`` stream) are bit-identical.
    """

    _view: np.ndarray | None

    def __init__(self, block_size: int, num_blocks: int):
        if block_size <= 0 or num_blocks <= 0:
            raise ValueError("block_size and num_blocks must be positive")
        self._block_size = block_size
        self._num_blocks = num_blocks
        self._view = None

    @property
    def block_size(self) -> int:
        return self._block_size

    @property
    def num_blocks(self) -> int:
        return self._num_blocks

    @property
    def closed(self) -> bool:
        return self._view is None

    def _blocks(self) -> np.ndarray:
        if self._view is None:
            raise BackendClosedError(f"{type(self).__name__} is closed")
        return self._view

    def read(self, index: int) -> bytes:
        return self._blocks()[index].tobytes()

    def write(self, index: int, data: bytes) -> None:
        self._blocks()[index] = np.frombuffer(data, dtype=np.uint8)

    def read_many(self, indices: np.ndarray) -> list[bytes]:
        block_size = self._block_size
        flat = self._blocks()[indices].tobytes()
        return [flat[i * block_size : (i + 1) * block_size] for i in range(indices.size)]

    def write_many(self, indices: np.ndarray, datas: Sequence[bytes]) -> None:
        view = self._blocks()
        rows = np.frombuffer(b"".join(datas), dtype=np.uint8).reshape(
            indices.size, self._block_size
        )
        if len(set(indices.tolist())) == indices.size:
            view[indices] = rows
        else:
            # Duplicate targets: apply in order so the last writer wins,
            # exactly as the single-block loop would.
            for row, index in enumerate(indices.tolist()):
                view[index] = rows[row]

    def fill_random(self, seed: int = 0) -> None:
        # repro-lint: ignore[ENT001] -- seeded, deterministic volume formatting; not a crypto path
        rng = np.random.default_rng(seed)
        flat = self._blocks().reshape(-1)
        flat[:] = rng.integers(0, 256, size=flat.size, dtype=np.uint8)

    def raw_bytes(self) -> bytes:
        return self._blocks().tobytes()

    def flush(self) -> None:
        self._blocks()

    def close(self) -> None:
        self._view = None


class MemoryBackend(_ArrayBackend):
    """The historical in-memory volume: fast, volatile, default."""

    def __init__(self, block_size: int, num_blocks: int):
        super().__init__(block_size, num_blocks)
        self._view = np.zeros((num_blocks, block_size), dtype=np.uint8)

    @classmethod
    def for_geometry(cls, geometry: "StorageGeometry") -> "MemoryBackend":
        """Build a backend matching a :class:`~repro.storage.disk.StorageGeometry`."""
        return cls(geometry.block_size, geometry.num_blocks)


class MmapFileBackend(_ArrayBackend):
    """A durable volume: one flat memory-mapped file of raw blocks.

    The file contains *only* the ``num_blocks * block_size`` block bytes
    — no magic, no superblock, no allocation table.  Geometry, the
    service seed and the users' key rings are credentials the owner
    keeps elsewhere; an adversary seizing the file sees nothing but
    random-looking bytes (``tests/test_seized_disk.py`` pins this).

    Use :meth:`create` to format a new volume file and :meth:`open` to
    map an existing one; :meth:`flush` forces the dirty pages out and
    :meth:`close` unmaps (flushing first).
    """

    def __init__(self, path: str | os.PathLike, block_size: int, num_blocks: int, *, _fd: int):
        super().__init__(block_size, num_blocks)
        self._path = os.fspath(path)
        try:
            self._file = os.fdopen(_fd, "r+b")
        except BaseException:
            os.close(_fd)
            raise
        try:
            self._mmap = mmap.mmap(self._file.fileno(), block_size * num_blocks)
        except BaseException:
            self._file.close()
            raise
        self._view = np.frombuffer(self._mmap, dtype=np.uint8).reshape(num_blocks, block_size)

    @property
    def path(self) -> str:
        """Filesystem location of the volume file."""
        return self._path

    @classmethod
    def create(
        cls, path: str | os.PathLike, block_size: int, num_blocks: int
    ) -> "MmapFileBackend":
        """Format a new volume file of exactly ``num_blocks * block_size`` bytes.

        Refuses to clobber an existing file (``FileExistsError``): a
        volume file is indistinguishable from random bytes, so silently
        truncating one would destroy hidden data without any way to
        notice.  The fresh file is zero-filled; formatting it to random
        bytes is the caller's job (``RawStorage.fill_random``, which the
        service's create path always performs).
        """
        if block_size <= 0 or num_blocks <= 0:
            raise ValueError("block_size and num_blocks must be positive")
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o600)
        try:
            os.ftruncate(fd, block_size * num_blocks)
        except BaseException:
            os.close(fd)
            os.unlink(path)
            raise
        try:
            # The constructor owns (and on failure closes) the fd from
            # here on; a half-formatted file must not survive, or a
            # retry would hit the clobber guard above for a file that
            # holds no volume.
            return cls(path, block_size, num_blocks, _fd=fd)
        except BaseException:
            os.unlink(path)
            raise

    @classmethod
    def open(cls, path: str | os.PathLike, block_size: int = 4096) -> "MmapFileBackend":
        """Map an existing volume file, inferring the block count from its size.

        The file carries no metadata, so the block size is part of the
        owner's credentials; a file whose size is not a positive
        multiple of ``block_size`` cannot be a volume formatted with it
        (:class:`~repro.errors.VolumeFileError`).
        """
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        fd = os.open(path, os.O_RDWR)
        try:
            size = os.fstat(fd).st_size
            if size == 0 or size % block_size != 0:
                raise VolumeFileError(
                    f"{os.fspath(path)!r} is {size} bytes, not a positive multiple "
                    f"of the {block_size}-byte block size"
                )
        except BaseException:
            os.close(fd)
            raise
        return cls(path, block_size, size // block_size, _fd=fd)

    def flush(self) -> None:
        self._blocks()
        self._mmap.flush()

    def close(self) -> None:
        if self._view is None:
            return
        # The numpy view exports the mmap's buffer; drop it first or
        # mmap.close() raises BufferError.  It also marks the backend
        # closed immediately, so a flush failure (ENOSPC, EIO) still
        # leaves close() idempotent: the mapping and the fd are released
        # either way and only the original error surfaces.
        self._view = None
        try:
            self._mmap.flush()
        finally:
            try:
                self._mmap.close()
            finally:
                self._file.close()


@dataclass(frozen=True)
class TornWrite:
    """How to tear the block write hit by an injected crash.

    ``block_offset`` picks which block of the batched write gets torn
    (earlier blocks land whole, later ones not at all — a sequential
    device dies mid-batch).  The torn block keeps the first
    ``keep_bytes`` of the new data (``None`` → half a block); the tail
    is the *old* tail, bit-flipped when ``flip_tail`` is set — the
    classic corrupt-sector shape where neither the old nor the new
    bytes survive intact.
    """

    block_offset: int = 0
    keep_bytes: int | None = None
    flip_tail: bool = True


class FaultInjectingBackend:
    """Kill execution at a chosen device call; optionally tear that write.

    Wraps any :class:`BlockBackend` and counts every ``read``/``write``/
    ``read_many``/``write_many`` invocation (one *device call* each —
    the unit a crash can fall between).  :meth:`arm` resets the counter
    and schedules a crash at call index ``crash_at``; the doomed call
    raises :class:`~repro.errors.InjectedCrashError` before touching
    the device, except that an armed :class:`TornWrite` lets a write
    call apply a deterministic partial batch first.  After the crash
    the backend plays dead: further block I/O raises again, while the
    forensic surface (``raw_bytes``/``flush``/``close``) keeps working
    so tests can image the "seized" device.

    Everything is deterministic — same workload, same ``crash_at``,
    same bytes — which is what lets hypothesis sweep every crash point
    of a plan.
    """

    def __init__(self, inner: BlockBackend):
        self.inner = inner
        self._state_lock = threading.Lock()
        self.calls = 0
        self.crashed = False
        self._crash_at: int | None = None
        self._torn: TornWrite | None = None

    def arm(self, crash_at: int, torn: TornWrite | None = None) -> None:
        """Schedule a crash at device-call index ``crash_at`` from now."""
        if crash_at < 0:
            raise ValueError(f"crash_at must be >= 0, got {crash_at}")
        with self._state_lock:
            self.calls = 0
            self.crashed = False
            self._crash_at = crash_at
            self._torn = torn

    def disarm(self) -> None:
        """Cancel any scheduled crash (the counter keeps running)."""
        with self._state_lock:
            self._crash_at = None
            self._torn = None

    @property
    def block_size(self) -> int:
        return self.inner.block_size

    @property
    def num_blocks(self) -> int:
        return self.inner.num_blocks

    @property
    def closed(self) -> bool:
        return self.inner.closed

    def _tick(self) -> bool:
        """Count one device call; return True when it is the doomed one."""
        with self._state_lock:
            if self.crashed:
                raise InjectedCrashError(
                    "backend crashed; the dead process issues no further I/O"
                )
            call, self.calls = self.calls, self.calls + 1
            if self._crash_at is not None and call == self._crash_at:
                self.crashed = True
                return True
            return False

    def _crash(self) -> InjectedCrashError:
        return InjectedCrashError(f"injected crash at device call {self.calls - 1}")

    def _tear(self, index: int, data: bytes, torn: TornWrite) -> bytes:
        old = self.inner.read(index)
        keep = len(data) // 2 if torn.keep_bytes is None else torn.keep_bytes
        keep = max(0, min(keep, len(data)))
        tail = old[keep:]
        if torn.flip_tail:
            tail = bytes(byte ^ 0xFF for byte in tail)
        return data[:keep] + tail

    def read(self, index: int) -> bytes:
        if self._tick():
            raise self._crash()
        return self.inner.read(index)

    def read_many(self, indices: np.ndarray) -> list[bytes]:
        if self._tick():
            raise self._crash()
        return self.inner.read_many(indices)

    def write(self, index: int, data: bytes) -> None:
        if self._tick():
            if self._torn is not None:
                self.inner.write(index, self._tear(index, data, self._torn))
            raise self._crash()
        self.inner.write(index, data)

    def write_many(self, indices: np.ndarray, datas: Sequence[bytes]) -> None:
        if self._tick():
            torn = self._torn
            if torn is not None and len(datas) > 0:
                cut = min(torn.block_offset, len(datas) - 1)
                for position in range(cut):
                    self.inner.write(int(indices[position]), datas[position])
                self.inner.write(int(indices[cut]), self._tear(int(indices[cut]), datas[cut], torn))
            raise self._crash()
        self.inner.write_many(indices, datas)

    def fill_random(self, seed: int = 0) -> None:
        self.inner.fill_random(seed)

    def raw_bytes(self) -> bytes:
        return self.inner.raw_bytes()

    def flush(self) -> None:
        self.inner.flush()

    def close(self) -> None:
        self.inner.close()
