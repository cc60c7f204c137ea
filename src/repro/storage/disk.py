"""The simulated raw block device.

This is the substitute for the paper's physical disk (Table 1).  It
charges access latency through a pluggable
:class:`~repro.storage.latency.DiskLatencyModel`, counts I/O operations,
and records every request into an
:class:`~repro.storage.trace.IoTrace` so that attackers can observe the
same things they could observe against the real system.  The block bytes
themselves live behind a pluggable
:class:`~repro.storage.backend.BlockBackend`: in memory by default, or a
durable memory-mapped volume file
(:class:`~repro.storage.backend.MmapFileBackend`).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Sequence, TypeVar

import numpy as np

from repro.errors import (
    BackendClosedError,
    BlockOutOfRangeError,
    BlockSizeMismatchError,
    VolumeFileError,
)
from repro.storage.backend import BlockBackend, MemoryBackend
from repro.storage.latency import DiskLatencyModel
from repro.storage.trace import IoTrace, Operation

KIB = 1024
MIB = 1024 * 1024
GIB = 1024 * 1024 * 1024

_T = TypeVar("_T")


def _index_list(indices: Iterable[int]) -> list[int]:
    """Block indices as a list of ints (shared by the batched paths)."""
    if isinstance(indices, np.ndarray):
        return indices.astype(np.int64, copy=False).tolist()
    return list(map(int, indices))


def _interleave(first: Sequence[_T], second: Sequence[_T]) -> list[_T]:
    """``[first[0], second[0], first[1], second[1], ...]``."""
    both = list(first) * 2
    both[0::2] = first
    both[1::2] = second
    return both


@dataclass(frozen=True)
class StorageGeometry:
    """Size parameters of a raw storage volume.

    The paper's workload (Table 2) uses 4 KB blocks on a 1 GB volume;
    benchmarks scale the volume down while keeping the block size.
    """

    block_size: int = 4 * KIB
    num_blocks: int = (1 * GIB) // (4 * KIB)

    def __post_init__(self) -> None:
        if self.block_size <= 0:
            raise ValueError("block_size must be positive")
        if self.num_blocks <= 0:
            raise ValueError("num_blocks must be positive")

    @property
    def capacity_bytes(self) -> int:
        """Total capacity of the volume in bytes."""
        return self.block_size * self.num_blocks

    @classmethod
    def from_capacity(cls, capacity_bytes: int, block_size: int = 4 * KIB) -> "StorageGeometry":
        """Build a geometry holding at least ``capacity_bytes``.

        A capacity that is not a multiple of the block size rounds *up*
        to the next whole block, so the volume always honours the
        "at least" contract.  A non-positive capacity is a caller bug
        (it used to be silently clamped to one block) and raises.
        """
        if capacity_bytes <= 0:
            raise ValueError(f"capacity_bytes must be positive, got {capacity_bytes}")
        num_blocks = -(-capacity_bytes // block_size)
        return cls(block_size=block_size, num_blocks=num_blocks)


@dataclass
class IoCounters:
    """Aggregate I/O accounting maintained by :class:`RawStorage`."""

    reads: int = 0
    writes: int = 0
    read_time_ms: float = 0.0
    write_time_ms: float = 0.0

    @property
    def total_ops(self) -> int:
        return self.reads + self.writes

    @property
    def total_time_ms(self) -> float:
        return self.read_time_ms + self.write_time_ms

    def snapshot(self) -> "IoCounters":
        """An independent copy, useful for measuring deltas."""
        return IoCounters(self.reads, self.writes, self.read_time_ms, self.write_time_ms)

    def delta(self, earlier: "IoCounters") -> "IoCounters":
        """Counters accumulated since ``earlier`` was captured."""
        return IoCounters(
            reads=self.reads - earlier.reads,
            writes=self.writes - earlier.writes,
            read_time_ms=self.read_time_ms - earlier.read_time_ms,
            write_time_ms=self.write_time_ms - earlier.write_time_ms,
        )


class RawStorage:
    """In-memory simulated block device with latency accounting.

    Parameters
    ----------
    geometry:
        Block size and block count.
    latency:
        Latency model; defaults to a paper-era ATA disk.
    trace:
        Optional trace to record requests into; a fresh one is created
        when omitted.
    backend:
        Block backend owning the bytes; defaults to a fresh
        :class:`~repro.storage.backend.MemoryBackend` (the historical,
        volatile behaviour).  Must match ``geometry``.
    """

    def __init__(
        self,
        geometry: StorageGeometry,
        latency: DiskLatencyModel | None = None,
        trace: IoTrace | None = None,
        backend: BlockBackend | None = None,
    ):
        self.geometry = geometry
        self.latency = latency if latency is not None else DiskLatencyModel()
        self.trace = trace if trace is not None else IoTrace()
        self.counters = IoCounters()
        self.clock_ms = 0.0
        if backend is None:
            backend = MemoryBackend(geometry.block_size, geometry.num_blocks)
        elif (
            backend.block_size != geometry.block_size
            or backend.num_blocks != geometry.num_blocks
        ):
            raise VolumeFileError(
                f"backend of {backend.num_blocks} x {backend.block_size}-byte blocks "
                f"does not match geometry of {geometry.num_blocks} x "
                f"{geometry.block_size}-byte blocks"
            )
        self.backend = backend
        # The disk has a single head: sequentiality is judged against the
        # last accessed block regardless of which request stream touched it.
        # This is what makes interleaved multi-user workloads lose the
        # sequential-I/O advantage (Figures 10(b) and 11(c)).
        self._head_position: int | None = None

    # -- initialisation --------------------------------------------------------

    def fill_random(self, seed: int = 0) -> None:
        """Fill the whole volume with pseudo-random bytes.

        The paper initialises a StegFS volume by filling blocks with
        random data so that abandoned blocks, dummy blocks and encrypted
        data blocks are indistinguishable.  A numpy generator is used
        because the volume can be hundreds of megabytes.
        """
        self._check_open()
        self.backend.fill_random(seed)

    # -- block access ----------------------------------------------------------

    def _check_open(self) -> None:
        """Fail fast — and before any accounting — once the backend is closed.

        Without this, a request against a closed volume would bump the
        counters, advance the clock and append a trace event before the
        backend finally raised, leaving phantom I/O in the observable
        record.
        """
        if self.backend.closed:
            raise BackendClosedError("storage volume is closed")

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.geometry.num_blocks:
            raise BlockOutOfRangeError(
                f"block {index} outside volume of {self.geometry.num_blocks} blocks"
            )

    def _charge(self, index: int, stream: str) -> float:
        cost = self.latency.cost_ms(self._head_position, index)
        self._head_position = index
        self.clock_ms += cost
        return cost

    def read_block(self, index: int, stream: str = "default") -> bytes:
        """Read one block, charging latency and recording the request."""
        self._check_open()
        self._check_index(index)
        cost = self._charge(index, stream)
        self.counters.reads += 1
        self.counters.read_time_ms += cost
        self.trace.record("read", index, self.clock_ms, stream)
        return self.backend.read(index)

    def write_block(self, index: int, data: bytes, stream: str = "default") -> None:
        """Write one block, charging latency and recording the request."""
        self._check_open()
        self._check_index(index)
        if len(data) != self.geometry.block_size:
            raise BlockSizeMismatchError(
                f"write of {len(data)} bytes to a {self.geometry.block_size}-byte block"
            )
        cost = self._charge(index, stream)
        self.counters.writes += 1
        self.counters.write_time_ms += cost
        self.trace.record("write", index, self.clock_ms, stream)
        self.backend.write(index, data)

    # -- batched block access ---------------------------------------------------
    #
    # The batched calls are *observationally identical* to a loop of the
    # single-block calls above: every access is charged by the same
    # ``latency.cost_ms`` against the shared head position, and clock and
    # counters add each cost with ``+=`` in loop order, so they round
    # exactly as the loop does and every trace event carries the same
    # timestamp.  What a batch saves is per-call overhead: one plain-Python
    # pass over the batch (serving batches carry one to a few blocks, where
    # numpy's fixed per-operation cost would dominate), one ``record_many``
    # append and one backend gather/scatter.  A one-block ``read_blocks``
    # costs about 15 µs and a one-cycle ``read_write_blocks`` about 20 µs
    # on a 2-vCPU Xeon VM, against 3–6 µs for a ``read_block`` or
    # ``write_block``; the pass adds about 0.5 µs per further access, so
    # batches of hundreds of blocks cost more than a vectorized pass
    # would.  Unlike the single-block loop, every index, data size and
    # stream count is validated before anything happens, so a failed
    # batched call leaves no partial side effects behind.
    #
    # ``stream`` may be a single name shared by the whole batch or a
    # sequence of per-block names: the concurrent serving engine coalesces
    # adjacent requests of *different* sessions into one batched call while
    # keeping per-session trace attribution intact.

    def _check_batch(
        self,
        indices: list[int],
        datas: Sequence[bytes] | None,
        streams: str | Sequence[str] = "",
    ) -> None:
        count = len(indices)
        if not isinstance(streams, str) and len(streams) != count:
            raise ValueError(f"{count} indices but {len(streams)} streams")
        num_blocks = self.geometry.num_blocks
        for index in indices:
            if not 0 <= index < num_blocks:
                raise BlockOutOfRangeError(f"block {index} outside volume of {num_blocks} blocks")
        if datas is not None:
            if len(datas) != count:
                raise ValueError(f"{count} indices but {len(datas)} data blocks")
            block_size = self.geometry.block_size
            for data in datas:
                if len(data) != block_size:
                    raise BlockSizeMismatchError(
                        f"write of {len(data)} bytes to a {block_size}-byte block"
                    )

    def _account(
        self, op: Operation | list[Operation], accesses: list[int], stream: str | Sequence[str]
    ) -> None:
        """Charge, count and trace each access in order, as the single-block calls do."""
        ops = [op] * len(accesses) if isinstance(op, str) else op
        cost_ms = self.latency.cost_ms
        counters = self.counters
        head, clock = self._head_position, self.clock_ms
        reads, read_ms = counters.reads, counters.read_time_ms
        writes, write_ms = counters.writes, counters.write_time_ms
        times = []
        for name, index in zip(ops, accesses, strict=True):
            cost = cost_ms(head, index)
            head = index
            clock += cost
            if name == "read":
                reads += 1
                read_ms += cost
            else:
                writes += 1
                write_ms += cost
            times.append(clock)
        self._head_position, self.clock_ms = head, clock
        counters.reads, counters.read_time_ms = reads, read_ms
        counters.writes, counters.write_time_ms = writes, write_ms
        self.trace.record_many(op, accesses, times, stream)

    def read_blocks(
        self, indices: Iterable[int], stream: str | Sequence[str] = "default"
    ) -> list[bytes]:
        """Read many blocks in one call; equivalent to a loop of :meth:`read_block`."""
        self._check_open()
        targets = _index_list(indices)
        self._check_batch(targets, None, stream)
        if not targets:
            return []
        self._account("read", targets, stream)
        return self.backend.read_many(np.array(targets, dtype=np.int64))

    def write_blocks(
        self,
        indices: Iterable[int],
        datas: Sequence[bytes],
        stream: str | Sequence[str] = "default",
    ) -> None:
        """Write many blocks in one call; equivalent to a loop of :meth:`write_block`."""
        self._check_open()
        targets = _index_list(indices)
        datas = list(datas)
        self._check_batch(targets, datas, stream)
        if not targets:
            return
        self._account("write", targets, stream)
        self.backend.write_many(np.array(targets, dtype=np.int64), datas)

    def read_write_blocks(
        self,
        indices: Iterable[int],
        datas: Sequence[bytes] | None = None,
        stream: str | Sequence[str] = "default",
        write_indices: Iterable[int] | None = None,
    ) -> None:
        """Charge an interleaved read+write *cycle* per entry, in one call.

        Equivalent to ``for r, w, d in zip(indices, write_indices,
        datas): read_block(r); write_block(w, d)`` with the read results
        discarded.  ``write_indices`` defaults to ``indices`` — the
        historical rewrite-in-place shape; a Figure-6 swap passes the
        update's target as the write index instead.  ``stream`` may be
        one name or a per-cycle sequence (both events of a cycle carry
        its label), which is what keeps per-session trace attribution
        intact when the concurrent engine fuses cycles across sessions.
        When ``datas`` is None every block is rewritten with its current
        content — a pure charging pass, which is what the oblivious
        store's non-final merge-sort passes need.
        """
        self._check_open()
        read_idx = _index_list(indices)
        if datas is not None:
            datas = list(datas)
        if write_indices is None:
            write_idx = read_idx
        else:
            if datas is None:
                raise ValueError("write_indices requires datas")
            write_idx = _index_list(write_indices)
            if len(write_idx) != len(read_idx):
                raise ValueError(f"{len(read_idx)} read indices but {len(write_idx)} write indices")
        self._check_batch(read_idx, None, stream)
        self._check_batch(write_idx, datas)
        if not read_idx:
            return
        if datas is not None and self._cycles_collide(read_idx, write_idx):
            # A later cycle touching an earlier cycle's block must
            # observe the earlier write; only the genuine loop
            # preserves that.
            streams = [stream] * len(read_idx) if isinstance(stream, str) else list(stream)
            for r, w, data, label in zip(read_idx, write_idx, datas, streams, strict=True):
                self.read_block(r, label)
                self.write_block(w, data, label)
            return
        # The head serves each cycle as two back-to-back accesses: read
        # the source, write the target.
        accesses = _interleave(read_idx, write_idx)
        event_streams = stream if isinstance(stream, str) else _interleave(stream, stream)
        self._account(["read", "write"] * len(read_idx), accesses, event_streams)
        if datas is not None:
            self.backend.write_many(np.array(write_idx, dtype=np.int64), datas)

    @staticmethod
    def _cycles_collide(read_idx: list[int], write_idx: list[int]) -> bool:
        """Whether any block participates in more than one read/write cycle.

        A block shared *within* one cycle (read == write, the in-place
        shape) is fine; a block appearing in two different cycles is a
        read-after-write or write-after-write hazard that the batched
        schedule cannot honour, so the caller falls back to the loop.
        """
        # Distinct blocks over all cycles fall short of the per-cycle
        # count (two, or one for an in-place cycle) exactly on a hazard.
        in_place = sum(map(operator.eq, read_idx, write_idx))
        return len(set(read_idx).union(write_idx)) + in_place != 2 * len(read_idx)

    def peek_block(self, index: int) -> bytes:
        """Read block bytes *without* charging latency or recording a request.

        This models an attacker scanning a snapshot of the raw device, or
        internal bookkeeping that would not generate device I/O; regular
        file-system code paths must use :meth:`read_block`.
        """
        self._check_open()
        self._check_index(index)
        return self.backend.read(index)

    def raw_bytes(self) -> bytes:
        """A copy of the whole volume (used by snapshots)."""
        self._check_open()
        return self.backend.raw_bytes()

    # -- durability --------------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether the backend has been closed."""
        return self.backend.closed

    def flush(self) -> None:
        """Push pending bytes to durable storage (a no-op for memory backends)."""
        self._check_open()
        self.backend.flush()

    def close(self) -> None:
        """Close the backend; later block access raises ``BackendClosedError``.

        Closing is idempotent.  The accounting half (counters, clock,
        trace) stays readable — an experiment can analyse its trace
        after the volume is closed.
        """
        if not self.backend.closed:
            self.backend.close()

    def __enter__(self) -> "RawStorage":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- bookkeeping ------------------------------------------------------------

    def reset_counters(self) -> None:
        """Zero the I/O counters and the clock (the trace is left intact)."""
        self.counters = IoCounters()
        self.clock_ms = 0.0
        self._head_position = None

    def reset_head_position(self) -> None:
        """Forget the head position (forces the next access to pay a full seek)."""
        self._head_position = None
