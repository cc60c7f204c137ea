"""I/O traces: the observable the traffic-analysis attacker works from.

Section 3.2.2 of the paper: the second group of attackers "are able to
observe the I/O requests between the agent and the storage, either from
the activity log or by trapping requests directly at runtime".  An
:class:`IoTrace` is exactly that activity log — a sequence of
(operation, block index, stream, timestamp) events with no plaintext and
no knowledge of the agent's internal state.

The log is stored **columnar**: growable parallel numpy arrays for the
operation code, block index and timestamp, plus an interned stream-id
table.  Every query the attackers and figures run (`indices`,
`index_histogram`, `between`, `slice_by_stream`, ...) touches arrays,
not per-event Python objects, so million-event traces analyse in
milliseconds.  :class:`IoEvent` objects are materialised lazily — the
``events`` view, iteration and ``reads()``/``writes()`` build them on
demand — so existing per-event callers keep working unchanged.

Invariants (see EXPERIMENTS.md "Observability contract"):

* the trace is append-only; events are stored in arrival order;
* traces produced by the device layer are time-ordered (the simulated
  clock never runs backwards), which lets ``between`` binary-search;
  hand-built traces may be unordered and fall back to a mask scan with
  identical results;
* single-block and batched device paths append identical events;
* appends are serialized behind an internal lock and publish the new
  size *after* the rows are written, so an observer capturing from
  another thread (``TraceObserver`` under the concurrent engine) sees
  a consistent prefix of the trace — never a torn row.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Literal, Sequence

import numpy as np

Operation = Literal["read", "write"]

#: Column codes for the two operations; ``op_column()`` yields these.
OP_READ = 0
OP_WRITE = 1

_OP_CODES = {"read": OP_READ, "write": OP_WRITE}
_OP_NAMES = ("read", "write")

_INITIAL_CAPACITY = 1024


@dataclass(frozen=True)
class IoEvent:
    """One observed I/O request between the agent and the raw storage."""

    op: Operation
    index: int
    time_ms: float
    stream: str = "default"


class _EventsView(Sequence):
    """Lazy, read-only sequence of :class:`IoEvent` over a trace's columns."""

    def __init__(self, trace: "IoTrace"):
        self._trace = trace

    def __len__(self) -> int:
        return len(self._trace)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return [
                self._trace._event_at(i)
                for i in range(*item.indices(len(self._trace)))
            ]
        size = len(self._trace)
        index = item + size if item < 0 else item
        if not 0 <= index < size:
            raise IndexError(f"event {item} out of range for trace of {size} events")
        return self._trace._event_at(index)

    def __iter__(self) -> Iterator[IoEvent]:
        for i in range(len(self._trace)):
            yield self._trace._event_at(i)

    def __eq__(self, other) -> bool:
        if isinstance(other, (_EventsView, list, tuple)):
            return list(self) == list(other)
        return NotImplemented


class IoTrace:
    """An append-only columnar log of I/O events, with vectorized queries."""

    def __init__(self, events: Iterable[IoEvent] | None = None):
        self._allocate_columns(0)
        self._size = 0
        self._stream_ids: dict[str, int] = {}
        self._stream_names: list[str] = []
        self._time_sorted = True
        # Serializes mutators.  Readers deliberately take no lock: they
        # snapshot ``_size`` first and then slice the columns, and every
        # append writes its rows before publishing the grown size, so a
        # concurrent reader sees a consistent (possibly slightly stale)
        # prefix.
        self._append_lock = threading.Lock()
        if events is not None:
            self.extend(events)

    def _allocate_columns(self, capacity: int) -> None:
        self._ops = np.empty(capacity, dtype=np.uint8)
        self._indices = np.empty(capacity, dtype=np.int64)
        self._times = np.empty(capacity, dtype=np.float64)
        self._streams = np.empty(capacity, dtype=np.int32)

    # -- appending ---------------------------------------------------------------

    def _intern(self, stream: str) -> int:
        code = self._stream_ids.get(stream)
        if code is None:
            code = len(self._stream_names)
            self._stream_ids[stream] = code
            self._stream_names.append(stream)
        return code

    def _ensure_capacity(self, needed: int) -> None:
        capacity = len(self._ops)
        if needed <= capacity:
            return
        capacity = max(capacity, _INITIAL_CAPACITY)
        while capacity < needed:
            capacity *= 2
        for name in ("_ops", "_indices", "_times", "_streams"):
            old = getattr(self, name)
            grown = np.empty(capacity, dtype=old.dtype)
            grown[: self._size] = old[: self._size]
            setattr(self, name, grown)

    def record(self, op: Operation, index: int, time_ms: float, stream: str = "default") -> None:
        """Append one event (amortized O(1), thread-safe)."""
        with self._append_lock:
            n = self._size
            self._ensure_capacity(n + 1)
            self._ops[n] = _OP_CODES[op]
            self._indices[n] = index
            self._times[n] = time_ms
            self._streams[n] = self._intern(stream)
            if self._time_sorted and n and time_ms < self._times[n - 1]:
                self._time_sorted = False
            self._size = n + 1

    def record_many(
        self,
        op: Operation | Sequence[Operation] | np.ndarray,
        indices: Sequence[int] | np.ndarray,
        times_ms: Sequence[float] | np.ndarray,
        stream: str | Sequence[str] = "default",
    ) -> None:
        """Append a batch of events in one columnar write (thread-safe).

        ``op`` is either one operation name shared by the whole batch, a
        sequence of names, or a ready-made array of ``OP_READ``/``OP_WRITE``
        codes.  ``stream`` is one name shared by the whole batch or a
        sequence of per-event names (the concurrent engine batches
        adjacent requests of different sessions into one device call
        while keeping per-session trace attribution).  Equivalent to a
        loop of :meth:`record` over the batch, only faster.
        """
        count = len(indices)
        if len(times_ms) != count:
            raise ValueError(f"{count} indices but {len(times_ms)} timestamps")
        op_column: np.ndarray | list[int] | int
        if isinstance(op, str):
            op_column = _OP_CODES[op]
        else:
            if isinstance(op, np.ndarray):
                if not np.issubdtype(op.dtype, np.integer):
                    raise ValueError("op codes must be an integer array")
                if op.size and not ((op >= OP_READ) & (op <= OP_WRITE)).all():
                    raise ValueError("op codes must be OP_READ or OP_WRITE")
                op_column = op
            else:
                op_column = [_OP_CODES[name] for name in op]
            if len(op_column) != count:
                raise ValueError(f"{count} indices but {len(op_column)} operations")
        if not isinstance(stream, str) and len(stream) != count:
            raise ValueError(f"{count} indices but {len(stream)} streams")
        if count == 0:
            return
        with self._append_lock:
            n = self._size
            end = n + count
            self._ensure_capacity(end)
            if isinstance(stream, str):
                stream_column: list[int] | int = self._intern(stream)
            else:
                stream_column = [self._intern(name) for name in stream]
            self._ops[n:end] = op_column
            self._indices[n:end] = indices
            self._times[n:end] = times_ms
            self._streams[n:end] = stream_column
            if self._time_sorted:
                written = self._times[max(n - 1, 0) : end]
                self._time_sorted = not (written[1:] < written[:-1]).any()
            self._size = end

    def extend(self, other: "IoTrace" | Iterable[IoEvent]) -> None:
        """Append events from another trace (column-wise when possible)."""
        if isinstance(other, IoTrace):
            count = other._size
            if count == 0:
                return
            with self._append_lock:
                n = self._size
                self._ensure_capacity(n + count)
                self._ops[n : n + count] = other._ops[:count]
                self._indices[n : n + count] = other._indices[:count]
                self._times[n : n + count] = other._times[:count]
                if other._stream_names:
                    remap = np.fromiter(
                        (self._intern(name) for name in other._stream_names),
                        dtype=np.int32,
                        count=len(other._stream_names),
                    )
                    self._streams[n : n + count] = remap[other._streams[:count]]
                if self._time_sorted and (
                    not other._time_sorted or (n and other._times[0] < self._times[n - 1])
                ):
                    self._time_sorted = False
                self._size = n + count
            return
        for event in other:
            self.record(event.op, event.index, event.time_ms, event.stream)

    def clear(self) -> None:
        """Drop all recorded events.

        Fresh columns are allocated rather than reused, so any column
        view handed out before the clear keeps its (frozen) contents
        instead of silently changing under the caller.
        """
        with self._append_lock:
            self._allocate_columns(0)
            self._size = 0
            self._time_sorted = True

    # -- event (row) views --------------------------------------------------------

    def _event_at(self, i: int) -> IoEvent:
        return IoEvent(
            op=_OP_NAMES[self._ops[i]],
            index=int(self._indices[i]),
            time_ms=float(self._times[i]),
            stream=self._stream_names[self._streams[i]],
        )

    @property
    def events(self) -> _EventsView:
        """Lazy sequence view materialising :class:`IoEvent` rows on demand."""
        return _EventsView(self)

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[IoEvent]:
        return iter(self.events)

    def __eq__(self, other) -> bool:
        if isinstance(other, IoTrace):
            return (
                self._size == other._size
                and np.array_equal(self._ops[: self._size], other._ops[: other._size])
                and np.array_equal(self._indices[: self._size], other._indices[: other._size])
                and np.array_equal(self._times[: self._size], other._times[: other._size])
                and [self._stream_names[c] for c in self._streams[: self._size]]
                == [other._stream_names[c] for c in other._streams[: other._size]]
            )
        return NotImplemented

    # -- columnar accessors (attacker analytics consume these directly) -----------

    def _op_mask(self, op: Operation | None) -> np.ndarray | slice:
        if op is None:
            return slice(None)
        # Snapshot the size before touching the column: appends publish
        # the grown size last, so the column read afterwards is
        # guaranteed to hold at least that many committed rows.
        n = self._size
        return self._ops[:n] == _OP_CODES[op]

    def op_column(self) -> np.ndarray:
        """Operation codes (``OP_READ``/``OP_WRITE``) in arrival order."""
        return self._readonly("_ops")

    def index_column(self, op: Operation | None = None) -> np.ndarray:
        """Block indices in arrival order, optionally filtered by operation."""
        if op is None:
            return self._readonly("_indices")
        n = self._size
        mask = self._ops[:n] == _OP_CODES[op]
        return self._indices[:n][mask]

    def time_column(self) -> np.ndarray:
        """Timestamps (ms) in arrival order."""
        return self._readonly("_times")

    def stream_codes(self) -> np.ndarray:
        """Interned stream ids in arrival order (see :meth:`stream_names`)."""
        return self._readonly("_streams")

    @property
    def stream_names(self) -> list[str]:
        """Stream-id table: ``stream_names[code]`` is the stream string."""
        return list(self._stream_names)

    def _readonly(self, column_name: str) -> np.ndarray:
        # Size first, column second (see _op_mask for why).
        n = self._size
        view = getattr(self, column_name)[:n]
        view.flags.writeable = False
        return view

    @classmethod
    def _from_columns(
        cls,
        ops: np.ndarray,
        indices: np.ndarray,
        times: np.ndarray,
        streams: np.ndarray,
        stream_names: list[str],
    ) -> "IoTrace":
        trace = cls()
        count = len(ops)
        # Exact-size columns with no doubling headroom (selections are
        # often small or empty; appends grow normally later).  asarray
        # keeps slice views without copying — safe, because appends to
        # either trace reallocate before ever writing shared positions.
        trace._ops = np.asarray(ops, dtype=np.uint8)
        trace._indices = np.asarray(indices, dtype=np.int64)
        trace._times = np.asarray(times, dtype=np.float64)
        trace._streams = np.asarray(streams, dtype=np.int32)
        trace._stream_names = list(stream_names)
        trace._stream_ids = {name: code for code, name in enumerate(stream_names)}
        trace._size = count
        trace._time_sorted = count < 2 or bool(np.all(np.diff(times) >= 0))
        return trace

    def _select(self, selection: np.ndarray | slice, n: int | None = None) -> "IoTrace":
        # ``n`` pins the prefix a boolean mask was built against; without
        # it, a concurrent append between building the mask and slicing
        # would make the lengths disagree.
        if n is None:
            n = self._size
        return IoTrace._from_columns(
            self._ops[:n][selection],
            self._indices[:n][selection],
            self._times[:n][selection],
            self._streams[:n][selection],
            self._stream_names,
        )

    # -- queries used by attackers and analysis --------------------------------

    def reads(self) -> list[IoEvent]:
        """All read events in order."""
        return [self._event_at(i) for i in np.flatnonzero(self._op_mask("read"))]

    def writes(self) -> list[IoEvent]:
        """All write events in order."""
        return [self._event_at(i) for i in np.flatnonzero(self._op_mask("write"))]

    def indices(self, op: Operation | None = None) -> list[int]:
        """Block indices touched, optionally filtered by operation."""
        return self.index_column(op).tolist()

    def index_histogram(self, op: Operation | None = None) -> Counter:
        """How many times each block index was touched."""
        touched = self.index_column(op)
        if touched.size == 0:
            return Counter()
        # bincount allocates max(index)+1 slots — only worth it when the
        # index range is comparable to the event count (the device case).
        # Sparse or negative hand-built indices go through unique instead.
        if touched.min() >= 0 and touched.max() <= 4 * touched.size + 1024:
            counts = np.bincount(touched)
            hot = np.flatnonzero(counts)
            return Counter(dict(zip(hot.tolist(), counts[hot].tolist(), strict=True)))
        values, counts = np.unique(touched, return_counts=True)
        return Counter(dict(zip(values.tolist(), counts.tolist(), strict=True)))

    def touched_blocks(self, op: Operation | None = None) -> set[int]:
        """The set of distinct block indices touched."""
        return set(np.unique(self.index_column(op)).tolist())

    def slice_by_stream(self, stream: str) -> "IoTrace":
        """Events belonging to one request stream."""
        code = self._stream_ids.get(stream)
        if code is None:
            return IoTrace()
        n = self._size
        return self._select(self._streams[:n] == code, n)

    def between(self, start_ms: float, end_ms: float) -> "IoTrace":
        """Events with timestamps in [start_ms, end_ms)."""
        n = self._size
        times = self._times[:n]
        if self._time_sorted:
            lo = int(np.searchsorted(times, start_ms, side="left"))
            hi = int(np.searchsorted(times, end_ms, side="left"))
            return self._select(slice(lo, max(lo, hi)), n)
        return self._select((times >= start_ms) & (times < end_ms), n)

    def since(self, mark: int) -> "IoTrace":
        """Events recorded at positions ``mark`` onwards (observer windows)."""
        return self._select(slice(max(0, mark), self._size))
