"""Outside-in span tracer: wrap functions where they are looked up, record spans in memory.

A :class:`Target` names one function by its owner (a module or a class)
and attribute name, plus the layer it belongs to.  :meth:`Tracer.install`
replaces each attribute with a wrapper that records a span — function,
start, end, parent span, thread — around every call, and
:meth:`Tracer.uninstall` puts the original objects back.  Nothing inside
the program changes: callers that look the attribute up at call time
(method calls, module globals) see the wrapper, which is why a function
imported *by name* into another module must be listed once per module
that binds it.

Spans stay in per-thread lists until :meth:`Tracer.spans` turns them
into numpy columns.  A span's self time is its duration minus the
durations of its children on the same thread; work another thread does
meanwhile is not subtracted.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

#: ``hook(tracer, parent_function, args, kwargs, result)`` runs after a
#: call returns; ``parent_function`` is the function id of the enclosing
#: span on the same thread, or -1 at the top of the thread's stack.
Hook = Callable[["Tracer", int, tuple, dict, Any], None]

_MISSING = object()


@dataclass(frozen=True)
class Target:
    """One function to trace: ``owner.name``, attributed to ``layer``."""

    owner: Any
    name: str
    layer: str
    hook: Hook | None = None

    @property
    def label(self) -> str:
        owner = getattr(self.owner, "__qualname__", None) or self.owner.__name__
        return f"{owner}.{self.name}"


def _raw_attribute(owner: Any, name: str) -> Any:
    """The attribute as stored (descriptor, not bound), searching a class's MRO."""
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if name in klass.__dict__:
                return klass.__dict__[name]
        raise AttributeError(f"{owner.__qualname__} has no attribute {name!r}")
    return owner.__dict__[name]


@dataclass
class SpanTable:
    """All recorded spans as parallel columns (one row per span)."""

    function: np.ndarray  # int32 function id (index into ``names``)
    start: np.ndarray  # float64 clock reading at entry
    end: np.ndarray  # float64 clock reading at exit
    parent: np.ndarray  # int64 row of the enclosing span on the same thread, -1 at top
    thread: np.ndarray  # int64 thread ident
    names: list[str]
    layers: list[str]
    thread_names: dict[int, str]

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def self_time(self) -> np.ndarray:
        """Per-span duration minus the summed durations of its same-thread children."""
        duration = self.duration
        nested = self.parent >= 0
        children = np.bincount(
            self.parent[nested], weights=duration[nested], minlength=duration.size
        )
        return duration - children

    def mask(self, functions: set[str]) -> np.ndarray:
        """Rows whose function label is in ``functions``."""
        ids = [i for i, name in enumerate(self.names) if name in functions]
        return np.isin(self.function, ids)

    def layer_mask(self, layer: str) -> np.ndarray:
        ids = [i for i, owner in enumerate(self.layers) if owner == layer]
        return np.isin(self.function, ids)

    def parent_function(self) -> np.ndarray:
        """Function id of each span's parent (-1 for top-level spans)."""
        out = np.full(self.function.size, -1, dtype=np.int64)
        nested = self.parent >= 0
        out[nested] = self.function[self.parent[nested]]
        return out

    def save(self, path: str) -> None:
        """Write the spans as an ``.npz`` of columns plus the name tables."""
        np.savez_compressed(
            path,
            function=self.function,
            start=self.start,
            end=self.end,
            parent=self.parent,
            thread=self.thread,
            names=np.array(self.names),
            layers=np.array(self.layers),
        )


class Tracer:
    """Records spans around every call to the given targets while installed.

    ``clock`` must be monotonic and comparable across threads
    (``time.perf_counter`` is); tests pass a fake one.  Hooks add to
    :attr:`counters`.
    """

    def __init__(self, targets: list[Target], clock: Callable[[], float] = time.perf_counter):
        self.targets = list(targets)
        self.names = [target.label for target in self.targets]
        self.layers = [target.layer for target in self.targets]
        self.counters: Counter[str] = Counter()
        self._clock = clock
        self._local = threading.local()
        self._registry_lock = threading.Lock()
        # One entry per thread that recorded a span: (ident, name, spans).
        # A list, not a dict keyed by ident: the OS reuses the idents of
        # finished threads.
        self._threads: list[tuple[int, str, list[list[Any]]]] = []
        self._saved: list[tuple[Any, str, Any]] = []

    # -- install / uninstall -------------------------------------------------------

    def install(self) -> None:
        """Replace every target attribute with its span-recording wrapper."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        try:
            for function_id, target in enumerate(self.targets):
                stored = target.owner.__dict__.get(target.name, _MISSING)
                raw = _raw_attribute(target.owner, target.name)
                setattr(target.owner, target.name, self._wrap_descriptor(raw, function_id))
                self._saved.append((target.owner, target.name, stored))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Put back the original objects, newest first; idempotent."""
        while self._saved:
            owner, name, stored = self._saved.pop()
            if stored is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, stored)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    def _wrap_descriptor(self, raw: Any, function_id: int) -> Any:
        if isinstance(raw, classmethod):
            return classmethod(self._wrap(raw.__func__, function_id))
        if not callable(raw):
            raise TypeError(f"{self.names[function_id]} is not a function")
        return self._wrap(raw, function_id)

    # -- recording -----------------------------------------------------------------

    def _thread_state(self) -> tuple[list[list[Any]], list[int]]:
        spans: list[list[Any]] = []
        stack: list[int] = []
        self._local.state = (spans, stack)
        entry = (threading.get_ident(), threading.current_thread().name, spans)
        with self._registry_lock:
            self._threads.append(entry)
        return spans, stack

    def _wrap(self, function: Callable[..., Any], function_id: int) -> Callable[..., Any]:
        local = self._local
        clock = self._clock
        hook = self.targets[function_id].hook
        tracer = self

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            try:
                spans, stack = local.state
            except AttributeError:
                spans, stack = tracer._thread_state()
            parent = stack[-1] if stack else -1
            record = [function_id, 0.0, float("nan"), parent]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if hook is not None:
                hook(tracer, spans[parent][0] if parent >= 0 else -1, args, kwargs, result)
            return result

        return traced

    def parent_layer(self, parent_function: int) -> str | None:
        """Layer of a hook's ``parent_function`` (None at the top of a stack)."""
        return self.layers[parent_function] if parent_function >= 0 else None

    # -- results -------------------------------------------------------------------

    def spans(self) -> SpanTable:
        """Every finished span, grouped by thread, as numpy columns."""
        with self._registry_lock:
            threads = list(self._threads)
        thread_names: dict[int, str] = {}
        offset = 0
        parts = []
        for ident, name, spans in threads:
            thread_names[ident] = name
            rows = np.array(spans, dtype=np.float64).reshape(-1, 4)
            parent = rows[:, 3].astype(np.int64)
            # Re-base parent rows onto the concatenated table.
            parent = np.where(parent >= 0, parent + offset, -1)
            parts.append((rows, parent, np.full(len(spans), ident, dtype=np.int64)))
            offset += len(spans)
        if parts:
            rows = np.concatenate([part[0] for part in parts])
            parent = np.concatenate([part[1] for part in parts])
            thread = np.concatenate([part[2] for part in parts])
        else:
            rows = np.empty((0, 4))
            parent = np.empty(0, dtype=np.int64)
            thread = np.empty(0, dtype=np.int64)
        finished = ~np.isnan(rows[:, 2])
        if not finished.all():
            raise RuntimeError("spans are still open; uninstall only after the traced work ends")
        return SpanTable(
            function=rows[:, 0].astype(np.int32),
            start=rows[:, 1],
            end=rows[:, 2],
            parent=parent,
            thread=thread,
            names=list(self.names),
            layers=list(self.layers),
            thread_names=thread_names,
        )
