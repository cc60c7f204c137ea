"""Property tests: the columnar ``IoTrace`` vs a reference list implementation.

The columnar trace promises to be *query-for-query identical* to the
straightforward list-of-:class:`IoEvent` log it replaced: same events in
the same order, same query results element for element, including the
``between()`` boundary cases.  These tests hold it to that promise on
random traces (both time-ordered, as the device produces, and shuffled,
as hand-built traces may be).
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.trace import OP_READ, OP_WRITE, IoEvent, IoTrace


class ReferenceTrace:
    """The pre-columnar list-of-events implementation, kept as the oracle."""

    def __init__(self, events=None):
        self.events = list(events) if events is not None else []

    def record(self, op, index, time_ms, stream="default"):
        self.events.append(IoEvent(op=op, index=index, time_ms=time_ms, stream=stream))

    def __len__(self):
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def reads(self):
        return [e for e in self.events if e.op == "read"]

    def writes(self):
        return [e for e in self.events if e.op == "write"]

    def indices(self, op=None):
        return [e.index for e in self.events if op is None or e.op == op]

    def index_histogram(self, op=None):
        return Counter(self.indices(op))

    def touched_blocks(self, op=None):
        return set(self.indices(op))

    def slice_by_stream(self, stream):
        return ReferenceTrace([e for e in self.events if e.stream == stream])

    def between(self, start_ms, end_ms):
        return ReferenceTrace([e for e in self.events if start_ms <= e.time_ms < end_ms])


events_strategy = st.lists(
    st.tuples(
        st.sampled_from(["read", "write"]),
        st.integers(0, 40),
        st.floats(0.0, 1000.0, allow_nan=False),
        st.sampled_from(["default", "alice", "bob", "shuffle-sort"]),
    ),
    max_size=120,
)


def _build(raw_events, time_ordered: bool):
    if time_ordered:
        raw_events = sorted(raw_events, key=lambda e: e[2])
    reference = ReferenceTrace()
    columnar = IoTrace()
    for op, index, time_ms, stream in raw_events:
        reference.record(op, index, time_ms, stream)
        columnar.record(op, index, time_ms, stream)
    return reference, columnar


def _assert_equivalent(reference: ReferenceTrace, columnar: IoTrace) -> None:
    assert len(columnar) == len(reference)
    assert list(columnar) == reference.events
    assert columnar.events == reference.events
    assert columnar.reads() == reference.reads()
    assert columnar.writes() == reference.writes()
    for op in (None, "read", "write"):
        assert columnar.indices(op) == reference.indices(op)
        assert columnar.index_histogram(op) == reference.index_histogram(op)
        assert columnar.touched_blocks(op) == reference.touched_blocks(op)


class TestColumnarEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(raw=events_strategy, time_ordered=st.booleans())
    def test_all_queries_match_reference(self, raw, time_ordered):
        reference, columnar = _build(raw, time_ordered)
        _assert_equivalent(reference, columnar)

    @settings(max_examples=60, deadline=None)
    @given(raw=events_strategy, time_ordered=st.booleans())
    def test_slice_by_stream_matches(self, raw, time_ordered):
        reference, columnar = _build(raw, time_ordered)
        for stream in ["default", "alice", "bob", "shuffle-sort", "never-seen"]:
            assert list(columnar.slice_by_stream(stream)) == (
                reference.slice_by_stream(stream).events
            )

    @settings(max_examples=80, deadline=None)
    @given(
        raw=events_strategy,
        time_ordered=st.booleans(),
        start=st.floats(-100.0, 1100.0, allow_nan=False),
        width=st.floats(0.0, 600.0, allow_nan=False),
    )
    def test_between_matches_reference(self, raw, time_ordered, start, width):
        reference, columnar = _build(raw, time_ordered)
        end = start + width
        assert list(columnar.between(start, end)) == reference.between(start, end).events

    @settings(max_examples=40, deadline=None)
    @given(raw=events_strategy, time_ordered=st.booleans())
    def test_between_boundary_cases(self, raw, time_ordered):
        reference, columnar = _build(raw, time_ordered)
        times = [e.time_ms for e in reference.events]
        probes = [0.0] + times[:5]
        for t in probes:
            # Empty window: start == end never matches (half-open interval).
            assert list(columnar.between(t, t)) == []
            # Inverted window is empty too.
            assert list(columnar.between(t + 1.0, t)) == []
        # Fully out-of-range windows on either side.
        assert list(columnar.between(-1e9, -1e8)) == []
        assert list(columnar.between(1e8, 1e9)) == []
        # The full window returns everything, in order.
        assert list(columnar.between(-1e9, 1e9)) == reference.events

    @settings(max_examples=40, deadline=None)
    @given(raw=events_strategy)
    def test_record_many_matches_record_loop(self, raw):
        loop = IoTrace()
        batched = IoTrace()
        for op, index, time_ms, _ in raw:
            loop.record(op, index, time_ms, "s")
        ops = [op for op, _, _, _ in raw]
        batched.record_many(
            ops, [i for _, i, _, _ in raw], [t for _, _, t, _ in raw], "s"
        )
        assert batched == loop
        assert list(batched) == list(loop)

    @settings(max_examples=40, deadline=None)
    @given(raw=events_strategy, chunk=st.integers(1, 16))
    def test_chunked_record_many_matches(self, raw, chunk):
        """Batched appends arriving in chunks (as the device paths issue
        them) accumulate the same trace as one per-event loop."""
        loop, batched = IoTrace(), IoTrace()
        for op, index, time_ms, stream in raw:
            loop.record(op, index, time_ms, stream)
        for lo in range(0, len(raw), chunk):
            part = raw[lo : lo + chunk]
            streams = {s for _, _, _, s in part}
            if len(streams) == 1:
                batched.record_many(
                    [op for op, _, _, _ in part],
                    [i for _, i, _, _ in part],
                    [t for _, _, t, _ in part],
                    streams.pop(),
                )
            else:
                for op, index, time_ms, stream in part:
                    batched.record(op, index, time_ms, stream)
        assert batched == loop
        # between() trusts the time-sorted flag, so a batched append that
        # wrongly kept the flag would return different windows.
        for _, _, start, _ in raw[:8]:
            for width in (0.5, 50.0, 1e9):
                window = (start, start + width)
                assert list(batched.between(*window)) == list(loop.between(*window))


class TestColumnarApi:
    def test_constructor_from_events_and_extend(self):
        events = [IoEvent("read", 1, 0.5, "a"), IoEvent("write", 2, 1.5, "b")]
        trace = IoTrace(events)
        assert list(trace) == events
        other = IoTrace()
        other.record("read", 9, 9.0, "c")
        trace.extend(other)
        assert trace.indices() == [1, 2, 9]
        assert [e.stream for e in trace] == ["a", "b", "c"]
        trace.extend([IoEvent("write", 7, 10.0)])
        assert trace.indices() == [1, 2, 9, 7]
        trace.clear()
        assert len(trace) == 0
        assert trace.indices() == []

    def test_events_view_indexing(self):
        trace = IoTrace()
        for i in range(10):
            trace.record("read", i, float(i))
        assert trace.events[0].index == 0
        assert trace.events[-1].index == 9
        assert [e.index for e in trace.events[3:6]] == [3, 4, 5]
        with pytest.raises(IndexError):
            trace.events[10]

    def test_record_many_code_array_and_validation(self):
        trace = IoTrace()
        codes = np.array([OP_READ, OP_WRITE, OP_READ], dtype=np.uint8)
        trace.record_many(codes, [5, 5, 6], [1.0, 2.0, 3.0], "s")
        assert [e.op for e in trace] == ["read", "write", "read"]
        with pytest.raises(ValueError):
            trace.record_many("read", [1, 2], [0.0])
        with pytest.raises(ValueError):
            trace.record_many(["read"], [1, 2], [0.0, 1.0])
        with pytest.raises(ValueError):
            # Invalid op codes must fail at append time, not on later reads.
            trace.record_many(np.array([0, 2], dtype=np.uint8), [1, 2], [0.0, 1.0])
        with pytest.raises(ValueError):
            # Float codes would silently truncate on uint8 assignment.
            trace.record_many(np.array([0.5, 0.7]), [1, 2], [0.0, 1.0])
        assert len(trace) == 3

    def test_index_histogram_handles_sparse_and_negative_indices(self):
        trace = IoTrace()
        trace.record("read", 10**12, 0.0)
        trace.record("read", 10**12, 1.0)
        trace.record("write", -5, 2.0)
        # Must not allocate a 10**12-slot bincount array.
        histogram = trace.index_histogram()
        assert histogram == Counter({10**12: 2, -5: 1})
        assert trace.index_histogram("read") == Counter({10**12: 2})

    def test_clear_freezes_previously_returned_columns(self):
        trace = IoTrace()
        trace.record("read", 7, 1.0)
        trace.record("read", 8, 2.0)
        held = trace.index_column()
        trace.clear()
        trace.record("write", 99, 0.5)
        assert held.tolist() == [7, 8]  # the old view must not mutate
        assert trace.index_column().tolist() == [99]

    def test_columns_are_readonly_views(self):
        trace = IoTrace()
        trace.record("read", 3, 1.0, "a")
        trace.record("write", 4, 2.0, "b")
        assert trace.index_column().tolist() == [3, 4]
        assert trace.index_column("write").tolist() == [4]
        assert trace.time_column().tolist() == [1.0, 2.0]
        assert trace.op_column().tolist() == [OP_READ, OP_WRITE]
        assert [trace.stream_names[c] for c in trace.stream_codes()] == ["a", "b"]
        with pytest.raises(ValueError):
            trace.index_column()[0] = 99

    def test_growth_beyond_initial_capacity(self):
        trace = IoTrace()
        for i in range(5000):
            trace.record("read", i % 17, float(i))
        assert len(trace) == 5000
        assert trace.indices()[:3] == [0, 1, 2]
        assert trace.index_histogram()[0] == len([i for i in range(5000) if i % 17 == 0])

    def test_instance_level_latency_override_honoured_by_batched_paths(self):
        """Monkeypatching cost_ms on a latency *instance* must affect the
        batched paths exactly like the single-block path."""
        from conftest import make_storage

        single = make_storage(num_blocks=16, timed=True)
        batched = make_storage(num_blocks=16, timed=True)
        for storage in (single, batched):
            storage.latency.cost_ms = lambda previous, index: 100.0
        for i in [3, 4, 9]:
            single.read_block(i)
        batched.read_blocks([3, 4, 9])
        assert single.clock_ms == batched.clock_ms == 300.0
        assert single.trace == batched.trace

    def test_since_returns_window(self):
        trace = IoTrace()
        for i in range(6):
            trace.record("read", i, float(i))
        window = trace.since(4)
        assert [e.index for e in window] == [4, 5]
        assert list(trace.since(0)) == list(trace)
        assert list(trace.since(99)) == []
