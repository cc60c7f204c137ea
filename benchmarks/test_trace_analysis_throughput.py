"""Throughput of the columnar I/O trace + vectorized attacker analytics.

The paper's whole security story is evaluated *through* the I/O trace
(Def. 1, Section 3.2.2): every attacker and every figure consumes the
request log, so at million-event workloads the trace — not the simulated
disk — becomes the bottleneck.  This harness measures **wall-clock**
throughput of the trace itself on a million-event synthetic workload,
through two representations:

* **before** — the pre-columnar path: one frozen ``IoEvent`` dataclass
  per request appended to a Python list (reproduced here verbatim as
  ``LegacyIoTrace``), and attacker statistics computed with per-event
  Python loops (reproduced as the ``legacy_*`` helpers);
* **after** — the columnar path: ``record_many`` appending batches into
  numpy columns exactly as the batched device paths do, and the shipped
  vectorized analytics (``TrafficAnalysisAttacker.analyse``,
  ``access_distribution``, ``uniformity_chi_square``, ``between``,
  ``index_histogram``).

Both paths compute the *same* attacker verdict on the same events — the
run asserts it — and the columnar path must sustain at least 5x the
events/s recorded and at least 5x the analysis throughput.  Results land
in ``.benchmarks/results/trace_analysis_throughput.txt`` (the committed
copy in ``benchmarks/results/`` is the reference) so the trajectory
stays trackable across PRs.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass

import numpy as np
import pytest

from common import run_once, save_result
from repro.attacks.traffic_analysis import TrafficAnalysisAttacker
from repro.core.security import (
    _chi_square_sf,
    access_distribution,
    distinguishing_advantage,
    uniformity_chi_square,
)
from repro.storage.trace import IoEvent, IoTrace

NUM_EVENTS = 1_000_000
NUM_BLOCKS = 65_536
RECORD_CHUNK = 8_192  # the batch size the device-layer paths typically append in
BINS = 64
MIN_SPEEDUP = 5.0


class LegacyIoTrace:
    """The pre-columnar trace, kept verbatim as the baseline."""

    def __init__(self):
        self.events: list[IoEvent] = []

    def record(self, op, index, time_ms, stream="default"):
        self.events.append(IoEvent(op=op, index=index, time_ms=time_ms, stream=stream))

    def indices(self):
        return [e.index for e in self.events]

    def between(self, start_ms, end_ms):
        return [e for e in self.events if start_ms <= e.time_ms < end_ms]


# -- the pre-vectorization attacker statistics, verbatim ------------------------


def legacy_access_distribution(indices, num_blocks):
    histogram = np.zeros(num_blocks, dtype=float)
    for index in indices:
        histogram[index] += 1.0
    total = histogram.sum()
    return histogram / total if total else histogram


def legacy_binned(indices, num_blocks, bins):
    counts = np.zeros(bins, dtype=float)
    for index in indices:
        counts[min(bins - 1, index * bins // num_blocks)] += 1
    return counts


def legacy_uniformity_chi_square(indices, num_blocks, bins):
    counts = legacy_binned(indices, num_blocks, bins)
    expected = len(indices) / bins
    statistic = float(np.sum((counts - expected) ** 2 / expected))
    return statistic, _chi_square_sf(statistic, bins - 1)


def legacy_sequential_run_fraction(indices):
    if len(indices) < 2:
        return 0.0
    sequential_pairs = sum(1 for a, b in zip(indices, indices[1:], strict=False) if 0 <= b - a <= 1)
    return sequential_pairs / (len(indices) - 1)


def legacy_max_repeat_count(indices):
    if not indices:
        return 0
    return max(Counter(indices).values())


def legacy_advantage(indices, reference, num_blocks, bins):
    def normalised(raw):
        counts = legacy_binned(raw, num_blocks, bins)
        total = counts.sum()
        return counts / total if total else counts

    return 0.5 * float(np.abs(normalised(indices) - normalised(reference)).sum())


# -- workload -------------------------------------------------------------------


def _synthetic_workload() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A million-event trace an attacker would actually study: mostly
    uniform dummy traffic with a hot block and one sequential run mixed
    in, plus a uniform dummy-only reference trace."""
    rng = np.random.default_rng(20040301)
    indices = rng.integers(0, NUM_BLOCKS, size=NUM_EVENTS, dtype=np.int64)
    hot = rng.choice(NUM_EVENTS, size=NUM_EVENTS // 200, replace=False)
    indices[hot] = 12_345
    run_start = NUM_EVENTS // 2
    indices[run_start : run_start + 2_000] = np.arange(2_000) % NUM_BLOCKS
    times = np.cumsum(rng.uniform(0.05, 0.15, size=NUM_EVENTS))
    reference = rng.integers(0, NUM_BLOCKS, size=NUM_EVENTS, dtype=np.int64)
    return indices, times, reference


@dataclass
class Measurement:
    record_events_per_s: float
    analyse_seconds: float
    verdict: tuple


def _measure_legacy(indices, times, reference) -> Measurement:
    index_list = indices.tolist()
    time_list = times.tolist()
    reference_list = reference.tolist()

    trace = LegacyIoTrace()
    started = time.perf_counter()
    record = trace.record
    for index, time_ms in zip(index_list, time_list, strict=True):
        record("read", index, time_ms)
    record_rate = NUM_EVENTS / (time.perf_counter() - started)

    window = (times[NUM_EVENTS // 4], times[NUM_EVENTS // 2])
    started = time.perf_counter()
    observed = trace.indices()
    sequential = legacy_sequential_run_fraction(observed)
    repeats = legacy_max_repeat_count(observed)
    statistic, p_value = legacy_uniformity_chi_square(observed, NUM_BLOCKS, BINS)
    advantage = legacy_advantage(observed, reference_list, NUM_BLOCKS, BINS)
    distribution = legacy_access_distribution(observed, NUM_BLOCKS)
    windowed = len(trace.between(*window))
    elapsed = time.perf_counter() - started
    verdict = (
        sequential,
        repeats,
        statistic,
        p_value,
        advantage,
        float(distribution[12_345]),
        windowed,
    )
    return Measurement(record_rate, elapsed, verdict)


def _measure_columnar(indices, times, reference) -> Measurement:
    trace = IoTrace()
    started = time.perf_counter()
    for lo in range(0, NUM_EVENTS, RECORD_CHUNK):
        trace.record_many("read", indices[lo : lo + RECORD_CHUNK], times[lo : lo + RECORD_CHUNK])
    record_rate = NUM_EVENTS / (time.perf_counter() - started)
    reference_trace = IoTrace()
    reference_trace.record_many("read", reference, times)

    attacker = TrafficAnalysisAttacker(NUM_BLOCKS)
    window = (times[NUM_EVENTS // 4], times[NUM_EVENTS // 2])
    started = time.perf_counter()
    observed = trace.index_column()
    sequential = attacker.sequential_run_fraction(observed)
    repeats = attacker.max_repeat_count(observed)
    statistic, p_value = uniformity_chi_square(observed, NUM_BLOCKS, BINS)
    advantage = distinguishing_advantage(observed, reference_trace.index_column(), NUM_BLOCKS, BINS)
    distribution = access_distribution(trace, NUM_BLOCKS)
    windowed = len(trace.between(*window))
    elapsed = time.perf_counter() - started
    verdict = (
        sequential,
        repeats,
        statistic,
        p_value,
        advantage,
        float(distribution[12_345]),
        windowed,
    )
    return Measurement(record_rate, elapsed, verdict)


def _run_experiment() -> tuple[Measurement, Measurement]:
    indices, times, reference = _synthetic_workload()
    # Warm the one-time scipy import inside _chi_square_sf so neither
    # path pays it inside its timed section.
    _chi_square_sf(1.0, BINS - 1)
    legacy = _measure_legacy(indices, times, reference)
    columnar = _measure_columnar(indices, times, reference)
    return legacy, columnar


@pytest.mark.benchmark(group="trace-analysis")
def test_trace_analysis_throughput(benchmark):
    legacy, columnar = run_once(benchmark, _run_experiment)

    # Same events, same verdict: every statistic matches the legacy loops.
    for before, after in zip(legacy.verdict, columnar.verdict, strict=True):
        assert after == pytest.approx(before, rel=1e-9)

    record_speedup = columnar.record_events_per_s / legacy.record_events_per_s
    analyse_speedup = legacy.analyse_seconds / columnar.analyse_seconds

    lines = [
        "Trace analysis throughput: columnar numpy trace vs legacy list-of-IoEvent",
        f"({NUM_EVENTS:,} events over {NUM_BLOCKS:,} blocks; "
        f"record batches of {RECORD_CHUNK:,}; {BINS}-bin attacker statistics)",
        "",
        f"{'path':<22} {'record events/s':>18} {'attacker analysis s':>20}",
        f"{'legacy (before)':<22} {legacy.record_events_per_s:>18,.0f} "
        f"{legacy.analyse_seconds:>20.3f}",
        f"{'columnar (after)':<22} {columnar.record_events_per_s:>18,.0f} "
        f"{columnar.analyse_seconds:>20.3f}",
        "",
        f"recording speedup:        {record_speedup:.1f}x",
        f"attacker-verdict speedup: {analyse_speedup:.1f}x",
        "",
        f"acceptance floor: >= {MIN_SPEEDUP:.0f}x on both, identical verdict statistics",
    ]
    save_result("trace_analysis_throughput", "\n".join(lines))

    assert record_speedup >= MIN_SPEEDUP, f"recording speedup {record_speedup:.1f}x"
    assert analyse_speedup >= MIN_SPEEDUP, f"analysis speedup {analyse_speedup:.1f}x"
