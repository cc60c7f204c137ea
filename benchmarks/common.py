"""Shared helpers for the benchmark harness.

Each benchmark regenerates one table or figure of the paper on the
simulated disk: it sweeps the same parameter the paper sweeps, prints
the resulting rows/series in plain text, writes them to
``.benchmarks/results/``, and asserts the qualitative shape the paper
reports (who wins, by roughly what factor, where the crossover falls).

Fresh results never overwrite the committed ones in
``benchmarks/results/``: git ignores ``.benchmarks/``, so a test run
leaves the tree clean, and refreshing a committed result is a
deliberate copy (see README.md, "Running the benchmarks").

Absolute numbers are simulated milliseconds from the
:class:`~repro.storage.latency.DiskLatencyModel`, not wall-clock seconds
on the authors' 2004 hardware; EXPERIMENTS.md records the shape
comparison for every experiment.
"""

from __future__ import annotations

import json
import pathlib

from repro.analysis.series import SeriesTable, SweepResult

#: Fresh results land in ``.benchmarks/results/`` under the repository root (git ignores it).
RESULTS_DIR = pathlib.Path(__file__).parent.parent / ".benchmarks" / "results"

MIB = 1024 * 1024
KIB = 1024

# Scaled-down defaults shared by the performance benchmarks.  The paper
# uses a 1 GiB volume with (4, 8] MiB files; the simulation keeps the 4 KiB
# block size and scales the volume so each sweep finishes in seconds.
BENCH_BLOCK_SIZE = 4096
PAPER_SYSTEMS = ("StegHide", "StegHide*", "StegFS", "FragDisk", "CleanDisk")


def save_result(name: str, rendered: str) -> pathlib.Path:
    """Write a rendered table to .benchmarks/results/<name>.txt and echo it."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(rendered + "\n", encoding="utf-8")
    print(f"\n{rendered}\n[saved to {path}]")
    return path


def write_bench_json(name: str, payload: dict) -> pathlib.Path:
    """Write a machine-readable result to .benchmarks/results/<name>.json.

    The JSON twins the rendered ``.txt`` tables so CI can enforce
    numeric floors (see ``check_bench_floor.py``) without parsing prose.
    Keys are sorted and the file ends in a newline so regenerated
    results diff cleanly against the committed copies.
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    rendered = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(rendered, encoding="utf-8")
    print(f"[saved to {path}]")
    return path


def run_once(benchmark, func):
    """Run ``func`` exactly once under pytest-benchmark and return its result.

    The quantities of interest are simulated milliseconds computed inside
    ``func``; pytest-benchmark only wraps the single execution so the
    harness still reports per-experiment wall-clock cost.
    """
    if benchmark is None:
        return func()
    return benchmark.pedantic(func, rounds=1, iterations=1)


def assert_monotone_increasing(values, tolerance: float = 0.05) -> None:
    """Assert a series grows (allowing small noise)."""
    for earlier, later in zip(values, values[1:], strict=False):
        assert later >= earlier * (1 - tolerance), f"series not increasing: {values}"


def assert_monotone_decreasing(values, tolerance: float = 0.05) -> None:
    """Assert a series shrinks (allowing small noise)."""
    for earlier, later in zip(values, values[1:], strict=False):
        assert later <= earlier * (1 + tolerance), f"series not decreasing: {values}"


__all__ = [
    "SweepResult",
    "SeriesTable",
    "save_result",
    "write_bench_json",
    "run_once",
    "assert_monotone_increasing",
    "assert_monotone_decreasing",
    "RESULTS_DIR",
    "MIB",
    "KIB",
    "BENCH_BLOCK_SIZE",
    "PAPER_SYSTEMS",
]
