#!/usr/bin/env python
"""Regression floor for the plan-kernel concurrent benchmark.

Standalone (stdlib-only) so CI can run it without the package on the
path::

    python benchmarks/check_bench_floor.py BASELINE.json CURRENT.json --floor 0.8

Compares the concurrent ops/s at 4 workers in CURRENT against the
committed BASELINE and exits non-zero if it fell below ``floor`` times
the baseline.  The committed ``benchmarks/results/BENCH_plan_kernel.json``
is the baseline; CI runs the benchmark, which writes the fresh result
to ``.benchmarks/results/BENCH_plan_kernel.json``, then compares the two.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

WORKERS = "4"


def ops_at_four_workers(path: pathlib.Path) -> float:
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise SystemExit(
            f"{path}: no such benchmark result — generate it with "
            "'pytest benchmarks/test_concurrent_throughput.py' (fresh results "
            "land in .benchmarks/results/)"
        ) from None
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise SystemExit(
            f"{path}: not valid JSON ({error}) — the file is truncated or "
            "hand-edited; regenerate it with "
            "'pytest benchmarks/test_concurrent_throughput.py'"
        ) from None
    try:
        return float(payload["series"][WORKERS]["ops_per_sec"])
    except (KeyError, TypeError) as error:
        raise SystemExit(
            f"{path}: missing series[{WORKERS}].ops_per_sec ({error!r}) — "
            "was this written by an older benchmark? regenerate it with "
            "'pytest benchmarks/test_concurrent_throughput.py'"
        ) from None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", type=pathlib.Path, help="committed BENCH json")
    parser.add_argument("current", type=pathlib.Path, help="freshly generated BENCH json")
    parser.add_argument(
        "--floor",
        type=float,
        default=0.8,
        help="minimum allowed current/baseline ratio (default 0.8)",
    )
    args = parser.parse_args(argv)

    baseline = ops_at_four_workers(args.baseline)
    current = ops_at_four_workers(args.current)
    ratio = current / baseline if baseline else float("inf")
    verdict = "OK" if ratio >= args.floor else "REGRESSION"
    print(
        f"concurrent ops/s @ {WORKERS} workers: baseline={baseline:.1f} "
        f"current={current:.1f} ratio={ratio:.3f} floor={args.floor} -> {verdict}"
    )
    return 0 if ratio >= args.floor else 1


if __name__ == "__main__":
    sys.exit(main())
