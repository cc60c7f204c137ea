"""Compare two sets of plain runs: the parent commit's and a change's.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds run records (``result.json``, found recursively)
written by ``perfbench/run.py --trace 0``.  Runs were made as
alternating pairs, parent and change with the same workload and seed;
records pair up by workload and seed.  For every workload and
end-to-end metric the command prints both medians and quartiles, how
often the change won its pair, and a verdict:

* ``improved`` — the change won at least 9 of 10 pairs (ties count for
  neither) and the medians differ, in the better direction, by more than
  the parent's interquartile range;
* ``unresolved`` — the parent's own spread (IQR / median) exceeds the
  metric's bound, and not every change run beats every parent run;
* ``no worse`` — the change's median is not worse than the parent's by
  more than the bound;
* ``worse`` — otherwise.

Bounds come from ``BENCHMARK.json``; the durable-only metrics use the
bounds in :mod:`perfbench.metrics`.  The exit code is 1 when any row is
``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __package__ in (None, ""):
    sys.path[:1] = [str(ROOT)]

from perfbench.metrics import DURABLE_ONLY, declared  # noqa: E402


def bounds(benchmark: Path) -> dict[str, tuple[str, float]]:
    """``metric -> (better, bound)``: BENCHMARK.json's end-to-end metrics, then the durable-only."""
    out = {metric["name"]: (metric["better"], metric["bound"])
           for metric in declared(benchmark)["end_to_end"]}
    out.update((name, (better, bound)) for name, _, better, bound in DURABLE_ONLY)
    return out


def load(directory: Path) -> dict[tuple[str, int], list[dict]]:
    """Plain-run records under ``directory``, by (workload, seed), in file order."""
    records: dict[tuple[str, int], list[dict]] = defaultdict(list)
    for path in sorted(directory.rglob("result.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if record.get("trace") == 0:
            records[(record["workload"], record["seed"])].append(record)
    return records


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Medians, quartiles, win fraction and verdict for one paired metric."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change, strict=True) if sign * (c - p) > 0)
    row = {
        "pairs": len(parent),
        "wins": wins,
        "parent": _summary(parent),
        "change": _summary(change),
    }
    if len(parent) < 2:
        row["verdict"] = "unresolved"
        return row
    parent_median = row["parent"]["median"]
    change_median = row["change"]["median"]
    parent_iqr = row["parent"]["q3"] - row["parent"]["q1"]
    gain = sign * (change_median - parent_median)
    if wins >= 0.9 * len(parent) and gain > parent_iqr:
        row["verdict"] = "improved"
        return row
    if better == "higher":
        every_run_better = min(change) > max(parent)
    else:
        every_run_better = max(change) < min(parent)
    spread = parent_iqr / abs(parent_median) if parent_median else float("inf")
    if spread > bound and not every_run_better:
        row["verdict"] = "unresolved"
    elif -gain <= bound * abs(parent_median):
        row["verdict"] = "no worse"
    else:
        row["verdict"] = "worse"
    return row


def _summary(values: list[float]) -> dict[str, float]:
    if len(values) < 2:
        value = values[0] if values else float("nan")
        return {"median": value, "q1": value, "q3": value}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def compare(parent_dir: Path, change_dir: Path, benchmark: Path) -> dict[str, dict[str, dict]]:
    """``workload -> metric -> row`` over every (workload, seed) present on both sides."""
    parent, change = load(parent_dir), load(change_dir)
    limits = bounds(benchmark)
    paired: dict[str, list[tuple[dict, dict]]] = defaultdict(list)
    for key in sorted(parent.keys() & change.keys()):
        paired[key[0]] += zip(parent[key], change[key], strict=False)
    table: dict[str, dict[str, dict]] = {}
    for workload, pairs in sorted(paired.items()):
        rows = {}
        for name, (better, bound) in limits.items():
            both = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                    for p, c in pairs if name in p["metrics"] and name in c["metrics"]]
            if both:
                rows[name] = verdict([p for p, _ in both], [c for _, c in both], better, bound)
                rows[name]["bound"] = bound
        table[workload] = rows
    return table


def render(table: dict[str, dict[str, dict]]) -> str:
    lines = []
    for workload, rows in table.items():
        lines.append(f"{workload}")
        lines.append(
            f"  {'metric':16} {'parent median [q1, q3]':34} {'change median [q1, q3]':34} "
            f"{'wins':>7} {'bound':>6}  verdict"
        )
        for name, row in rows.items():
            cells = [
                f"{side['median']:.5g} [{side['q1']:.5g}, {side['q3']:.5g}]"
                for side in (row["parent"], row["change"])
            ]
            lines.append(
                f"  {name:16} {cells[0]:34} {cells[1]:34} "
                f"{row['wins']:>3}/{row['pairs']:<3} {row['bound']:6.2f}  {row['verdict']}"
            )
    return "\n".join(lines) if lines else "no workload has runs on both sides"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="directory of the parent's run records")
    parser.add_argument("change", type=Path, help="directory of the change's run records")
    args = parser.parse_args(argv)
    table = compare(args.parent, args.change, ROOT / "BENCHMARK.json")
    print(render(table))
    worse = any(row["verdict"] == "worse" for rows in table.values() for row in rows.values())
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
