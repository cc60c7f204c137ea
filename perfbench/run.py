"""Run the serving-stack benchmark: one workload, or all three plain and traced.

From the repository root::

    python3 perfbench/run.py --workload session-bulk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

A single-workload run prints a report and, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``).  The full record — every metric with its sample count,
every check, the host fingerprint, a calibration time and, for traced
runs, the spans — goes to ``--out`` (default: a fresh directory under
``.perfbench/`` in the checkout).  ``--workload all`` runs each workload
plain and then traced with the same seed, each in its own process.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_OUT = ROOT / ".perfbench"


def _parse(argv: list[str], workloads: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, help="directory for the run record")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _out_dir(args: argparse.Namespace) -> Path:
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        return args.out
    DEFAULT_OUT.mkdir(parents=True, exist_ok=True)
    prefix = f"{args.workload}-seed{args.seed}-trace{args.trace}-"
    return Path(tempfile.mkdtemp(prefix=prefix, dir=DEFAULT_OUT))


def run_one(args: argparse.Namespace) -> int:
    from perfbench import bench
    from perfbench.workloads import SHAPES

    shape = SHAPES[args.workload]
    out = _out_dir(args)
    bench.pin_to_one_cpu()
    with tempfile.TemporaryDirectory(prefix="volumes-", dir=out) as workdir:
        if args.trace:
            record = bench.run_traced(shape, args.seed, args.seconds, Path(workdir), out)
        else:
            record = bench.run_plain(shape, args.seed, args.seconds, Path(workdir))
    (out / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(bench.render(record))
    print(f"record: {out / 'result.json'}")
    print(json.dumps(bench.headline(record)), flush=True)
    return 0 if record["correct"] else 1


def run_all(args: argparse.Namespace, workloads: list[str]) -> int:
    """Each workload plain then traced, each run in a process of its own."""
    out = _out_dir(args)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        for trace in (0, 1):
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(trace),
                "--out", str(out / f"{workload}-trace{trace}"),
            ]  # fmt: skip
            done = subprocess.run(command, capture_output=True, text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            sys.stderr.write(done.stderr)
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"{workload} trace={trace}: no result (exit {done.returncode})")
                summary["correct"] = False
                continue
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                summary["metrics"][f"{workload}/{name}"] = metric
            print()
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


def main(argv: list[str]) -> int:
    # Import the checkout's own package and sources, never an installed copy.
    sys.path[:1] = [str(SRC), str(ROOT)]
    from perfbench.metrics import declared

    workloads = [workload["name"] for workload in declared()["workloads"]]
    args = _parse(argv, workloads)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    return run_all(args, workloads) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
