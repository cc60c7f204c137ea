"""The benchmark's metric catalogue: ``BENCHMARK.json``, plus the two durable-only metrics.

``BENCHMARK.json`` lists the workloads and the metrics every workload
reports, with units, directions and the end-to-end regression bounds.
A run must print every metric listed there, so the two end-to-end
metrics that exist only on the durable volume are defined here instead
(see ``perfbench/README.md``).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: ``(name, unit, better, bound)`` of the metrics only ``durable-journal`` reports.
DURABLE_ONLY = (
    ("flush_p50_ms", "ms", "lower", 0.25),
    ("recovery_ms", "ms", "lower", 0.25),
)


def declared(path: Path = BENCHMARK) -> dict[str, Any]:
    """The parsed ``BENCHMARK.json``."""
    return json.loads(path.read_text(encoding="utf-8"))
