"""Plain and traced runs of one workload, the metrics they report, and the run record.

A plain run measures the end-to-end metrics with tracing off; a traced
run replays the same operations with every layer wrapped and reports
the per-layer metrics.  Both check every result and count each failed
operation or check in ``failed``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import platform
import statistics
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from perfbench import layers
from perfbench.metrics import declared
from perfbench.tracer import Tracer
from perfbench.workloads import (
    Instance,
    Phase,
    Shape,
    build,
    crash_cycles,
    device_digest,
    dummy_ratio_holds,
    make_inputs,
    run_phase,
)


#: The ROADMAP's additivity rule for single-threaded workloads.
MIN_ATTRIBUTED = 0.95

#: Target length of the slices a measured phase is cut into for the record.
SLICE_S = 1.0
_SLICED = ("ops_per_s", "read_p50_ms", "read_p90_ms", "write_p50_ms", "write_p90_ms",
           "cpu_ms_per_op")

#: Operations of the first client after which the measured phase reads
#: its peak resident set: a fixed count, so the figure does not depend
#: on how many operations the host managed.
RSS_AT_OP = 2000

_CALIBRATION_ROUNDS = 400_000


# -- host ----------------------------------------------------------------------------


def fingerprint() -> dict[str, Any]:
    """What the numbers depend on besides the code: CPUs, kernel, interpreter."""
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": model,
        "kernel": platform.release(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def pin_to_one_cpu() -> None:
    """Run this process, and every thread it starts later, on its lowest-numbered CPU.

    On a virtual machine, waking a thread on another vCPU takes an
    inter-processor interrupt whose latency follows the host's load.
    ``engine-mixed`` hands work between its client threads and the
    scheduler thread thousands of times a second, so its figures swung
    with that latency; on one CPU the hand-offs stay local.  The
    interpreter lock lets only one of those threads run Python at a time
    either way.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def calibrate() -> float:
    """Seconds for a fixed CPU-bound SHA-256 loop; spread it shares comes from the host."""
    digest = b"perfbench-calibration"
    started = time.perf_counter()
    for _ in range(_CALIBRATION_ROUNDS):
        digest = hashlib.sha256(digest).digest()
    return time.perf_counter() - started


def reset_peak_rss() -> None:
    """Restart the kernel's resident-set high-water mark from the current resident set."""
    with open("/proc/self/clear_refs", "w", encoding="ascii") as clear_refs:
        clear_refs.write("5")


def peak_rss_mib() -> float:
    """The process's resident-set high-water mark (``VmHWM``) in MiB."""
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("/proc/self/status has no VmHWM line")


# -- results -------------------------------------------------------------------------


@dataclass
class Outcome:
    """Checks and failures accumulated over one run."""

    attempted: int = 0
    failed: int = 0
    checks: dict[str, bool] = dataclasses.field(default_factory=dict)

    def ops(self, done: int, failed: int) -> None:
        self.attempted += done
        self.failed += failed

    def check(self, name: str, passed: bool) -> None:
        self.checks[name] = passed
        self.attempted += 1
        self.failed += not passed


def _value(value: float, unit: str, samples: int) -> dict[str, Any]:
    return {"value": float(value), "unit": unit, "samples": int(samples)}


def phase_metrics(phase: Phase) -> dict[str, dict[str, Any]]:
    """Throughput, latency percentiles and CPU per op over the whole measured phase.

    ``ops_per_s`` is every completed operation over the phase's wall
    time, the percentiles are taken over every read or write, and
    ``cpu_ms_per_op`` is the phase's process CPU time over its
    operations.  Each metric also keeps, under ``slices``, its value in
    every slice of about ``SLICE_S`` seconds (by when each operation
    returned), so that spread which tracks the host can be told apart
    from the program's.
    """
    latency = phase.column("latency")
    is_read = phase.column("is_read").astype(bool)
    ok = ~np.isnan(latency)
    done = latency.size
    out = {
        "ops_per_s": _value(done / phase.wall_s, "ops/s", done),
        "cpu_ms_per_op": _value(
            1000.0 * (phase.cpu_ended - phase.cpu_started) / done, "ms", done
        ),
    }
    for kind, mask in (("read", is_read & ok), ("write", ~is_read & ok)):
        sample = latency[mask]
        p50, p90 = np.percentile(sample, [50, 90]) if sample.size else (0.0, 0.0)
        out[f"{kind}_p50_ms"] = _value(1000.0 * p50, "ms", sample.size)
        out[f"{kind}_p90_ms"] = _value(1000.0 * p90, "ms", sample.size)
    for name, values in _per_slice(phase).items():
        out[name]["slices"] = values
    return {name: out[name] for name in _SLICED}


def _per_slice(phase: Phase) -> dict[str, list[float]]:
    """Every ``_SLICED`` metric computed per slice of about ``SLICE_S`` seconds."""
    ended = phase.column("ended")
    latency = phase.column("latency")
    is_read = phase.column("is_read").astype(bool)
    ok = ~np.isnan(latency)
    slices = max(1, int(phase.wall_s / SLICE_S))
    edges = phase.started + phase.wall_s * np.arange(slices + 1) / slices
    slot = np.clip(np.searchsorted(edges, ended, side="right") - 1, 0, slices - 1)
    lead = phase.tallies[0]
    cpu_at = np.interp(edges, [phase.started, *lead.ended], [phase.cpu_started, *lead.cpu])
    per_slice: dict[str, list[float]] = {name: [] for name in _SLICED}
    for index in range(slices):
        here = slot == index
        ops = int(here.sum())
        if not ops:
            continue
        per_slice["ops_per_s"].append(ops / (edges[index + 1] - edges[index]))
        per_slice["cpu_ms_per_op"].append(1000.0 * (cpu_at[index + 1] - cpu_at[index]) / ops)
        for kind, mask in (("read", is_read), ("write", ~is_read)):
            sample = latency[here & mask & ok]
            if sample.size:
                p50, p90 = np.percentile(sample, [50, 90])
                per_slice[f"{kind}_p50_ms"].append(1000.0 * p50)
                per_slice[f"{kind}_p90_ms"].append(1000.0 * p90)
    return per_slice


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _warm(instance: Instance, inputs: Any, outcome: Outcome) -> None:
    clients = len(inputs.streams)
    warm = run_phase(instance, inputs, 0, counts=[instance.shape.warmup_ops] * clients)
    outcome.ops(warm.done, warm.failed)


def _discard(instance: Instance) -> None:
    instance.close()
    instance.remove_files()


def run_plain(shape: Shape, seed: int, seconds: float, workdir: Path) -> dict[str, Any]:
    """Build ``shape.setups`` volumes, measure the last for ``seconds``; end-to-end metrics."""
    calibration_s = calibrate()
    inputs = make_inputs(shape, seed)
    outcome = Outcome()
    setup_s: list[float] = []
    digests: list[str] = []
    for index in range(shape.setups):
        instance = build(shape, seed, inputs, workdir, f"setup{index}")
        setup_s.append(instance.setup_s)
        last = index == shape.setups - 1
        # The last two volumes warm up and, where one seed gives one
        # trace, must leave identical devices.
        if last or (shape.deterministic and index == shape.setups - 2):
            _warm(instance, inputs, outcome)
            if shape.deterministic:
                digests.append(device_digest(instance))
        if not last:
            _discard(instance)
    if shape.deterministic:
        outcome.check("same device digest on two runs of the seed", len(set(digests)) == 1)

    # The builds, the input pools and the digest copies above are not
    # what serving costs: start the high-water mark again.
    reset_peak_rss()
    phase = run_phase(
        instance, inputs, shape.warmup_ops, seconds=seconds, probe=(RSS_AT_OP, peak_rss_mib)
    )
    outcome.ops(phase.done, phase.failed)
    # A run too short to reach RSS_AT_OP reads its peak at the end.
    rss, rss_at = phase.probed if phase.probed else (peak_rss_mib(), phase.counts[0])
    if shape.clients:
        outcome.check("dummy_per_real at the configured ratio", dummy_ratio_holds(instance))
    instance.close()

    metrics = phase_metrics(phase)
    metrics["peak_rss_mb"] = _value(rss, "MiB", 1)
    metrics["peak_rss_mb"]["at_op"] = rss_at
    metrics["setup_s"] = _value(_median(setup_s), "s", len(setup_s))
    if shape.durable:
        flushes = [flush for tally in phase.tallies for flush in tally.flushes]
        metrics["flush_p50_ms"] = _value(1000.0 * _median(flushes), "ms", len(flushes))
        cycles = crash_cycles(instance, inputs)
        outcome.ops(len(inputs.crash_writes), cycles.failed)
        outcome.checks["files equal the model after every crash cycle"] = cycles.failed == 0
        metrics["recovery_ms"] = _value(
            1000.0 * _median(cycles.recovery_s), "ms", len(cycles.recovery_s)
        )
    instance.remove_files()
    metrics["failed_frac"] = _value(outcome.failed / outcome.attempted, "ratio", outcome.attempted)
    return _record(shape, seed, seconds, 0, outcome, metrics, calibration_s, digests)


@dataclass(frozen=True)
class _Counts:
    """Counters read from outside the program, before and after the traced phase."""

    device_ops: int
    trace_events: int
    engine: dict[str, int] | None
    journal_records: int | None
    scheduler_cpu_s: float

    @classmethod
    def read(cls, instance: Instance, scheduler: threading.Thread | None) -> "_Counts":
        storage = instance.service.storage
        journal = instance.service.journal
        return cls(
            device_ops=storage.counters.total_ops,
            trace_events=len(storage.trace),
            engine=dataclasses.asdict(instance.engine.stats) if instance.engine else None,
            # Records appended to the sidecar ring so far, record_size bytes each.
            journal_records=journal._next_seq if journal is not None else None,
            scheduler_cpu_s=(
                time.clock_gettime(time.pthread_getcpuclockid(scheduler.ident))
                if scheduler is not None and scheduler.ident is not None
                else 0.0
            ),
        )


def _window(
    instance: Instance,
    phase: Phase,
    before: _Counts,
    after: _Counts,
    scheduler: threading.Thread | None,
) -> layers.Window:
    is_read = phase.column("is_read").astype(bool)
    journal = instance.service.journal
    engine = None
    if before.engine is not None and after.engine is not None:
        engine = {key: after.engine[key] - before.engine[key] for key in after.engine}
    return layers.Window(
        start=phase.started,
        end=phase.ended,
        # On the engine the layers run on the scheduler thread.
        thread=scheduler.ident if scheduler is not None else threading.get_ident(),
        reads=int(is_read.sum()),
        writes=int((~is_read).sum()),
        bytes_written=phase.bytes_written,
        device_ops=after.device_ops - before.device_ops,
        trace_events=after.trace_events - before.trace_events,
        engine=engine,
        scheduler_cpu_s=after.scheduler_cpu_s - before.scheduler_cpu_s if scheduler else None,
        journal_bytes=(
            (after.journal_records - before.journal_records) * journal.record_size
            if journal is not None
            else None
        ),
    )


def _scheduler_thread() -> threading.Thread | None:
    for thread in threading.enumerate():
        if thread.name == "hidden-volume-scheduler":
            return thread
    return None


def run_traced(
    shape: Shape, seed: int, seconds: float, workdir: Path, spans_dir: Path
) -> dict[str, Any]:
    """Measure half of ``seconds`` untraced, replay the same ops traced; per-layer metrics.

    The traced replay takes about as long again as the untraced half
    plus the tracing overhead, so a traced run measures for roughly
    ``seconds`` in all.
    """
    calibration_s = calibrate()
    inputs = make_inputs(shape, seed)
    outcome = Outcome()

    reference = build(shape, seed, inputs, workdir, "reference")
    _warm(reference, inputs, outcome)
    untraced = run_phase(reference, inputs, shape.warmup_ops, seconds=seconds / 2)
    outcome.ops(untraced.done, untraced.failed)
    digests = [device_digest(reference)] if shape.deterministic else []
    if shape.clients:
        outcome.check(
            "dummy_per_real at the configured ratio, untraced", dummy_ratio_holds(reference)
        )
    _discard(reference)

    instance = build(shape, seed, inputs, workdir, "traced")
    _warm(instance, inputs, outcome)
    scheduler = _scheduler_thread()
    before = _Counts.read(instance, scheduler)
    tracer = Tracer(layers.targets())
    with tracer:
        traced = run_phase(instance, inputs, shape.warmup_ops, counts=untraced.counts)
    window = _window(instance, traced, before, _Counts.read(instance, scheduler), scheduler)
    outcome.ops(traced.done, traced.failed)
    table = tracer.spans()
    table.save(str(spans_dir / "spans.npz"))
    measured = layers.layer_metrics(table, tracer.counters, window)
    attributed = sum(
        measured[f"{layer}.self_s"][0] for layer in layers.LAYERS if layer != layers.CONCURRENT
    )
    measured["trace.overhead_frac"] = (traced.wall_s / untraced.wall_s - 1.0, "frac")
    measured["trace.attributed_frac"] = (attributed / window.wall_s, "frac")
    # Self times add up to the traced wall by construction, so these
    # checks catch a layer function that escaped the wrappers: its device
    # calls would be missing from the disk layer's count, and a layer
    # missed whole would record no spans.
    outcome.check(
        "disk-layer device ops equal the IoCounters delta",
        tracer.counters["disk.device_ops"] == window.device_ops,
    )
    unused = {layers.CONCURRENT} | (set() if shape.durable else {layers.JOURNAL})
    silent = [
        layer
        for layer in layers.LAYERS
        if layer not in unused and not measured[f"{layer}.spans"][0]
    ]
    outcome.check(
        "every layer the workload uses recorded spans"
        + (f" (silent: {', '.join(silent)})" if silent else ""),
        not silent,
    )
    if shape.deterministic:
        digests.append(device_digest(instance))
        outcome.check("same device digest traced and untraced", len(set(digests)) == 1)
        outcome.check(
            f"layer self times cover >= {MIN_ATTRIBUTED:.0%} of traced wall",
            measured["trace.attributed_frac"][0] >= MIN_ATTRIBUTED,
        )
    if shape.clients:
        outcome.check("dummy_per_real at the configured ratio, traced", dummy_ratio_holds(instance))
    instance.close()

    measured.update(layers.recovery_metrics(table, []))
    if shape.durable:
        recovery_tracer = Tracer(layers.targets())
        with recovery_tracer:
            cycles = crash_cycles(instance, inputs)
        outcome.ops(len(inputs.crash_writes), cycles.failed)
        outcome.checks["files equal the model after every crash cycle"] = cycles.failed == 0
        recovery_table = recovery_tracer.spans()
        recovery_table.save(str(spans_dir / "recovery-spans.npz"))
        measured.update(layers.recovery_metrics(recovery_table, cycles.windows))
    instance.remove_files()

    metrics = {name: _value(value, unit, traced.done) for name, (value, unit) in measured.items()}
    return _record(shape, seed, seconds, 1, outcome, metrics, calibration_s, digests)


def _record(
    shape: Shape,
    seed: int,
    seconds: float,
    trace: int,
    outcome: Outcome,
    metrics: dict[str, dict[str, Any]],
    calibration_s: float,
    digests: list[str],
) -> dict[str, Any]:
    return {
        "workload": shape.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "checks": outcome.checks,
        "metrics": metrics,
        "digests": digests,
        "calibration_s": calibration_s,
        "fingerprint": fingerprint(),
    }


def headline(record: dict[str, Any]) -> dict[str, Any]:
    """The last output line: every BENCHMARK.json metric of this mode, value and unit."""
    kind = "per_layer" if record["trace"] else "end_to_end"
    names = [metric["name"] for metric in declared()[kind]]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {key: record["metrics"][name][key] for key in ("value", "unit")}
            for name in names
        },
    }


def render(record: dict[str, Any]) -> str:
    """A human-readable report: host, every metric with unit and samples, every check."""
    host = record["fingerprint"]
    lines = [
        f"perfbench {record['workload']} seed={record['seed']} seconds={record['seconds']} "
        f"trace={record['trace']}",
        f"host: {host['nproc']} CPU (ran on {host['affinity']}), {host['cpu_model']}, "
        f"kernel {host['kernel']}, "
        f"Python {host['python']}, numpy {host['numpy']}; "
        f"calibration {record['calibration_s']:.3f} s",
        f"{'metric':44} {'value':>14} {'unit':10} {'samples':>8}",
    ]
    for name, metric in record["metrics"].items():
        lines.append(
            f"{name:44} {metric['value']:14.6g} {metric['unit']:10} {metric['samples']:8d}"
        )
    for name, passed in record["checks"].items():
        lines.append(f"check: {'ok  ' if passed else 'FAIL'} {name}")
    lines.append(
        f"attempted {record['attempted']}, failed {record['failed']}: "
        f"{'correct' if record['correct'] else 'INCORRECT'}"
    )
    return "\n".join(lines)
