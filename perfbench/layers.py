"""The seven serving layers as tracer targets, and the per-layer metrics read off their spans.

Each layer is a module of ``repro``; its public functions are wrapped
where they are looked up (see :mod:`perfbench.tracer`).  Code a layer
calls that is not itself a layer — the allocator, headers and volume
under the agent, the latency model under the disk — counts as the
caller's self time.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Any

import numpy as np

import repro.core.agent as agent_module
import repro.core.plan as plan_module
import repro.service.concurrent as concurrent_module
from repro.core.agent import StegAgent
from repro.core.journal import JournalBackend
from repro.crypto.cipher import FastFieldCipher
from repro.crypto.prng import Sha256Prng
from repro.service.facade import HiddenVolumeService, Session
from repro.storage.backend import FaultInjectingBackend, MemoryBackend, MmapFileBackend
from repro.storage.disk import RawStorage
from repro.storage.trace import IoTrace

from perfbench.tracer import SpanTable, Target, Tracer

CONCURRENT = "service.concurrent"
FACADE = "service.facade"
AGENT = "core.agent"
PRNG = "crypto.prng"
PLAN = "core.plan"
CIPHER = "crypto.cipher"
DISK = "storage.disk"
TRACE = "storage.trace"
BACKEND = "storage.backend"
JOURNAL = "core.journal"

#: Request order through the stack.  The engine layer has no wrapped
#: functions: its self time is the scheduler thread's time outside all
#: of the others.
LAYERS = (CONCURRENT, FACADE, AGENT, PRNG, PLAN, CIPHER, DISK, TRACE, BACKEND, JOURNAL)

_FACADE_WRITES = {"Session.write", "Session.plan_write", "Session.append", "Session.plan_append"}
_BACKEND_FLUSHES = {f"{cls.__qualname__}.flush" for cls in (MemoryBackend, MmapFileBackend)}
_AGENT_METHODS = (
    "create_file", "open_file", "read_file", "read_block", "plan_read_blocks", "read_blocks",
    "plan_save_file", "save_file", "close_file", "delete_file", "plan_dummy_update",
    "dummy_update", "plan_dummy_update_batch", "dummy_update_batch", "update_block",
    "update_range", "plan_update_range", "append_blocks", "plan_append_blocks", "idle",
)  # fmt: skip


# -- hooks: counts taken where the work happens ---------------------------------------


def _outermost(tracer: Tracer, parent: int, layer: str) -> bool:
    return tracer.parent_layer(parent) != layer


def _prng_call(tracer: Tracer, parent: int, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counters["prng.calls"] += 1


def _cipher_call(tracer: Tracer, parent: int, args: tuple, kwargs: dict, result: Any) -> None:
    if _outermost(tracer, parent, CIPHER):
        blocks = result if isinstance(result, list) else [result]
        tracer.counters["cipher.calls"] += 1
        tracer.counters["cipher.blocks"] += len(blocks)
        tracer.counters["cipher.bytes"] += sum(map(len, blocks))


def _disk_call(blocks: Any, ops_per_block: int = 1) -> Any:
    """Count a ``RawStorage`` call, its blocks and its device ops (a read-write cycle is two)."""

    def hook(tracer: Tracer, parent: int, args: tuple, kwargs: dict, result: Any) -> None:
        if _outermost(tracer, parent, DISK):
            count = blocks(args, result)
            tracer.counters["disk.calls"] += 1
            tracer.counters["disk.blocks"] += count
            tracer.counters["disk.device_ops"] += ops_per_block * count

    return hook


def _backend_bytes(moved: Any) -> Any:
    def hook(tracer: Tracer, parent: int, args: tuple, kwargs: dict, result: Any) -> None:
        if _outermost(tracer, parent, BACKEND):
            tracer.counters["backend.bytes"] += moved(args, result)

    return hook


def _fuse(tracer: Tracer, parent: int, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counters["plan.runs"] += len(result)
    tracer.counters["plan.steps"] += sum(len(run.steps) for run in result)


def _updates(results: Any) -> Any:
    def hook(tracer: Tracer, parent: int, args: tuple, kwargs: dict, result: Any) -> None:
        updates = results(result)
        tracer.counters["agent.blocks_updated"] += len(updates)
        tracer.counters["agent.fig6_iterations"] += sum(update.iterations for update in updates)

    return hook


def _agent_read_block(tracer: Tracer, parent: int, args: tuple, kwargs: dict, result: Any) -> None:
    if parent >= 0 and tracer.names[parent] in _FACADE_WRITES:
        tracer.counters["facade.boundary_reads"] += 1


def targets() -> list[Target]:
    """Every traced function, with the layer it belongs to."""
    out = [
        Target(Session, name, FACADE)
        for name in ("read", "write", "append", "plan_read", "plan_write", "plan_append")
    ]
    out += [Target(HiddenVolumeService, name, FACADE) for name in ("flush", "login", "open")]
    hooks = {
        "read_block": _agent_read_block,
        "update_range": _updates(lambda result: result),
        "plan_update_range": _updates(lambda result: result[1]),
        "update_block": _updates(lambda result: [result]),
    }
    out += [Target(StegAgent, name, AGENT, hooks.get(name)) for name in _AGENT_METHODS]
    out.append(Target(Sha256Prng, "random_bytes", PRNG, _prng_call))
    out += [
        Target(plan_module, "fuse", PLAN, _fuse),
        Target(plan_module, "execute_runs", PLAN),
        Target(plan_module, "execute_plan", PLAN),
        # Bound by name at import time, so wrapped where they are bound.
        Target(agent_module, "execute_plan", PLAN),
        Target(concurrent_module, "fuse", PLAN, _fuse),
        Target(concurrent_module, "execute_runs", PLAN),
    ]
    out += [
        Target(FastFieldCipher, name, CIPHER, _cipher_call)
        for name in ("encrypt", "decrypt", "encrypt_many", "decrypt_many")
    ]
    one = _disk_call(lambda args, result: 1)
    out += [
        Target(RawStorage, "read_block", DISK, one),
        Target(RawStorage, "write_block", DISK, one),
        Target(RawStorage, "read_blocks", DISK, _disk_call(lambda args, result: len(result))),
        Target(RawStorage, "write_blocks", DISK, _disk_call(lambda args, result: len(args[2]))),
        Target(
            RawStorage, "read_write_blocks", DISK, _disk_call(lambda args, r: len(args[1]), 2)
        ),
        Target(RawStorage, "flush", DISK),
    ]
    out += [Target(IoTrace, "record", TRACE), Target(IoTrace, "record_many", TRACE)]
    moved = {
        "read": _backend_bytes(lambda args, result: len(result)),
        "write": _backend_bytes(lambda args, result: len(args[2])),
        "read_many": _backend_bytes(lambda args, result: sum(map(len, result))),
        "write_many": _backend_bytes(lambda args, result: sum(map(len, args[2]))),
        "flush": None,
    }
    for backend in (MemoryBackend, MmapFileBackend, FaultInjectingBackend):
        out += [Target(backend, name, BACKEND, hook) for name, hook in moved.items()]
    out += [
        Target(JournalBackend, name, JOURNAL)
        for name in ("record", "mark_committed", "checkpoint", "flush", "recover", "open")
    ]
    return out


# -- metrics ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Window:
    """The traced stretch of one run, and the counts taken around it."""

    start: float
    end: float
    thread: int  # ident of the thread whose spans are attributed
    reads: int
    writes: int
    bytes_written: int
    device_ops: int  # IoCounters reads + writes
    trace_events: int
    engine: dict[str, int] | None  # EngineStats deltas
    scheduler_cpu_s: float | None
    journal_bytes: int | None  # sidecar bytes written

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def ops(self) -> int:
        return self.reads + self.writes


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(table: SpanTable, counters: dict[str, int], window: Window) -> dict[str, tuple]:
    """Every per-layer metric as ``name -> (value, unit)``."""
    inside = (
        (table.thread == window.thread)
        & (table.start >= window.start)
        & (table.end <= window.end)
    )
    self_time = table.self_time()
    duration = table.duration
    wall = window.wall_s
    ops = window.ops
    self_s = {layer: float(self_time[inside & table.layer_mask(layer)].sum()) for layer in LAYERS}
    if window.engine is not None:
        # The scheduler thread's time outside every layer call: hand-off,
        # gather waits, routing.
        self_s[CONCURRENT] = wall - float(duration[inside & (table.parent < 0)].sum())

    out: dict[str, tuple] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (self_s[layer], "s")
        out[f"{layer}.self_frac"] = (_ratio(self_s[layer], wall), "frac")
        out[f"{layer}.spans"] = (int((inside & table.layer_mask(layer)).sum()), "count")

    engine = window.engine or {}
    out[f"{CONCURRENT}.sched_cpu_frac"] = (_ratio(window.scheduler_cpu_s or 0.0, wall), "frac")
    out[f"{CONCURRENT}.ops_per_quantum"] = (
        _ratio(engine.get("real_ops", 0), engine.get("quanta", 0)), "ratio")
    out[f"{CONCURRENT}.read_batch_mean"] = (
        _ratio(engine.get("batched_read_requests", 0), engine.get("read_batches", 0)), "ratio")
    out[f"{CONCURRENT}.write_fusions"] = (
        1000 * _ratio(engine.get("write_fusions", 0), window.writes), "1/kwrite")
    out[f"{CONCURRENT}.dummy_per_real"] = (
        _ratio(engine.get("dummy_updates", 0), engine.get("real_ops", 0)), "ratio")

    out[f"{FACADE}.boundary_reads_per_write"] = (
        _ratio(counters["facade.boundary_reads"], window.writes), "ratio")
    out[f"{AGENT}.fig6_iters_per_block"] = (
        _ratio(counters["agent.fig6_iterations"], counters["agent.blocks_updated"]), "ratio")
    out[f"{PRNG}.calls_per_op"] = (_ratio(counters["prng.calls"], ops), "ratio")
    out[f"{PLAN}.steps_per_run"] = (_ratio(counters["plan.steps"], counters["plan.runs"]), "ratio")

    out[f"{CIPHER}.blocks_per_call"] = (
        _ratio(counters["cipher.blocks"], counters["cipher.calls"]), "ratio")
    out[f"{CIPHER}.mb_per_busy_s"] = (
        _ratio(counters["cipher.bytes"] / 1e6, self_s[CIPHER]), "MB/s")

    out[f"{DISK}.calls_per_op"] = (_ratio(counters["disk.calls"], ops), "ratio")
    out[f"{DISK}.blocks_per_call"] = (
        _ratio(counters["disk.blocks"], counters["disk.calls"]), "ratio")
    out[f"{DISK}.dev_ops_per_op"] = (_ratio(window.device_ops, ops), "ratio")
    out[f"{TRACE}.events_per_op"] = (_ratio(window.trace_events, ops), "ratio")

    flushes = inside & table.mask(_BACKEND_FLUSHES)
    flush_s = float(duration[flushes].sum())
    moving = inside & table.layer_mask(BACKEND) & ~flushes
    out[f"{BACKEND}.mb_per_busy_s"] = (
        _ratio(counters["backend.bytes"] / 1e6, float(self_time[moving].sum())), "MB/s")
    out[f"{BACKEND}.flush_s"] = (flush_s, "s")
    out[f"{BACKEND}.flush_frac"] = (_ratio(flush_s, wall), "frac")

    journal = inside & table.layer_mask(JOURNAL)
    parent_layer = _parent_layers(table)
    outermost = journal & (parent_layer != JOURNAL)
    total_s = float(duration[outermost].sum())
    out[f"{JOURNAL}.total_s"] = (total_s, "s")
    out[f"{JOURNAL}.total_frac"] = (_ratio(total_s, wall), "frac")
    out[f"{JOURNAL}.bytes_per_user_byte"] = (
        _ratio(window.journal_bytes or 0, window.bytes_written), "ratio")
    checkpoints = inside & table.mask({"JournalBackend.checkpoint"})
    ring = int((checkpoints & (parent_layer == JOURNAL)).sum())
    out[f"{JOURNAL}.checkpoints_flush"] = (
        1000 * _ratio(int(checkpoints.sum()) - ring, ops), "1/kop")
    out[f"{JOURNAL}.checkpoints_ring"] = (1000 * _ratio(ring, ops), "1/kop")
    return out


def _parent_layers(table: SpanTable) -> np.ndarray:
    layers = np.array([*table.layers, ""], dtype=object)
    return layers[table.parent_function()]  # -1 picks the trailing ""


def recovery_metrics(table: SpanTable, windows: list[tuple[float, float]]) -> dict[str, tuple]:
    """``JournalBackend.open`` + ``recover`` time per recovery, and its share of it."""
    timed = table.mask({"JournalBackend.open", "JournalBackend.recover"})
    journal_s = []
    shares = []
    for began, ended in windows:
        spans = timed & (table.start >= began) & (table.end <= ended)
        seconds = float(table.duration[spans].sum())
        journal_s.append(seconds)
        shares.append(_ratio(seconds, ended - began))
    return {
        f"{JOURNAL}.recover_s": (statistics.median(journal_s) if journal_s else 0.0, "s"),
        f"{JOURNAL}.recover_frac": (statistics.median(shares) if shares else 0.0, "frac"),
    }
