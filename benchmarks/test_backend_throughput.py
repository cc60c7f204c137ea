"""Raw block-backend throughput: MemoryBackend vs MmapFileBackend.

The durable-volume redesign (ISSUE 4) put a pluggable
:class:`~repro.storage.backend.BlockBackend` under ``RawStorage``.  This
harness measures what that buys and what it costs in **wall-clock
MB/s**, driving the same accounted ``read_blocks``/``write_blocks``
batched paths the file systems use, under a
:class:`~repro.storage.latency.ZeroLatencyModel` so only real data
movement is on the clock:

* **sequential** — whole-volume sweeps in 4 MiB batches (the
  CleanDisk/retrieval access shape);
* **random** — a seeded permutation of the same blocks in the same
  batch sizes (the StegFS/StegHide access shape: every block of a
  hidden file lives at a uniformly random location).

The mmap path writes through the page cache, so its steady-state cost
is one extra memcpy plus page-fault overhead — the assertion only pins
a loose floor (mmap ≥ ``MIN_RELATIVE`` of memory, both ≥
``MIN_ABSOLUTE_MBPS``) so CI boxes with slow disks do not flap.
Results land in ``.benchmarks/results/backend_throughput.txt``; the
committed copy in ``benchmarks/results/`` is the reference.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from common import BENCH_BLOCK_SIZE, MIB, run_once, save_result
from repro.crypto.prng import Sha256Prng
from repro.storage.backend import MemoryBackend, MmapFileBackend
from repro.storage.disk import RawStorage, StorageGeometry
from repro.storage.latency import ZeroLatencyModel

VOLUME_MIB = 64
BATCH_BLOCKS = (4 * MIB) // BENCH_BLOCK_SIZE
MIN_RELATIVE = 0.02  # mmap must reach >= 2% of memory throughput
MIN_ABSOLUTE_MBPS = 10.0


@dataclass
class BackendThroughput:
    label: str
    seq_write_mbps: float
    seq_read_mbps: float
    rand_write_mbps: float
    rand_read_mbps: float


VOLUME_BLOCKS = (VOLUME_MIB * MIB) // BENCH_BLOCK_SIZE


def _storage(backend) -> RawStorage:
    geometry = StorageGeometry(block_size=BENCH_BLOCK_SIZE, num_blocks=VOLUME_BLOCKS)
    return RawStorage(geometry, latency=ZeroLatencyModel(), backend=backend)


def _sweep(storage: RawStorage, order: np.ndarray, datas: list[bytes]) -> tuple[float, float]:
    """Write then read every block of the volume in ``order``; MB/s each way."""
    megabytes = order.size * BENCH_BLOCK_SIZE / MIB
    started = time.perf_counter()
    for begin in range(0, order.size, BATCH_BLOCKS):
        batch = order[begin : begin + BATCH_BLOCKS]
        storage.write_blocks(batch, datas[: batch.size])
    write_mbps = megabytes / (time.perf_counter() - started)

    started = time.perf_counter()
    for begin in range(0, order.size, BATCH_BLOCKS):
        storage.read_blocks(order[begin : begin + BATCH_BLOCKS])
    read_mbps = megabytes / (time.perf_counter() - started)
    return write_mbps, read_mbps


def _measure(label: str, backend) -> BackendThroughput:
    storage = _storage(backend)
    num_blocks = storage.geometry.num_blocks
    datas = [bytes(range(256)) * (BENCH_BLOCK_SIZE // 256)] * BATCH_BLOCKS

    sequential = np.arange(num_blocks, dtype=np.int64)
    seq_write, seq_read = _sweep(storage, sequential, datas)

    prng = Sha256Prng(f"backend-throughput-{label}")
    permutation = np.array(prng.sample(range(num_blocks), num_blocks), dtype=np.int64)
    rand_write, rand_read = _sweep(storage, permutation, datas)

    storage.close()
    return BackendThroughput(label, seq_write, seq_read, rand_write, rand_read)


def _run_experiment() -> list[BackendThroughput]:
    results = [_measure("memory", MemoryBackend(BENCH_BLOCK_SIZE, VOLUME_BLOCKS))]
    with tempfile.TemporaryDirectory() as tmp:
        backend = MmapFileBackend.create(Path(tmp) / "bench.img", BENCH_BLOCK_SIZE, VOLUME_BLOCKS)
        results.append(_measure("mmap-file", backend))
    return results


@pytest.mark.benchmark(group="backend")
def test_backend_throughput(benchmark):
    results = run_once(benchmark, _run_experiment)
    memory = next(r for r in results if r.label == "memory")
    mapped = next(r for r in results if r.label == "mmap-file")

    lines = [
        f"Block-backend throughput: wall-clock MB/s over a {VOLUME_MIB} MiB volume",
        f"(accounted read_blocks/write_blocks, {BATCH_BLOCKS}-block batches, zero-latency model)",
        "",
        f"{'backend':<12} {'seq write':>10} {'seq read':>10} {'rand write':>11} {'rand read':>10}",
    ]
    for result in results:
        lines.append(
            f"{result.label:<12} {result.seq_write_mbps:>10.0f} {result.seq_read_mbps:>10.0f}"
            f" {result.rand_write_mbps:>11.0f} {result.rand_read_mbps:>10.0f}"
        )
    lines += [
        "",
        "memory = historical in-process bytearray (volatile); mmap-file = durable",
        "volume file through the page cache (survives restarts, seizable image).",
    ]
    save_result("backend_throughput", "\n".join(lines))

    for result in results:
        for value in (
            result.seq_write_mbps,
            result.seq_read_mbps,
            result.rand_write_mbps,
            result.rand_read_mbps,
        ):
            assert value >= MIN_ABSOLUTE_MBPS, f"{result.label} below {MIN_ABSOLUTE_MBPS} MB/s"
    assert mapped.seq_write_mbps >= MIN_RELATIVE * memory.seq_write_mbps
    assert mapped.seq_read_mbps >= MIN_RELATIVE * memory.seq_read_mbps
