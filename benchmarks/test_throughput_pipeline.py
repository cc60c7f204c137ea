"""Throughput of the batched block-I/O + vectorized crypto pipeline.

Unlike the figure benchmarks, which report *simulated* milliseconds,
this harness measures **wall-clock MB/s** — the quantity the ROADMAP's
"as fast as the hardware allows" goal is about.  It drives sequential
whole-file reads and writes and oblivious shuffle passes at 64–256 MiB
volume sizes through two pipelines:

* **before** — the pre-pipeline single-block path: one device call per
  block and the original per-byte SHA-256 counter-mode cipher
  (reproduced here as ``LegacyFieldCipher``);
* **after** — the batched path: ``read_blocks``/``write_blocks`` moving
  data through numpy and the SHAKE-256 ``FastFieldCipher`` with
  ``encrypt_many``/``decrypt_many``.

Both pipelines issue observationally identical device traces (the
equivalence tests in ``tests/test_batched_io.py`` prove it); only the
wall-clock cost differs.  The run asserts the batched path sustains at
least 5x the before-path MB/s on sequential file reads and writes, and
records every series in ``.benchmarks/results/throughput_pipeline.txt``
(the committed copy in ``benchmarks/results/`` is the reference) so the
performance trajectory stays trackable across PRs.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

import pytest

from common import BENCH_BLOCK_SIZE, MIB, run_once, save_result
from repro.core.oblivious.store import ObliviousStore, ObliviousStoreConfig
from repro.crypto.cipher import FastFieldCipher, FieldCipher
from repro.crypto.prng import Sha256Prng
from repro.stegfs.filesystem import StegFsVolume, VolumeConfig
from repro.storage.device import RawDevice, split_volume
from repro.storage.disk import RawStorage, StorageGeometry

VOLUME_MIB_SWEEP = [64, 256]
LEGACY_VOLUME_MIB = 64  # the per-byte path is too slow to sweep further
FILE_MIB = {64: 8, 256: 16}
MIN_SPEEDUP = 5.0


class LegacyFieldCipher(FieldCipher):
    """The pre-pipeline data-field cipher, kept verbatim as the baseline:
    SHA-256 counter-mode keystream and a per-byte generator XOR."""

    def __init__(self, key: bytes):
        self._key = bytes(key)

    def _keystream(self, iv: bytes, length: int) -> bytes:
        prefix = self._key + bytes(iv)
        chunks = []
        counter = 0
        produced = 0
        while produced < length:
            chunk = hashlib.sha256(prefix + counter.to_bytes(8, "big")).digest()
            chunks.append(chunk)
            produced += len(chunk)
            counter += 1
        return b"".join(chunks)[:length]

    def encrypt(self, iv: bytes, plaintext: bytes) -> bytes:
        stream = self._keystream(iv, len(plaintext))
        return bytes(p ^ s for p, s in zip(plaintext, stream, strict=True))

    def decrypt(self, iv: bytes, ciphertext: bytes) -> bytes:
        return self.encrypt(iv, ciphertext)


@dataclass
class Throughput:
    label: str
    write_mbps: float
    read_mbps: float


def _build_volume(volume_mib: int, cipher_factory) -> StegFsVolume:
    geometry = StorageGeometry.from_capacity(volume_mib * MIB, BENCH_BLOCK_SIZE)
    storage = RawStorage(geometry)
    storage.fill_random(seed=volume_mib)
    return StegFsVolume(
        RawDevice(storage),
        Sha256Prng(f"throughput-{volume_mib}").spawn("volume"),
        VolumeConfig(cipher_factory=cipher_factory),
    )


def _measure_single_block(volume_mib: int) -> Throughput:
    """The pre-pipeline path: one write_payload/read_payload per block."""
    volume = _build_volume(volume_mib, LegacyFieldCipher)
    key = b"k" * 32
    num_blocks = (FILE_MIB[volume_mib] * MIB) // BENCH_BLOCK_SIZE
    chunk = bytes(range(256)) * (volume.data_field_bytes // 256)
    megabytes = num_blocks * BENCH_BLOCK_SIZE / MIB

    started = time.perf_counter()
    for index in range(num_blocks):
        volume.write_payload(index, key, chunk)
    write_mbps = megabytes / (time.perf_counter() - started)

    started = time.perf_counter()
    for index in range(num_blocks):
        volume.read_payload(index, key)
    read_mbps = megabytes / (time.perf_counter() - started)
    return Throughput(f"single-block {volume_mib} MiB", write_mbps, read_mbps)


def _measure_batched(volume_mib: int) -> Throughput:
    """The batched path: one device call and one encrypt_many per file."""
    volume = _build_volume(volume_mib, FastFieldCipher)
    key = b"k" * 32
    num_blocks = (FILE_MIB[volume_mib] * MIB) // BENCH_BLOCK_SIZE
    chunk = bytes(range(256)) * (volume.data_field_bytes // 256)
    chunks = [chunk] * num_blocks
    indices = list(range(num_blocks))
    megabytes = num_blocks * BENCH_BLOCK_SIZE / MIB

    started = time.perf_counter()
    volume.write_payloads(indices, key, chunks)
    write_mbps = megabytes / (time.perf_counter() - started)

    started = time.perf_counter()
    payloads = volume.read_payloads(indices, key)
    read_mbps = megabytes / (time.perf_counter() - started)
    assert payloads[0][: len(chunk)] == chunk  # sanity: the pipeline round-trips
    return Throughput(f"batched {volume_mib} MiB", write_mbps, read_mbps)


def _measure_shuffle(batched: bool) -> float:
    """Wall-clock MB/s of oblivious shuffle (merge-sort) device passes."""
    storage = RawStorage(StorageGeometry(block_size=BENCH_BLOCK_SIZE, num_blocks=4096))
    storage.fill_random(seed=3)
    _, oblivious_part = split_volume(storage, 1024)
    store = ObliviousStore(
        oblivious_part,
        ObliviousStoreConfig(buffer_blocks=32, last_level_blocks=512),
        Sha256Prng("throughput-shuffle"),
        cipher_factory=FastFieldCipher if batched else LegacyFieldCipher,
    )
    if not batched:
        # Hide the batched device methods so the store takes its
        # single-block fallback loop, as the pre-pipeline code did.
        class _SingleBlockView:
            def __init__(self, inner):
                self._inner = inner
                self.storage = inner.storage

            block_size = property(lambda self: self._inner.block_size)
            num_blocks = property(lambda self: self._inner.num_blocks)

            def read_block(self, index, stream="default"):
                return self._inner.read_block(index, stream)

            def write_block(self, index, data, stream="default"):
                self._inner.write_block(index, data, stream)

            def peek_block(self, index):
                return self._inner.peek_block(index)

        store.device = _SingleBlockView(oblivious_part)

    payload = b"\xab" * store.payload_bytes
    started = time.perf_counter()
    for logical in range(256):
        store.insert(logical, payload)
    elapsed = time.perf_counter() - started
    sort_ops = store.stats.sort_reads + store.stats.sort_writes
    return (sort_ops * BENCH_BLOCK_SIZE / MIB) / elapsed


def _run_experiment() -> tuple[list[Throughput], Throughput, dict[str, float]]:
    single = _measure_single_block(LEGACY_VOLUME_MIB)
    batched = [_measure_batched(volume_mib) for volume_mib in VOLUME_MIB_SWEEP]
    shuffle = {
        "single-block": _measure_shuffle(batched=False),
        "batched": _measure_shuffle(batched=True),
    }
    return batched, single, shuffle


@pytest.mark.benchmark(group="throughput")
def test_throughput_pipeline(benchmark):
    batched, single, shuffle = run_once(benchmark, _run_experiment)
    reference = next(t for t in batched if f"{LEGACY_VOLUME_MIB} MiB" in t.label)
    write_speedup = reference.write_mbps / single.write_mbps
    read_speedup = reference.read_mbps / single.read_mbps
    shuffle_speedup = shuffle["batched"] / shuffle["single-block"]

    lines = [
        "Throughput pipeline: wall-clock MB/s, sequential file read/write + shuffle passes",
        f"(block size {BENCH_BLOCK_SIZE} B; file sizes {FILE_MIB} MiB per volume size)",
        "",
        f"{'path':<28} {'write MB/s':>12} {'read MB/s':>12}",
        f"{single.label + ' (before)':<28} {single.write_mbps:>12.1f} {single.read_mbps:>12.1f}",
    ]
    for result in batched:
        lines.append(
            f"{result.label + ' (after)':<28} {result.write_mbps:>12.1f} {result.read_mbps:>12.1f}"
        )
    lines += [
        "",
        f"sequential write speedup (after/before, {LEGACY_VOLUME_MIB} MiB): {write_speedup:.1f}x",
        f"sequential read  speedup (after/before, {LEGACY_VOLUME_MIB} MiB): {read_speedup:.1f}x",
        "",
        f"shuffle passes: before {shuffle['single-block']:.1f} MB/s, "
        f"after {shuffle['batched']:.1f} MB/s ({shuffle_speedup:.1f}x)",
        "",
        f"acceptance floor: >= {MIN_SPEEDUP:.0f}x on sequential read and write",
    ]
    save_result("throughput_pipeline", "\n".join(lines))

    assert write_speedup >= MIN_SPEEDUP, f"write speedup {write_speedup:.1f}x below {MIN_SPEEDUP}x"
    assert read_speedup >= MIN_SPEEDUP, f"read speedup {read_speedup:.1f}x below {MIN_SPEEDUP}x"
    # The shuffle path must at least not regress; in practice it gains >2x.
    assert shuffle_speedup >= 1.0
