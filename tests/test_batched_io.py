"""Equivalence tests for the batched block-I/O and vectorized crypto pipeline.

The batched APIs promise to be *observationally identical* to a loop of
the single-block calls: same device bytes, same counters, same simulated
clock, same trace events (indices, operations, streams and timestamps).
These tests hold them to that promise — property-style over random
index/data sets for the storage layer, and end-to-end for the consumers
(whole-file create/read, ``update_range``, the oblivious shuffle).

They also pin the vectorized ``FastFieldCipher`` and numpy ``Bitmap``
scans to straightforward per-byte/per-bit reference implementations.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.nonvolatile import NonVolatileAgent
from repro.core.oblivious.store import ObliviousStore, ObliviousStoreConfig
from repro.crypto.cipher import FastFieldCipher
from repro.crypto.keys import FileAccessKey
from repro.crypto.prng import Sha256Prng
from repro.errors import BlockOutOfRangeError, BlockSizeMismatchError
from repro.stegfs.filesystem import StegFsVolume
from repro.storage.backend import MemoryBackend
from repro.storage.bitmap import Bitmap
from repro.storage.device import Partition, RawDevice, split_volume
from repro.storage.disk import RawStorage, StorageGeometry

from conftest import ReferenceFieldCipher, make_storage

BLOCK_SIZE = 64
NUM_BLOCKS = 128


def _timed_pair() -> tuple[RawStorage, RawStorage]:
    """Two identical storages with the real (ATA-like) latency model."""
    return (
        make_storage(num_blocks=NUM_BLOCKS, block_size=BLOCK_SIZE, timed=True),
        make_storage(num_blocks=NUM_BLOCKS, block_size=BLOCK_SIZE, timed=True),
    )


def _assert_identical(a: RawStorage, b: RawStorage) -> None:
    """Every observable of the two devices matches exactly."""
    assert a.raw_bytes() == b.raw_bytes()
    assert a.counters == b.counters
    assert a.clock_ms == b.clock_ms
    assert a.trace.events == b.trace.events
    # The head position is observable through the cost of the next access.
    assert a.latency.cost_ms(a._head_position, 0) == b.latency.cost_ms(b._head_position, 0)


indices_strategy = st.lists(st.integers(0, NUM_BLOCKS - 1), min_size=0, max_size=24)
writes_strategy = st.lists(
    st.tuples(st.integers(0, NUM_BLOCKS - 1), st.binary(min_size=BLOCK_SIZE, max_size=BLOCK_SIZE)),
    min_size=0,
    max_size=24,
)
stream_strategy = st.sampled_from(["a", "b", "c"])
# Half the block draws come from a pool of eight, so cycles collide often.
block_strategy = st.one_of(st.integers(0, 7), st.integers(0, NUM_BLOCKS - 1))
cycles_strategy = st.lists(
    st.tuples(
        block_strategy,
        block_strategy,
        st.booleans(),
        st.binary(min_size=BLOCK_SIZE, max_size=BLOCK_SIZE),
        stream_strategy,
    ).map(lambda c: (c[0], c[0] if c[2] else c[1], c[3], c[4])),  # (read, write, data, stream)
    max_size=16,
)


class _RecordingBackend:
    """A backend wrapper logging every block call as (method, indices, datas)."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def read(self, index):
        self.calls.append(("read", [int(index)], None))
        return self.inner.read(index)

    def write(self, index, data):
        self.calls.append(("write", [int(index)], [data]))
        self.inner.write(index, data)

    def read_many(self, indices):
        self.calls.append(("read_many", [int(i) for i in indices], None))
        return self.inner.read_many(indices)

    def write_many(self, indices, datas):
        self.calls.append(("write_many", [int(i) for i in indices], list(datas)))
        self.inner.write_many(indices, datas)


class TestBatchedDeviceEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(batch=indices_strategy)
    def test_read_blocks_matches_loop(self, batch):
        loop, batched = _timed_pair()
        expected = [loop.read_block(i, "s") for i in batch]
        got = batched.read_blocks(batch, "s")
        assert got == expected
        _assert_identical(loop, batched)

    @settings(max_examples=40, deadline=None)
    @given(batch=writes_strategy)
    def test_write_blocks_matches_loop(self, batch):
        loop, batched = _timed_pair()
        for index, data in batch:
            loop.write_block(index, data, "s")
        batched.write_blocks([i for i, _ in batch], [d for _, d in batch], "s")
        _assert_identical(loop, batched)

    @settings(max_examples=40, deadline=None)
    @given(batch=writes_strategy, rewrite_in_place=st.booleans())
    def test_read_write_blocks_matches_loop(self, batch, rewrite_in_place):
        loop, batched = _timed_pair()
        indices = [i for i, _ in batch]
        datas = None if rewrite_in_place else [d for _, d in batch]
        for position, index in enumerate(indices):
            current = loop.peek_block(index)
            loop.read_block(index, "s")
            loop.write_block(index, current if datas is None else datas[position], "s")
        batched.read_write_blocks(indices, datas, "s")
        _assert_identical(loop, batched)

    @settings(max_examples=25, deadline=None)
    @given(
        reads=indices_strategy,
        writes=writes_strategy,
        more_reads=indices_strategy,
    )
    def test_mixed_sequences_accumulate_identically(self, reads, writes, more_reads):
        """Interleaving batched and single-block calls shares head/clock state."""
        loop, batched = _timed_pair()
        for i in reads:
            loop.read_block(i, "a")
        for i, d in writes:
            loop.write_block(i, d, "b")
        for i in more_reads:
            loop.read_block(i, "a")
        batched.read_blocks(reads, "a")
        batched.write_blocks([i for i, _ in writes], [d for _, d in writes], "b")
        batched.read_blocks(more_reads, "a")
        _assert_identical(loop, batched)

    @settings(max_examples=60, deadline=None)
    @given(cycles=cycles_strategy)
    @example(cycles=[(3, 9, b"\x01" * BLOCK_SIZE, "a"), (9, 4, b"\x02" * BLOCK_SIZE, "b")])
    @example(cycles=[(3, 9, b"\x01" * BLOCK_SIZE, "a"), (5, 5, b"\x02" * BLOCK_SIZE, "b")])
    def test_swap_cycles_match_loop(self, cycles):
        """``write_indices`` cycles, colliding or not, against the
        read_block/write_block loop they stand for.  Collisions (a later
        cycle reading or writing an earlier cycle's block, duplicate
        targets) take the genuine loop; the rest take the batched path."""
        loop, batched = _timed_pair()
        for read_index, write_index, data, stream in cycles:
            loop.read_block(read_index, stream)
            loop.write_block(write_index, data, stream)
        batched.read_write_blocks(
            [r for r, _, _, _ in cycles],
            [d for _, _, d, _ in cycles],
            [s for _, _, _, s in cycles],
            write_indices=[w for _, w, _, _ in cycles],
        )
        _assert_identical(loop, batched)

    @settings(max_examples=40, deadline=None)
    @given(batch=writes_strategy, draw=st.data())
    def test_per_block_streams_match_loop(self, batch, draw):
        """A per-block stream list labels each event (both events of a
        cycle carry the cycle's label) exactly as the loop would."""
        labels = draw.draw(st.lists(stream_strategy, min_size=len(batch), max_size=len(batch)))
        indices = [i for i, _ in batch]
        datas = [d for _, d in batch]
        loop, batched = _timed_pair()
        reads = [loop.read_block(i, s) for i, s in zip(indices, labels, strict=True)]
        for i, d, s in zip(indices, datas, labels, strict=True):
            loop.write_block(i, d, s)
        for i, s in zip(indices, labels, strict=True):
            current = loop.peek_block(i)
            loop.read_block(i, s)
            loop.write_block(i, current, s)
        assert batched.read_blocks(indices, labels) == reads
        batched.write_blocks(indices, datas, labels)
        batched.read_write_blocks(indices, None, labels)
        _assert_identical(loop, batched)

    @settings(max_examples=40, deadline=None)
    @given(cycles=cycles_strategy, charge_only=st.booleans())
    def test_backend_call_sequence(self, cycles, charge_only):
        """Pin the backend calls each batched call issues (method, indices,
        data, order): crash sweeps index into this sequence
        (``FaultInjectingBackend.arm``)."""
        backend = _RecordingBackend(MemoryBackend(BLOCK_SIZE, NUM_BLOCKS))
        storage = RawStorage(StorageGeometry(BLOCK_SIZE, NUM_BLOCKS), backend=backend)
        reads = [r for r, _, _, _ in cycles]
        writes = [w for _, w, _, _ in cycles]
        datas = [d for _, _, d, _ in cycles]

        storage.read_blocks(reads)
        storage.write_blocks(writes, datas)
        expected = [("read_many", reads, None), ("write_many", writes, datas)] if cycles else []
        assert backend.calls == expected

        backend.calls.clear()
        if charge_only:
            storage.read_write_blocks(reads)
            expected = []
        else:
            storage.read_write_blocks(reads, datas, write_indices=writes)
            blocks_per_cycle = [{r, w} for r, w in zip(reads, writes, strict=True)]
            touched = [block for blocks in blocks_per_cycle for block in blocks]
            if len(set(touched)) == len(touched):
                expected = [("write_many", writes, datas)] if cycles else []
            else:
                expected = [
                    call
                    for r, w, d in zip(reads, writes, datas, strict=True)
                    for call in (("read", [r], None), ("write", [w], [d]))
                ]
        assert backend.calls == expected

    def test_duplicate_write_targets_last_writer_wins(self):
        loop, batched = _timed_pair()
        batch = [(5, b"\x01" * BLOCK_SIZE), (5, b"\x02" * BLOCK_SIZE), (9, b"\x03" * BLOCK_SIZE)]
        for index, data in batch:
            loop.write_block(index, data)
        batched.write_blocks([i for i, _ in batch], [d for _, d in batch])
        _assert_identical(loop, batched)
        assert batched.peek_block(5) == b"\x02" * BLOCK_SIZE

    def test_empty_batches_are_no_ops(self):
        storage = make_storage(num_blocks=NUM_BLOCKS, block_size=BLOCK_SIZE, timed=True)
        assert storage.read_blocks([]) == []
        storage.write_blocks([], [])
        storage.read_write_blocks([], None)
        assert storage.counters.total_ops == 0
        assert len(storage.trace) == 0

    def test_partition_batched_calls_translate_indices(self):
        loop, batched = _timed_pair()
        part_loop = Partition(loop, start_block=32, num_blocks=64)
        part_batched = Partition(batched, start_block=32, num_blocks=64)
        datas = [bytes([i]) * BLOCK_SIZE for i in range(4)]
        for i, d in zip([3, 1, 60, 3], datas, strict=True):
            part_loop.write_block(i, d)
        loop_reads = [part_loop.read_block(i) for i in [3, 1, 60, 3]]
        part_batched.write_blocks([3, 1, 60, 3], datas)
        batched_reads = part_batched.read_blocks([3, 1, 60, 3])
        assert loop_reads == batched_reads
        _assert_identical(loop, batched)
        # Events are recorded with raw (translated) indices.
        assert loop.trace.events[0].index == 32 + 3


#: The batched calls, each with the defects its arguments can carry and
#: the error each defect must raise.
_DEFECTS = {
    "read_blocks": ("index -1", "index num_blocks", "streams one short"),
    "write_blocks": ("index -1", "index num_blocks", "short data", "streams one short"),
    "read_write_blocks in place": (
        "index -1",
        "index num_blocks",
        "short data",
        "streams one short",
    ),
    "read_write_blocks charge only": ("index -1", "index num_blocks", "streams one short"),
    "read_write_blocks swap": (
        "index -1",
        "index num_blocks",
        "write index -1",
        "write index num_blocks",
        "short data",
        "streams one short",
        "write_indices one long",
        "write_indices one short",
    ),
}
_ERRORS = {
    "index -1": (BlockOutOfRangeError, "outside volume"),
    "index num_blocks": (BlockOutOfRangeError, "outside volume"),
    "write index -1": (BlockOutOfRangeError, "outside volume"),
    "write index num_blocks": (BlockOutOfRangeError, "outside volume"),
    "short data": (BlockSizeMismatchError, "-byte block"),
    "streams one short": (ValueError, "streams"),
    "write_indices one long": (ValueError, "write indices"),
    "write_indices one short": (ValueError, "write indices"),
}


def _observables(storage: RawStorage) -> tuple:
    return (
        storage.raw_bytes(),
        storage.counters.snapshot(),
        storage.clock_ms,
        storage._head_position,
        len(storage.trace),
    )


class TestFailedBatchLeavesNoTrace:
    """A batched call that raises has done nothing: every index, data size
    and length is validated before the first charge, trace row or byte."""

    @settings(max_examples=120, deadline=None)
    @given(
        case=st.sampled_from(
            [(call, defect) for call, defects in _DEFECTS.items() for defect in defects]
        ),
        batch=writes_strategy.filter(bool),
        draw=st.data(),
    )
    def test_failed_batch_changes_nothing(self, case, batch, draw):
        call, defect = case
        storage = make_storage(num_blocks=NUM_BLOCKS, block_size=BLOCK_SIZE, timed=True)
        # Some history first, so head, clock and trace are not at their zeros.
        storage.read_block(7, "h")
        storage.write_block(40, b"\x07" * BLOCK_SIZE, "h")

        count = len(batch)
        indices = [i for i, _ in batch]
        datas = [d for _, d in batch]
        write_indices = draw.draw(
            st.lists(st.integers(0, NUM_BLOCKS - 1), min_size=count, max_size=count)
        )
        streams = draw.draw(st.lists(stream_strategy, min_size=count, max_size=count))
        position = draw.draw(st.integers(0, count - 1))
        bad_index = -1 if defect.endswith("-1") else NUM_BLOCKS
        if defect.startswith("index"):
            indices[position] = bad_index
        elif defect.startswith("write index"):
            write_indices[position] = bad_index
        elif defect == "short data":
            datas[position] = datas[position][:-1]
        elif defect == "streams one short":
            del streams[position]
        elif defect == "write_indices one long":
            write_indices.insert(position, 0)
        else:
            del write_indices[position]

        before = _observables(storage)
        error, message = _ERRORS[defect]
        with pytest.raises(error, match=message):
            if call == "read_blocks":
                storage.read_blocks(indices, streams)
            elif call == "write_blocks":
                storage.write_blocks(indices, datas, streams)
            elif call == "read_write_blocks in place":
                storage.read_write_blocks(indices, datas, streams)
            elif call == "read_write_blocks charge only":
                storage.read_write_blocks(indices, None, streams)
            else:
                storage.read_write_blocks(indices, datas, streams, write_indices=write_indices)
        assert _observables(storage) == before


class TestGeometryFromCapacity:
    def test_exact_multiple(self):
        assert StorageGeometry.from_capacity(4096 * 10, 4096).num_blocks == 10

    def test_non_multiple_rounds_up(self):
        geometry = StorageGeometry.from_capacity(4096 * 10 + 1, 4096)
        assert geometry.num_blocks == 11
        assert geometry.capacity_bytes >= 4096 * 10 + 1

    def test_tiny_capacity_still_one_block(self):
        assert StorageGeometry.from_capacity(1, 4096).num_blocks == 1

    def test_non_positive_capacity_raises(self):
        # Regression: these used to be silently clamped to a 1-block
        # geometry, hiding sizing bugs at the caller.
        with pytest.raises(ValueError):
            StorageGeometry.from_capacity(0, 4096)
        with pytest.raises(ValueError):
            StorageGeometry.from_capacity(-4096, 4096)

    def test_never_smaller_than_requested(self):
        for capacity in [1, 511, 512, 513, 4095, 4096, 4097, 1_000_000]:
            geometry = StorageGeometry.from_capacity(capacity, 512)
            assert geometry.capacity_bytes >= capacity


_FIELD = bytes(range(256)) * 16


class TestVectorizedCipherEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        key=st.binary(min_size=1, max_size=32),
        iv=st.binary(min_size=1, max_size=16),
        plaintext=st.binary(min_size=0, max_size=200),
    )
    # The sizes single-block callers seal: the 496- and 4080-byte data
    # fields of 512 B and 4 KiB blocks (4080 is also a sealed journal
    # record), plus edge sizes and a mutable buffer.
    @example(key=b"k", iv=bytes(16), plaintext=_FIELD[:0])
    @example(key=b"k", iv=bytes(16), plaintext=_FIELD[:1])
    @example(key=b"k", iv=bytes(16), plaintext=_FIELD[:7])
    @example(key=b"k", iv=bytes(16), plaintext=_FIELD[:496])
    @example(key=b"k", iv=bytes(16), plaintext=_FIELD[:4080])
    @example(key=b"k", iv=bytes(16), plaintext=_FIELD)
    @example(key=b"k", iv=bytes(16), plaintext=bytearray(_FIELD[:4080]))
    def test_encrypt_matches_reference(self, key, iv, plaintext):
        fast = FastFieldCipher(key)
        reference = ReferenceFieldCipher(key)
        assert fast.encrypt(iv, plaintext) == reference.encrypt(iv, plaintext)
        assert fast.decrypt(iv, fast.encrypt(iv, plaintext)) == plaintext

    @settings(max_examples=25, deadline=None)
    @given(
        key=st.binary(min_size=1, max_size=32),
        batch=st.lists(
            st.tuples(st.binary(min_size=1, max_size=16), st.binary(min_size=0, max_size=100)),
            min_size=0,
            max_size=10,
        ),
    )
    def test_encrypt_many_matches_singles(self, key, batch):
        fast = FastFieldCipher(key)
        ivs = [iv for iv, _ in batch]
        plaintexts = [pt for _, pt in batch]
        expected = [fast.encrypt(iv, pt) for iv, pt in batch]
        assert fast.encrypt_many(ivs, plaintexts) == expected
        assert fast.decrypt_many(ivs, expected) == plaintexts

    def test_mismatched_batch_lengths_rejected(self):
        fast = FastFieldCipher(b"key")
        try:
            fast.encrypt_many([b"iv"], [])
        except ValueError:
            pass
        else:
            raise AssertionError("length mismatch was not rejected")


class TestBitmapScanEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        size=st.integers(1, 200),
        set_bits=st.lists(st.integers(0, 10_000), max_size=60),
        start=st.integers(0, 199),
        run_length=st.integers(1, 12),
    )
    def test_scans_match_reference(self, size, set_bits, start, run_length):
        bitmap = Bitmap(size)
        for bit in set_bits:
            bitmap.set(bit % size)
        reference = [bool(bitmap.get(i)) for i in range(size)]

        assert list(bitmap.iter_set()) == [i for i, b in enumerate(reference) if b]
        assert list(bitmap.iter_clear()) == [i for i, b in enumerate(reference) if not b]

        expected_first_clear = next(
            (i for i in range(start, size) if not reference[i]), None
        )
        assert bitmap.first_clear(start) == expected_first_clear

        expected_run = None
        run_start, run_len = None, 0
        for i in range(start, size):
            if reference[i]:
                run_start, run_len = None, 0
                continue
            if run_start is None:
                run_start = i
            run_len += 1
            if run_len >= run_length:
                expected_run = run_start
                break
        assert bitmap.find_clear_run(run_length, start) == expected_run


def _twin_volumes(num_blocks: int = 512) -> tuple[StegFsVolume, StegFsVolume]:
    """Two byte-identical volumes over separate timed storages."""
    volumes = []
    for _ in range(2):
        storage = make_storage(num_blocks=num_blocks, timed=True)
        volumes.append(StegFsVolume(RawDevice(storage), Sha256Prng("twin").spawn("volume")))
    return volumes[0], volumes[1]


class TestVolumeBatchedPaths:
    def test_write_payloads_matches_write_payload_loop(self):
        batched_volume, loop_volume = _twin_volumes()
        key = b"k" * 32
        payloads = [bytes([i]) * 10 for i in range(6)]
        indices = [9, 2, 77, 3, 400, 41]
        for index, payload in zip(indices, payloads, strict=True):
            loop_volume.write_payload(index, key, payload, "s")
        batched_volume.write_payloads(indices, key, payloads, "s")
        _assert_identical(loop_volume.device.storage, batched_volume.device.storage)

    def test_read_payloads_matches_read_payload_loop(self):
        batched_volume, loop_volume = _twin_volumes()
        key = b"k" * 32
        payloads = [bytes([i]) * 10 for i in range(6)]
        indices = [9, 2, 77, 3, 400, 41]
        loop_volume.write_payloads(indices, key, payloads, "w")
        batched_volume.write_payloads(indices, key, payloads, "w")
        expected = [loop_volume.read_payload(i, key, "r") for i in indices]
        got = batched_volume.read_payloads(indices, key, "r")
        assert got == expected
        _assert_identical(loop_volume.device.storage, batched_volume.device.storage)

    def test_read_file_matches_per_block_loop(self):
        batched_volume, loop_volume = _twin_volumes()
        content = bytes(range(256)) * 8
        handles = []
        for volume in (batched_volume, loop_volume):
            fak = FileAccessKey.generate(Sha256Prng("fak").spawn("f"))
            handles.append(volume.create_file(fak, "/file", content))
        batched_handle, loop_handle = handles
        # The pre-pipeline read_file was exactly this per-block loop.
        pieces = [
            loop_volume.read_block(loop_handle, logical)
            for logical in range(loop_handle.num_blocks)
        ]
        expected = b"".join(pieces)[: loop_handle.size_bytes]
        assert batched_volume.read_file(batched_handle) == expected == content
        _assert_identical(loop_volume.device.storage, batched_volume.device.storage)


class TestUpdateRangeEquivalence:
    def _system(self):
        storage = make_storage(num_blocks=512, timed=True)
        prng = Sha256Prng("update-range")
        volume = StegFsVolume(RawDevice(storage), prng.spawn("volume"))
        agent = NonVolatileAgent(volume, prng.spawn("agent"))
        fak = FileAccessKey.generate(prng.spawn("fak"))
        content = bytes(range(256)) * 20
        handle = agent.create_file(fak, "/data", content)
        return storage, agent, handle

    def test_update_range_matches_update_block_loop(self):
        storage_a, agent_a, handle_a = self._system()
        storage_b, agent_b, handle_b = self._system()
        payloads = [bytes([0xA0 + i]) * 30 for i in range(5)]

        results_loop = [
            agent_a.update_block(handle_a, 2 + offset, payload, "u")
            for offset, payload in enumerate(payloads)
        ]
        results_batched = agent_b.update_range(handle_b, 2, payloads, "u")

        assert results_batched == results_loop
        assert handle_a.header.block_pointers == handle_b.header.block_pointers
        _assert_identical(storage_a, storage_b)

    def test_mid_range_failure_commits_earlier_updates(self):
        """An error while planning a later update must leave every earlier
        update fully written to the device, exactly like the plain loop."""
        storage_a, agent_a, handle_a = self._system()
        storage_b, agent_b, handle_b = self._system()
        num_blocks = handle_a.num_blocks
        payloads = [bytes([i % 256]) * 30 for i in range(num_blocks)]  # runs past EOF

        with pytest.raises(IndexError):
            for offset, payload in enumerate(payloads):
                agent_a.update_block(handle_a, num_blocks - 2 + offset, payload, "u")
        with pytest.raises(IndexError):
            agent_b.update_range(handle_b, num_blocks - 2, payloads, "u")

        assert handle_a.header.block_pointers == handle_b.header.block_pointers
        _assert_identical(storage_a, storage_b)
        # The two in-range updates are committed and readable.
        content = agent_b.read_file(handle_b)
        field = agent_b.volume.data_field_bytes
        for i, logical in enumerate([num_blocks - 2, num_blocks - 1]):
            assert content[logical * field : logical * field + 30] == payloads[i][:30]


class _SingleBlockDevice:
    """A BlockDevice whose batched calls are the documented per-block loops.

    It is the reference order the batched device calls must reproduce:
    ``read_blocks``/``write_blocks`` are one single-block call per entry,
    and each ``read_write_blocks`` cycle is one ``read_block`` followed
    by one ``write_block``, in entry order.
    """

    def __init__(self, inner):
        self._inner = inner
        self.storage = inner.storage

    @property
    def block_size(self):
        return self._inner.block_size

    @property
    def num_blocks(self):
        return self._inner.num_blocks

    def read_block(self, index, stream="default"):
        return self._inner.read_block(index, stream)

    def write_block(self, index, data, stream="default"):
        self._inner.write_block(index, data, stream)

    def read_blocks(self, indices, stream="default"):
        indices = list(indices)
        labels = _streams(stream, len(indices))
        return [self.read_block(index, label) for index, label in zip(indices, labels, strict=True)]

    def write_blocks(self, indices, datas, stream="default"):
        indices = list(indices)
        labels = _streams(stream, len(indices))
        for index, data, label in zip(indices, datas, labels, strict=True):
            self.write_block(index, data, label)

    def read_write_blocks(self, indices, datas=None, stream="default", write_indices=None):
        indices = list(indices)
        targets = indices if write_indices is None else list(write_indices)
        datas = [None] * len(indices) if datas is None else datas
        labels = _streams(stream, len(indices))
        for index, target, data, label in zip(indices, targets, datas, labels, strict=True):
            raw = self.read_block(index, label)
            self.write_block(target, raw if data is None else data, label)

    def peek_block(self, index):
        return self._inner.peek_block(index)


def _streams(stream, count):
    """One stream label per entry, as the batched device calls accept them."""
    return [stream] * count if isinstance(stream, str) else list(stream)


class TestObliviousShuffleEquivalence:
    def _run(self, batched: bool) -> RawStorage:
        storage = make_storage(num_blocks=1024, timed=True)
        _, oblivious_part = split_volume(storage, 512)
        device = oblivious_part if batched else _SingleBlockDevice(oblivious_part)
        store = ObliviousStore(
            device,
            ObliviousStoreConfig(buffer_blocks=4, last_level_blocks=64),
            Sha256Prng("shuffle-equivalence"),
        )
        for logical in range(24):
            store.insert(logical, bytes([logical]) * store.payload_bytes)
        for logical in range(0, 24, 3):
            store.read(logical)
            store.write(logical, bytes([logical ^ 0xFF]) * store.payload_bytes)
        return storage

    def test_batched_shuffle_matches_single_block_loop(self):
        loop_storage = self._run(batched=False)
        batched_storage = self._run(batched=True)
        _assert_identical(loop_storage, batched_storage)
