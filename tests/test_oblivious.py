"""Unit tests for the oblivious storage: cost model, levels, store, reader."""

from __future__ import annotations

import pytest

from repro.core.oblivious.cost import (
    ObliviousCostModel,
    oblivious_height,
    overhead_factor,
    retrieval_overhead,
    sorting_overhead,
)
from repro.core.oblivious.hashindex import LevelHashIndex
from repro.core.oblivious.level import Level
from repro.core.oblivious.mergesort import external_merge_sort_passes, merge_sort_io_count
from repro.core.oblivious.reader import ObliviousReader
from repro.core.oblivious.store import ObliviousStore, ObliviousStoreConfig
from repro.crypto.keys import FileAccessKey
from repro.crypto.prng import Sha256Prng
from repro.errors import BlockNotCachedError, LevelFullError, ObliviousStorageError
from repro.stegfs.filesystem import StegFsVolume
from repro.storage.device import split_volume

from conftest import make_storage


class TestCostModel:
    def test_paper_table4_heights(self):
        """Table 4: buffer 8M..128M against a 1 GB last level gives heights 7..3."""
        gib_blocks = (1024 * 1024 * 1024) // 4096
        for buffer_mib, expected_height in [(8, 7), (16, 6), (32, 5), (64, 4), (128, 3)]:
            buffer_blocks = (buffer_mib * 1024 * 1024) // 4096
            assert oblivious_height(gib_blocks, buffer_blocks) == expected_height

    def test_paper_table4_overhead_factors(self):
        gib_blocks = (1024 * 1024 * 1024) // 4096
        for buffer_mib, expected_overhead in [(8, 70), (16, 60), (32, 50), (64, 40), (128, 30)]:
            buffer_blocks = (buffer_mib * 1024 * 1024) // 4096
            assert overhead_factor(gib_blocks, buffer_blocks) == pytest.approx(expected_overhead)

    def test_components(self):
        assert retrieval_overhead(7) == 14
        assert sorting_overhead(7) == 56
        assert retrieval_overhead(7) + sorting_overhead(7) == 70

    def test_cost_model_bundle(self):
        model = ObliviousCostModel(last_level_blocks=1024, buffer_blocks=8)
        assert model.height == 7
        assert model.total == pytest.approx(70)
        assert model.total_slots == (2**8 - 2) * 8

    def test_validation(self):
        with pytest.raises(ValueError):
            oblivious_height(10, 0)
        with pytest.raises(ValueError):
            oblivious_height(10, 8)  # last level smaller than 2x buffer


class TestMergeSort:
    def test_single_pass_when_fits_in_buffer(self):
        assert external_merge_sort_passes(10, 16) == 1

    def test_two_passes_for_moderate_sizes(self):
        assert external_merge_sort_passes(100, 16) == 2

    def test_pass_count_grows_slowly(self):
        assert external_merge_sort_passes(16 * 15 * 15, 16) == 3

    def test_io_count(self):
        assert merge_sort_io_count(100, 16) == 2 * 100 * 2

    def test_zero_blocks(self):
        assert external_merge_sort_passes(0, 16) == 0

    def test_tiny_buffer_rejected(self):
        with pytest.raises(ValueError):
            external_merge_sort_passes(10, 1)


class TestLevelHashIndex:
    def test_insert_lookup_remove(self):
        index = LevelHashIndex(Sha256Prng(1))
        index.insert(42, 7)
        assert index.lookup(42) == 7
        assert 42 in index
        index.remove(42)
        assert index.lookup(42) is None
        assert 42 not in index

    def test_rebuild_replaces_contents_and_salt(self):
        index = LevelHashIndex(Sha256Prng(2))
        index.insert(1, 0)
        index.rebuild({2: 5, 3: 6})
        assert index.lookup(1) is None
        assert index.lookup(2) == 5
        assert index.logical_ids() == {2, 3}
        assert len(index) == 2


class TestLevel:
    def test_create_and_install(self):
        level = Level.create(number=1, capacity=8, first_slot=0, prng=Sha256Prng(3))
        assert level.is_empty
        level.install({10: 0, 11: 3}, new_key=b"k" * 32)
        assert level.occupied == 2
        assert level.contains(10)
        assert level.slot_of(11) == 3
        assert level.shuffles == 1

    def test_slot_offset_by_first_slot(self):
        level = Level.create(number=2, capacity=4, first_slot=100, prng=Sha256Prng(4))
        level.install({5: 2}, new_key=b"k" * 32)
        assert level.slot_of(5) == 102
        assert list(level.slot_range()) == [100, 101, 102, 103]

    def test_install_capacity_check(self):
        level = Level.create(number=1, capacity=2, first_slot=0, prng=Sha256Prng(5))
        with pytest.raises(LevelFullError):
            level.install({1: 0, 2: 1, 3: 2}, new_key=b"k" * 32)
        with pytest.raises(LevelFullError):
            level.install({1: 5}, new_key=b"k" * 32)

    def test_clear(self):
        level = Level.create(number=1, capacity=4, first_slot=0, prng=Sha256Prng(6))
        level.install({1: 0}, new_key=b"k" * 32)
        level.clear()
        assert level.is_empty
        assert not level.contains(1)

    def test_has_room_for(self):
        level = Level.create(number=1, capacity=4, first_slot=0, prng=Sha256Prng(7))
        level.install({1: 0, 2: 1}, new_key=b"k" * 32)
        assert level.has_room_for(2)
        assert not level.has_room_for(3)


def _make_store(num_blocks=1024, buffer_blocks=4, last_level_blocks=64):
    storage = make_storage(num_blocks=num_blocks)
    steg_part, obli_part = split_volume(storage, num_blocks // 2)
    prng = Sha256Prng("oblivious-test")
    volume = StegFsVolume(steg_part, prng.spawn("volume"))
    config = ObliviousStoreConfig(buffer_blocks=buffer_blocks, last_level_blocks=last_level_blocks)
    store = ObliviousStore(obli_part, config, prng.spawn("store"))
    return storage, volume, store, prng


class TestObliviousStore:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ObliviousStoreConfig(buffer_blocks=1, last_level_blocks=64)
        with pytest.raises(ValueError):
            ObliviousStoreConfig(buffer_blocks=32, last_level_blocks=32)

    def test_hierarchy_shape(self):
        _, _, store, _ = _make_store(buffer_blocks=4, last_level_blocks=64)
        assert store.height == 4
        assert [level.capacity for level in store.levels] == [8, 16, 32, 64]

    def test_partition_too_small_rejected(self):
        storage = make_storage(num_blocks=64)
        _, obli_part = split_volume(storage, 32)
        config = ObliviousStoreConfig(buffer_blocks=8, last_level_blocks=64)
        with pytest.raises(ObliviousStorageError):
            ObliviousStore(obli_part, config, Sha256Prng(1))

    def test_insert_then_read_roundtrip(self):
        _, _, store, _ = _make_store()
        payload = b"cached payload".ljust(store.payload_bytes, b"\x00")
        store.insert(123, payload)
        assert store.contains(123)
        assert store.read(123) == payload

    def test_read_uncached_raises(self):
        _, _, store, _ = _make_store()
        with pytest.raises(BlockNotCachedError):
            store.read(999)

    def test_buffer_spills_into_level1(self):
        _, _, store, _ = _make_store(buffer_blocks=4)
        for logical in range(4):
            store.insert(logical, bytes([logical]) * store.payload_bytes)
        # Buffer reached its capacity and was flushed into level 1.
        assert store.levels[0].occupied == 4
        assert store.stats.shuffles >= 1
        for logical in range(4):
            assert store.read(logical) == bytes([logical]) * store.payload_bytes

    def test_contents_survive_cascading_dumps(self):
        _, _, store, _ = _make_store(buffer_blocks=4, last_level_blocks=64)
        count = 40
        for logical in range(count):
            store.insert(logical, logical.to_bytes(2, "big") * (store.payload_bytes // 2))
        for logical in range(count):
            assert store.read(logical) == logical.to_bytes(2, "big") * (store.payload_bytes // 2)

    def test_every_read_probes_every_nonempty_level(self):
        storage, _, store, _ = _make_store(buffer_blocks=4, last_level_blocks=64)
        for logical in range(20):
            store.insert(logical, b"\x01" * store.payload_bytes)
        non_empty = sum(1 for level in store.levels if not level.is_empty or level.shuffles > 0)
        before = store.stats.retrieval_reads
        # Read something that is in a level (not the buffer).
        buffered = set(store._buffer)
        target = next(lid for lid in range(20) if lid not in buffered)
        store.read(target)
        assert store.stats.retrieval_reads - before == non_empty

    def test_write_updates_cached_copy(self):
        _, _, store, _ = _make_store()
        store.insert(5, b"\x00" * store.payload_bytes)
        store.write(5, b"\xff" * store.payload_bytes)
        assert store.read(5) == b"\xff" * store.payload_bytes

    def test_dummy_read_costs_like_real_read(self):
        _, _, store, _ = _make_store(buffer_blocks=4)
        for logical in range(8):
            store.insert(logical, b"\x01" * store.payload_bytes)
        before = store.stats.retrieval_reads
        store.dummy_read()
        probes_dummy = store.stats.retrieval_reads - before
        buffered = set(store._buffer)
        target = next(lid for lid in range(8) if lid not in buffered)
        before = store.stats.retrieval_reads
        store.read(target)
        probes_real = store.stats.retrieval_reads - before
        assert probes_dummy == probes_real

    def test_sort_io_is_charged(self):
        _, _, store, _ = _make_store(buffer_blocks=4)
        for logical in range(4):
            store.insert(logical, b"\x01" * store.payload_bytes)
        assert store.stats.sort_reads > 0
        assert store.stats.sort_writes > 0

    def test_oversized_payload_rejected(self):
        _, _, store, _ = _make_store()
        with pytest.raises(ValueError):
            store.insert(1, b"x" * (store.payload_bytes + 1))

    def test_write_probes_every_level_exactly_like_read(self):
        """Regression: write() must not stop probing at the level of the hit.

        An earlier version broke out of the level loop after the real
        probe, so levels below the hit got no random probes and a write
        was observationally distinguishable from a read.  Reads and
        writes must issue identical per-level probe counts.
        """
        storage, _, store, _ = _make_store(buffer_blocks=4, last_level_blocks=64)
        for logical in range(20):
            store.insert(logical, b"\x01" * store.payload_bytes)

        partition_start = store.device.start_block

        def probes_per_level(events):
            counts = []
            for level in store.levels:
                slots = {partition_start + slot for slot in level.slot_range()}
                counts.append(sum(1 for e in events if e.index in slots))
            return counts

        def retrieval_events_of(action):
            before = len(storage.trace)
            action()
            # Only the probe traffic; shuffle I/O runs on the "-sort" stream.
            return [e for e in storage.trace.events[before:] if e.stream == "oblivious"]

        target = next(lid for lid in range(20) if lid not in store._buffer)
        read_counts = probes_per_level(retrieval_events_of(lambda: store.read(target)))

        target = next(lid for lid in range(20) if lid not in store._buffer)
        write_counts = probes_per_level(
            retrieval_events_of(lambda: store.write(target, b"\x02" * store.payload_bytes))
        )

        assert read_counts == write_counts
        # Every level that has ever been shuffled gets exactly one probe.
        expected = [1 if (not lvl.is_empty or lvl.shuffles > 0) else 0 for lvl in store.levels]
        assert write_counts == expected
        assert sum(write_counts) > 1

    def test_eviction_when_working_set_exceeds_last_level(self):
        _, _, store, _ = _make_store(buffer_blocks=4, last_level_blocks=16)
        for logical in range(64):
            store.insert(logical, b"\x01" * store.payload_bytes)
        assert store.stats.evictions > 0
        # Recent blocks must still be cached.
        assert store.contains(63)


class TestObliviousReader:
    def _setup(self):
        storage, volume, store, prng = _make_store(
            num_blocks=2048, buffer_blocks=8, last_level_blocks=256
        )
        fak = FileAccessKey.generate(prng.spawn("file"))
        content = bytes(range(256)) * 60
        handle = volume.create_file(fak, "/data", content)
        reader = ObliviousReader(volume, store, prng.spawn("reader"))
        return storage, volume, store, reader, handle, content

    def test_read_file_through_oblivious_path(self):
        _, _, _, reader, handle, content = self._setup()
        assert reader.read_file(handle) == content

    def test_second_read_served_from_cache(self):
        _, volume, store, reader, handle, content = self._setup()
        reader.read_file(handle)
        stegfs_reads_after_first = reader.stats.stegfs_reads
        assert reader.read_file(handle) == content
        # No further copies from the StegFS partition were needed.
        assert reader.stats.stegfs_reads == stegfs_reads_after_first
        assert reader.stats.oblivious_reads > 0

    def test_each_block_copied_from_stegfs_at_most_once(self):
        _, _, _, reader, handle, _ = self._setup()
        reader.read_file(handle)
        reader.read_file(handle)
        assert reader.stats.copies_in <= handle.num_blocks

    def test_write_through_keeps_stegfs_consistent(self):
        _, volume, _, reader, handle, _ = self._setup()
        reader.read_file(handle)
        reader.write_block(handle, 0, b"updated through cache")
        # The StegFS partition copy was updated too.
        assert volume.read_block(handle, 0).startswith(b"updated through cache")
        assert reader.read_block(handle, 0).startswith(b"updated through cache")

    def test_dummy_reads_generate_io(self):
        storage, _, _, reader, handle, _ = self._setup()
        before = storage.counters.reads
        reader.dummy_read()
        assert storage.counters.reads == before + 1
        reader.read_file(handle)
        before = storage.counters.reads
        reader.dummy_oblivious_read()
        assert storage.counters.reads > before
