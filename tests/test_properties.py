"""Property-based tests (hypothesis) on the core data structures and invariants."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.crypto.aes import AES
from repro.crypto.cbc import CbcCipher
from repro.crypto.cipher import FastFieldCipher
from repro.crypto.keys import derive_header_location, probe_sequence
from repro.crypto.prng import Sha256Prng
from repro.crypto.util import pkcs7_pad, pkcs7_unpad
from repro.stegfs.constants import pointers_per_header
from repro.stegfs.header import FileHeader
from repro.storage.bitmap import Bitmap
from repro.storage.block import StoredBlock

_SLOW = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestCryptoProperties:
    @given(key=st.binary(min_size=16, max_size=16), block=st.binary(min_size=16, max_size=16))
    @_SLOW
    def test_aes_roundtrip(self, key, block):
        cipher = AES(key)
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block

    @given(
        key=st.sampled_from([b"k" * 16, b"q" * 24, b"z" * 32]),
        iv=st.binary(min_size=1, max_size=32),
        message=st.binary(min_size=0, max_size=200),
    )
    @_SLOW
    def test_cbc_roundtrip_arbitrary_messages(self, key, iv, message):
        cipher = CbcCipher(key)
        assert cipher.decrypt(iv, cipher.encrypt(iv, message)) == message

    @given(
        key=st.binary(min_size=1, max_size=64),
        iv=st.binary(min_size=1, max_size=32),
        message=st.binary(min_size=0, max_size=512),
    )
    @_SLOW
    def test_fast_cipher_roundtrip_and_length(self, key, iv, message):
        cipher = FastFieldCipher(key)
        ciphertext = cipher.encrypt(iv, message)
        assert len(ciphertext) == len(message)
        assert cipher.decrypt(iv, ciphertext) == message

    @given(data=st.binary(min_size=0, max_size=100))
    @_SLOW
    def test_pkcs7_roundtrip(self, data):
        assert pkcs7_unpad(pkcs7_pad(data)) == data

    @given(seed=st.binary(min_size=1, max_size=32), n=st.integers(min_value=0, max_value=500))
    @_SLOW
    def test_prng_reproducibility(self, seed, n):
        assert Sha256Prng(seed).random_bytes(n) == Sha256Prng(seed).random_bytes(n)

    @given(
        seed=st.binary(min_size=1, max_size=16),
        upper=st.integers(min_value=1, max_value=10_000),
    )
    @_SLOW
    def test_prng_randrange_bounds(self, seed, upper):
        prng = Sha256Prng(seed)
        assert all(0 <= prng.randrange(upper) < upper for _ in range(20))

    @given(seed=st.binary(min_size=1, max_size=16), size=st.integers(min_value=0, max_value=200))
    @_SLOW
    def test_prng_shuffle_is_permutation(self, seed, size):
        items = list(range(size))
        shuffled = list(items)
        Sha256Prng(seed).shuffle(shuffled)
        assert sorted(shuffled) == items

    @given(
        secret=st.binary(min_size=1, max_size=64),
        path=st.text(min_size=0, max_size=64),
        volume=st.integers(min_value=1, max_value=100_000),
    )
    @_SLOW
    def test_header_location_always_in_range(self, secret, path, volume):
        assert 0 <= derive_header_location(secret, path, volume) < volume

    @given(
        secret=st.binary(min_size=1, max_size=32),
        path=st.text(min_size=0, max_size=32),
        volume=st.integers(min_value=1, max_value=5_000),
        limit=st.integers(min_value=1, max_value=64),
    )
    @_SLOW
    def test_probe_sequence_distinct_and_in_range(self, secret, path, volume, limit):
        sequence = probe_sequence(secret, path, volume, limit)
        assert len(sequence) == min(limit, volume)
        assert len(set(sequence)) == len(sequence)
        assert all(0 <= index < volume for index in sequence)


class TestStorageProperties:
    @given(
        iv=st.binary(min_size=16, max_size=16),
        payload=st.binary(min_size=0, max_size=300),
        key=st.binary(min_size=1, max_size=32),
    )
    @_SLOW
    def test_stored_block_seal_open_roundtrip(self, iv, payload, key):
        cipher = FastFieldCipher(key)
        block = StoredBlock.seal(cipher, iv, payload)
        assert block.open(cipher) == payload
        assert StoredBlock.from_raw(block.raw) == block

    @given(
        size=st.integers(min_value=1, max_value=300),
        operations=st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=299)), max_size=100
        ),
    )
    @_SLOW
    def test_bitmap_count_invariant(self, size, operations):
        bitmap = Bitmap(size)
        reference: set[int] = set()
        for set_it, index in operations:
            if index >= size:
                continue
            if set_it:
                bitmap.set(index)
                reference.add(index)
            else:
                bitmap.clear(index)
                reference.discard(index)
        assert bitmap.set_count == len(reference)
        assert set(bitmap.iter_set()) == reference


class TestHeaderProperties:
    @given(
        pointers=st.lists(st.integers(min_value=0, max_value=2**40), min_size=0, max_size=300),
        file_size=st.integers(min_value=0, max_value=2**40),
        is_dummy=st.booleans(),
    )
    @_SLOW
    def test_header_serialise_parse_roundtrip(self, pointers, file_size, is_dummy):
        data_field = 496
        header = FileHeader(
            path="/property/file",
            file_size=file_size,
            block_pointers=list(pointers),
            header_blocks=[],
            is_dummy=is_dummy,
        )
        needed = header.headers_needed(data_field)
        header.header_blocks = list(range(1_000_000, 1_000_000 + needed))
        payloads = header.serialise(data_field)
        chunks = [FileHeader.parse_chunk(p) for p in payloads]
        rebuilt = FileHeader.from_chunks("/property/file", chunks, header.header_blocks)
        assert rebuilt.block_pointers == list(pointers)
        assert rebuilt.file_size == file_size
        assert rebuilt.is_dummy == is_dummy

    @given(per_block_payload=st.integers(min_value=120, max_value=4096))
    @_SLOW
    def test_pointers_per_header_positive(self, per_block_payload):
        assert pointers_per_header(per_block_payload) >= 1


class TestUpdateAlgorithmProperties:
    @given(seed=st.integers(min_value=0, max_value=10_000))
    @_SLOW
    def test_figure6_update_preserves_file_content(self, seed):
        """After any sequence of updates, the file reads back exactly what was written."""
        from repro.core.nonvolatile import NonVolatileAgent
        from repro.crypto.keys import FileAccessKey
        from repro.stegfs.filesystem import StegFsVolume
        from repro.storage.device import RawDevice
        from conftest import make_storage

        storage = make_storage(num_blocks=128)
        prng = Sha256Prng(seed)
        volume = StegFsVolume(RawDevice(storage), prng.spawn("volume"))
        agent = NonVolatileAgent(volume, prng.spawn("agent"))
        fak = FileAccessKey.generate(prng.spawn("fak"))
        payload_bytes = volume.data_field_bytes
        blocks = 5
        expected = [bytes([i]) * payload_bytes for i in range(blocks)]
        handle = agent.create_file(fak, "/prop", b"".join(expected))

        workload_prng = prng.spawn("workload")
        for _ in range(10):
            logical = workload_prng.randrange(blocks)
            fill = workload_prng.randrange(256)
            expected[logical] = bytes([fill]) * payload_bytes
            agent.update_block(handle, logical, expected[logical])

        assert agent.read_file(handle) == b"".join(expected)
        # Invariant: the allocation table size equals the number of live blocks.
        assert volume.allocator.used_blocks == len(handle.header.all_blocks())

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @_SLOW
    def test_update_never_corrupts_other_files(self, seed):
        from repro.core.nonvolatile import NonVolatileAgent
        from repro.crypto.keys import FileAccessKey
        from repro.stegfs.filesystem import StegFsVolume
        from repro.storage.device import RawDevice
        from conftest import make_storage

        storage = make_storage(num_blocks=256)
        prng = Sha256Prng(seed)
        volume = StegFsVolume(RawDevice(storage), prng.spawn("volume"))
        agent = NonVolatileAgent(volume, prng.spawn("agent"))
        payload = volume.data_field_bytes
        bystander_content = b"B" * payload * 4
        bystander = agent.create_file(
            FileAccessKey.generate(prng.spawn("f1")), "/bystander", bystander_content
        )
        target = agent.create_file(
            FileAccessKey.generate(prng.spawn("f2")), "/target", b"T" * payload * 4
        )
        workload_prng = prng.spawn("updates")
        for _ in range(15):
            agent.update_block(target, workload_prng.randrange(4), b"N" * payload)
        assert agent.read_file(bystander) == bystander_content


class TestObliviousStoreProperties:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        count=st.integers(min_value=1, max_value=60),
    )
    @_SLOW
    def test_cache_never_loses_or_corrupts_blocks(self, seed, count):
        from repro.core.oblivious.store import ObliviousStore, ObliviousStoreConfig
        from repro.storage.device import split_volume
        from conftest import make_storage

        storage = make_storage(num_blocks=512)
        _, obli_part = split_volume(storage, 128)
        prng = Sha256Prng(seed)
        store = ObliviousStore(
            obli_part,
            ObliviousStoreConfig(buffer_blocks=4, last_level_blocks=64),
            prng.spawn("store"),
        )
        expected = {}
        for logical in range(count):
            payload = bytes([logical % 256]) * store.payload_bytes
            expected[logical] = payload
            store.insert(logical, payload)
        for logical, payload in expected.items():
            if store.contains(logical):
                assert store.read(logical) == payload
        # Nothing should have been evicted below the last level's capacity.
        if count <= 64:
            assert all(store.contains(logical) for logical in expected)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @_SLOW
    def test_reads_survive_eviction_past_the_last_level(self, seed):
        """More ids than the last level holds: evictions must drop only the dropped copy.

        Each operation inserts an uncached id (as the oblivious reader
        does after a StegFS read) or reads a cached one.  A read leaves a
        fresh copy in the buffer while a stale one sits deeper, so the
        last level soon evicts ids that are still cached higher up.
        """
        from repro.core.oblivious.store import ObliviousStore, ObliviousStoreConfig
        from repro.storage.device import split_volume
        from conftest import make_storage

        storage = make_storage(num_blocks=512)
        _, obli_part = split_volume(storage, 128)
        prng = Sha256Prng(seed)
        store = ObliviousStore(
            obli_part,
            ObliviousStoreConfig(buffer_blocks=4, last_level_blocks=64),
            prng.spawn("store"),
        )
        ops = prng.spawn("ops")
        expected = {}
        for step in range(300):
            logical = ops.randrange(120)
            if store.contains(logical):
                assert store.read(logical) == expected[logical]
            else:
                expected[logical] = f"{logical}@{step}".encode().ljust(store.payload_bytes, b".")
                store.insert(logical, expected[logical])
