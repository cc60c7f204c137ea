"""Durable volumes: BlockBackend implementations and the service lifecycle.

The contract under test (ISSUE 4):

* ``MemoryBackend`` is bit-identical to the pre-split ``RawStorage``
  (the hypothesis trace tests in ``test_batched_io.py`` /
  ``test_trace_columnar.py`` pin this from the other side; here we pin
  memory vs mmap against *each other*);
* ``MmapFileBackend`` persists: create a file-backed volume, write
  hidden and decoy files, ``close()``, reopen the file with
  ``HiddenVolumeService.open`` in a fresh service object and read back
  bit-identical contents with the saved key ring;
* a wrong key ring (or, for the non-volatile agent, a wrong seed)
  recovers nothing;
* ``flush`` persists mid-session, ``close`` is idempotent, and both
  service and sessions work as context managers.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    HiddenFileNotFoundError,
    HiddenVolumeService,
    KeyRing,
    MemoryBackend,
    MmapFileBackend,
    RawStorage,
    Sha256Prng,
    StorageGeometry,
)
from repro.crypto.keys import FileAccessKey
from repro.errors import BackendClosedError, ServiceClosedError, VolumeFileError

BLOCK = 512


def small_geometry(num_blocks: int = 64) -> StorageGeometry:
    return StorageGeometry(block_size=BLOCK, num_blocks=num_blocks)


class TestBackendEquivalence:
    """MemoryBackend and MmapFileBackend move bytes identically."""

    def _pair(self, tmp_path, num_blocks=64):
        memory = MemoryBackend(BLOCK, num_blocks)
        mapped = MmapFileBackend.create(tmp_path / "vol.img", BLOCK, num_blocks)
        return memory, mapped

    def test_fill_random_identical(self, tmp_path):
        memory, mapped = self._pair(tmp_path)
        memory.fill_random(42)
        mapped.fill_random(42)
        assert memory.raw_bytes() == mapped.raw_bytes()

    @pytest.mark.parametrize(
        "block_size, num_blocks",
        [(1, 1), (7, 1), (9, 1), (300, 1), (4097, 1), (12345, 1), (65537, 1), (4097, 33)],
    )
    def test_fill_random_matches_the_uint8_draw(self, tmp_path, block_size, num_blocks):
        # Sizes off multiples of 8 and of the 64 KiB fill chunk.
        rng = np.random.default_rng(5)
        expected = rng.integers(0, 256, size=block_size * num_blocks, dtype=np.uint8).tobytes()
        memory = MemoryBackend(block_size, num_blocks)
        mapped = MmapFileBackend.create(tmp_path / "vol.img", block_size, num_blocks)
        for backend in (memory, mapped):
            backend.fill_random(5)
            assert backend.raw_bytes() == expected
        mapped.close()

    def test_single_and_batched_ops_identical(self, tmp_path):
        memory, mapped = self._pair(tmp_path)
        prng = Sha256Prng("backend-equivalence")
        for backend in (memory, mapped):
            backend.fill_random(7)
        for _step in range(50):
            index = prng.randrange(64)
            data = prng.random_bytes(BLOCK)
            for backend in (memory, mapped):
                backend.write(index, data)
            indices = np.array([prng.randrange(64) for _ in range(5)], dtype=np.int64)
            assert memory.read_many(indices) == mapped.read_many(indices)
        datas = [prng.random_bytes(BLOCK) for _ in range(4)]
        # Duplicate targets: last writer must win on both backends.
        dup = np.array([3, 9, 3, 9], dtype=np.int64)
        memory.write_many(dup, datas)
        mapped.write_many(dup, datas)
        assert memory.raw_bytes() == mapped.raw_bytes()
        assert memory.read(3) == datas[2]

    def test_rawstorage_traces_identical_across_backends(self, tmp_path):
        geometry = small_geometry()
        mem_storage = RawStorage(geometry)
        map_storage = RawStorage(
            geometry,
            backend=MmapFileBackend.create(tmp_path / "vol.img", BLOCK, geometry.num_blocks),
        )
        for storage in (mem_storage, map_storage):
            storage.fill_random(3)
            storage.write_block(5, bytes(BLOCK))
            storage.read_blocks([1, 2, 3])
            storage.write_blocks([8, 9], [b"\x01" * BLOCK, b"\x02" * BLOCK])
            storage.read_write_blocks([4, 5])
        assert mem_storage.raw_bytes() == map_storage.raw_bytes()
        assert mem_storage.counters == map_storage.counters
        assert mem_storage.clock_ms == map_storage.clock_ms
        mem_events = [(e.op, e.index, e.time_ms) for e in mem_storage.trace]
        map_events = [(e.op, e.index, e.time_ms) for e in map_storage.trace]
        assert mem_events == map_events


class TestMmapFileBackend:
    def test_persists_across_close_and_open(self, tmp_path):
        path = tmp_path / "vol.img"
        backend = MmapFileBackend.create(path, BLOCK, 16)
        backend.fill_random(1)
        image = backend.raw_bytes()
        backend.write(7, b"\xaa" * BLOCK)
        backend.close()

        reopened = MmapFileBackend.open(path, BLOCK)
        assert reopened.num_blocks == 16
        assert reopened.read(7) == b"\xaa" * BLOCK
        assert reopened.read(3) == image[3 * BLOCK : 4 * BLOCK]
        reopened.close()

    def test_create_refuses_to_clobber(self, tmp_path):
        path = tmp_path / "vol.img"
        MmapFileBackend.create(path, BLOCK, 4).close()
        with pytest.raises(FileExistsError):
            MmapFileBackend.create(path, BLOCK, 4)

    def test_open_rejects_non_volume_files(self, tmp_path):
        path = tmp_path / "torn.img"
        path.write_bytes(b"x" * (BLOCK + 1))
        with pytest.raises(VolumeFileError):
            MmapFileBackend.open(path, BLOCK)
        empty = tmp_path / "empty.img"
        empty.write_bytes(b"")
        with pytest.raises(VolumeFileError):
            MmapFileBackend.open(empty, BLOCK)

    def test_geometry_mismatch_rejected(self, tmp_path):
        backend = MmapFileBackend.create(tmp_path / "vol.img", BLOCK, 8)
        with pytest.raises(VolumeFileError):
            RawStorage(small_geometry(16), backend=backend)
        backend.close()

    def test_closed_backend_raises_everywhere(self, tmp_path):
        backend = MmapFileBackend.create(tmp_path / "vol.img", BLOCK, 4)
        backend.close()
        assert backend.closed
        backend.close()  # idempotent
        with pytest.raises(BackendClosedError):
            backend.read(0)
        with pytest.raises(BackendClosedError):
            backend.write(0, bytes(BLOCK))
        with pytest.raises(BackendClosedError):
            backend.flush()

    def test_memory_backend_close(self):
        backend = MemoryBackend(BLOCK, 4)
        backend.flush()  # no-op while open
        backend.close()
        with pytest.raises(BackendClosedError):
            backend.read(0)


def make_volume(tmp_path, construction="volatile", seed=7, name="vol.img"):
    return HiddenVolumeService.create(
        construction,
        volume_mib=1,
        seed=seed,
        block_size=4096,
        path=tmp_path / name,
    )


class TestServiceRoundTrip:
    @pytest.mark.parametrize("construction", ["volatile", "nonvolatile"])
    def test_close_reopen_reads_back_bit_identical(self, tmp_path, construction):
        secret = b"the hidden payload " * 700  # several blocks
        service = make_volume(tmp_path, construction)
        alice = service.login(service.new_keyring("alice"))
        alice.create("/alice/secret.bin", secret)
        alice.create_decoy("/alice/decoy.bin", size_bytes=8192)
        alice.append("/alice/secret.bin", b"and an appended tail")
        alice.write("/alice/secret.bin", b"THE", at=0)
        ring_json = alice.keyring.to_json()
        service.close()
        assert service.closed

        reopened = HiddenVolumeService.open(
            tmp_path / "vol.img", construction, seed=7, session_nonce="s2"
        )
        assert reopened is not service
        session = reopened.login(KeyRing.from_json(ring_json))
        expected = b"THE" + secret[3:] + b"and an appended tail"
        assert session.read("/alice/secret.bin") == expected
        stat = session.stat("/alice/secret.bin")
        assert stat.size_bytes == len(expected)
        assert session.stat("/alice/decoy.bin").is_decoy
        # The reopened session can keep updating the recovered file.
        session.write("/alice/secret.bin", b"xyz", at=10)
        assert session.read("/alice/secret.bin", at=10, size=3) == b"xyz"
        reopened.close()

    def test_wrong_keyring_recovers_nothing(self, tmp_path):
        service = make_volume(tmp_path)
        alice = service.login(service.new_keyring("alice"))
        alice.create("/alice/secret.bin", b"really hidden")
        service.close()

        reopened = HiddenVolumeService.open(tmp_path / "vol.img", "volatile", seed=7)
        wrong = KeyRing(owner="mallory")
        wrong.add_hidden("/alice/secret.bin", FileAccessKey.generate(Sha256Prng(12345)))
        with pytest.raises(HiddenFileNotFoundError):
            reopened.login(wrong)
        # An empty ring logs in but sees no files.
        empty = reopened.login(reopened.new_keyring("mallory"))
        assert empty.paths == []
        reopened.close()

    def test_wrong_seed_locks_out_nonvolatile_volume(self, tmp_path):
        service = make_volume(tmp_path, "nonvolatile", seed=21)
        bob = service.login(service.new_keyring("bob"))
        bob.create("/bob/ledger", b"master-keyed data")
        ring_json = bob.keyring.to_json()
        service.close()

        # Same volume file, wrong seed: the re-derived master key opens nothing.
        wrong_seed = HiddenVolumeService.open(tmp_path / "vol.img", "nonvolatile", seed=22)
        with pytest.raises(HiddenFileNotFoundError):
            wrong_seed.login(KeyRing.from_json(ring_json))
        wrong_seed.close()

    def test_flush_persists_without_logout(self, tmp_path):
        service = make_volume(tmp_path)
        alice = service.login(service.new_keyring("alice"))
        alice.create("/alice/wip.txt", b"work in progress")
        alice.append("/alice/wip.txt", b", now longer")
        service.flush()
        # Simulate a crash: map the volume file independently, without
        # going through the (still-open) service.
        image = (tmp_path / "vol.img").read_bytes()
        assert image == service.storage.raw_bytes()
        service.close()

    def test_memory_service_still_defaults_and_flushes(self):
        service = HiddenVolumeService.create("volatile", volume_mib=1, seed=7)
        assert isinstance(service.storage.backend, MemoryBackend)
        alice = service.login(service.new_keyring("alice"))
        alice.create("/a", b"ephemeral")
        service.flush()  # no-op but legal
        service.close()
        assert service.closed
        assert service.storage.closed

    def test_closed_service_refuses_work(self, tmp_path):
        service = make_volume(tmp_path)
        service.close()
        service.close()  # idempotent
        with pytest.raises(ServiceClosedError):
            service.login(service.new_keyring("alice"))
        with pytest.raises(ServiceClosedError):
            service.flush()

    def test_context_managers(self, tmp_path):
        with make_volume(tmp_path) as service:
            with service.login(service.new_keyring("alice")) as alice:
                alice.create("/alice/f", b"scoped")
                ring_json = alice.keyring.to_json()
            assert not alice.active
            assert service.logged_in_users == []
        assert service.closed

        with HiddenVolumeService.open(tmp_path / "vol.img", "volatile", seed=7) as reopened:
            with reopened.login(KeyRing.from_json(ring_json)) as session:
                assert session.read("/alice/f") == b"scoped"

    def test_a_volume_created_without_a_journal_reopens_without_one(self, tmp_path):
        service = HiddenVolumeService.create(
            "volatile", volume_mib=1, seed=7, path=tmp_path / "vol.img", journal=False
        )
        assert service.journal is None
        alice = service.login(service.new_keyring("alice"))
        alice.create("/alice/f", b"u" * 5000)
        ring_json = alice.keyring.to_json()
        service.close()
        sidecar = tmp_path / "vol.img.journal"
        assert not sidecar.exists()

        reopened = HiddenVolumeService.open(tmp_path / "vol.img", "volatile", seed=7)
        assert reopened.journal is None and reopened.agent.plan_journal is None
        reopened.login(KeyRing.from_json(ring_json)).write("/alice/f", b"NEW", at=4095)
        reopened.close()
        assert not sidecar.exists()

        again = HiddenVolumeService.open(
            tmp_path / "vol.img", "volatile", seed=7, session_nonce="again"
        )
        session = again.login(KeyRing.from_json(ring_json))
        assert session.read("/alice/f") == b"u" * 4095 + b"NEW" + b"u" * 902
        again.close()

    def test_close_saves_dirty_headers_of_live_sessions(self, tmp_path):
        service = make_volume(tmp_path)
        alice = service.login(service.new_keyring("alice"))
        alice.create("/alice/f", b"v" * 5000)
        # A write relocates blocks and dirties the header; close() must
        # save it even though alice never logs out explicitly.
        alice.write("/alice/f", b"W" * 100, at=4000)
        ring_json = alice.keyring.to_json()
        service.close()
        reopened = HiddenVolumeService.open(tmp_path / "vol.img", "volatile", seed=7)
        session = reopened.login(KeyRing.from_json(ring_json))
        assert session.read("/alice/f", at=4000, size=100) == b"W" * 100
        reopened.close()


class TestRoundTripProperty:
    @settings(max_examples=15, deadline=None)
    @given(
        content=st.binary(min_size=1, max_size=12000),
        patch=st.binary(min_size=1, max_size=200),
        offset=st.integers(min_value=0, max_value=11999),
        construction=st.sampled_from(["volatile", "nonvolatile"]),
    )
    def test_any_write_pattern_survives_reopen(
        self, tmp_path_factory, content, patch, offset, construction
    ):
        tmp_path = tmp_path_factory.mktemp("roundtrip")
        offset = min(offset, len(content) - 1)
        patch = patch[: max(1, len(content) - offset)]
        expected = content[:offset] + patch + content[offset + len(patch) :]

        service = make_volume(tmp_path, construction)
        session = service.login(service.new_keyring("u"))
        session.create("/f", content)
        session.write("/f", patch, at=offset)
        ring_json = session.keyring.to_json()
        service.close()

        reopened = HiddenVolumeService.open(
            tmp_path / "vol.img", construction, seed=7, session_nonce="prop"
        )
        recovered = reopened.login(KeyRing.from_json(ring_json))
        assert recovered.read("/f") == expected
        reopened.close()


class TestReopenedServiceIsIndependent:
    def test_reopen_does_not_replay_create_session_ivs(self, tmp_path):
        """A reopened service must not redraw the create-session IV stream.

        IV reuse across sessions would let an attacker XOR two volume
        images; the reopen wiring salts the IV/selection PRNGs with the
        session nonce, so the first fresh IV drawn after reopen differs
        from the first IV the create session drew.
        """
        service = make_volume(tmp_path)
        create_iv = service.volume.fresh_iv()
        service.close()
        reopened = HiddenVolumeService.open(tmp_path / "vol.img", "volatile", seed=7)
        assert reopened.volume.fresh_iv() != create_iv
        # Distinct nonces give distinct serving-session streams too.
        reopened.close()
        second = HiddenVolumeService.open(
            tmp_path / "vol.img", "volatile", seed=7, session_nonce="another"
        )
        assert second.volume.fresh_iv() != create_iv
        second.close()

    def test_volume_file_created_with_0600(self, tmp_path):
        service = make_volume(tmp_path)
        service.close()
        mode = os.stat(tmp_path / "vol.img").st_mode & 0o777
        assert mode == 0o600

    def test_session_nonce_type_is_part_of_the_salt(self, tmp_path):
        service = make_volume(tmp_path)
        service.close()
        with HiddenVolumeService.open(
            tmp_path / "vol.img", "volatile", seed=7, session_nonce=1
        ) as a:
            iv_int = a.volume.fresh_iv()
        with HiddenVolumeService.open(
            tmp_path / "vol.img", "volatile", seed=7, session_nonce="1"
        ) as b:
            assert b.volume.fresh_iv() != iv_int

    def test_failed_create_leaves_no_stray_file(self, tmp_path, monkeypatch):
        import mmap as mmap_module

        def explode(*args, **kwargs):
            raise OSError("simulated mmap failure")

        monkeypatch.setattr(mmap_module, "mmap", explode)
        with pytest.raises(OSError):
            MmapFileBackend.create(tmp_path / "vol.img", BLOCK, 8)
        # No half-formatted file may survive: it would trip the
        # clobber guard on retry while holding no volume at all.
        assert not (tmp_path / "vol.img").exists()
        monkeypatch.undo()
        MmapFileBackend.create(tmp_path / "vol.img", BLOCK, 8).close()


class TestFakEntropy:
    def test_entropy_decouples_file_keys_from_the_seed(self, tmp_path):
        """With fak_entropy, knowing the seed no longer re-derives FAKs."""
        entropy = b"\x42" * 32
        with_entropy = HiddenVolumeService.create(
            "volatile", volume_mib=1, seed=7, fak_entropy=entropy
        )
        derived_only = HiddenVolumeService.create("volatile", volume_mib=1, seed=7)
        s1 = with_entropy.login(with_entropy.new_keyring("alice"))
        s2 = derived_only.login(derived_only.new_keyring("alice"))
        s1.create("/alice/f", b"x")
        s2.create("/alice/f", b"x")
        fak_with = s1.keyring.hidden["/alice/f"]
        fak_derived = s2.keyring.hidden["/alice/f"]
        assert fak_with.secret != fak_derived.secret
        assert fak_with.header_key != fak_derived.header_key
        # Same entropy reproduces the same keys (it is a credential).
        twin = HiddenVolumeService.create("volatile", volume_mib=1, seed=7, fak_entropy=entropy)
        t = twin.login(twin.new_keyring("alice"))
        t.create("/alice/f", b"x")
        assert t.keyring.hidden["/alice/f"].secret == fak_with.secret

    def test_default_derivation_unchanged(self):
        """Omitting fak_entropy keeps the historical seed-derived FAKs."""
        a = HiddenVolumeService.create("volatile", volume_mib=1, seed=7)
        b = HiddenVolumeService.create("volatile", volume_mib=1, seed=7)
        sa = a.login(a.new_keyring("alice"))
        sb = b.login(b.new_keyring("alice"))
        sa.create("/alice/f", b"x")
        sb.create("/alice/f", b"x")
        assert sa.keyring.hidden["/alice/f"].secret == sb.keyring.hidden["/alice/f"].secret
