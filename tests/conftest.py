"""Shared fixtures for the test suite.

Tests run against deliberately tiny volumes (hundreds of blocks, small
block sizes) so that the full suite stays fast; the benchmarks are the
place where paper-scale parameters are used.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.nonvolatile import NonVolatileAgent
from repro.core.volatile import VolatileAgent
from repro.crypto.cipher import FieldCipher
from repro.crypto.keys import FileAccessKey
from repro.crypto.prng import Sha256Prng
from repro.stegfs.filesystem import StegFsVolume
from repro.storage.device import RawDevice
from repro.storage.disk import RawStorage, StorageGeometry
from repro.storage.latency import ZeroLatencyModel

TEST_BLOCK_SIZE = 512
TEST_NUM_BLOCKS = 512


@pytest.fixture
def prng() -> Sha256Prng:
    """A deterministic PRNG seeded per-test."""
    return Sha256Prng("test-seed")


@pytest.fixture
def storage() -> RawStorage:
    """A small zero-latency raw storage volume, pre-filled with random bytes."""
    geometry = StorageGeometry(block_size=TEST_BLOCK_SIZE, num_blocks=TEST_NUM_BLOCKS)
    store = RawStorage(geometry, latency=ZeroLatencyModel())
    store.fill_random(seed=42)
    return store


@pytest.fixture
def timed_storage() -> RawStorage:
    """Like ``storage`` but with the default (ATA-like) latency model."""
    geometry = StorageGeometry(block_size=TEST_BLOCK_SIZE, num_blocks=TEST_NUM_BLOCKS)
    store = RawStorage(geometry)
    store.fill_random(seed=42)
    return store


@pytest.fixture
def volume(storage: RawStorage, prng: Sha256Prng) -> StegFsVolume:
    """A StegFS volume over the small test storage."""
    return StegFsVolume(RawDevice(storage), prng.spawn("volume"))


@pytest.fixture
def nonvolatile_agent(volume: StegFsVolume, prng: Sha256Prng) -> NonVolatileAgent:
    """A Construction-1 agent over the test volume."""
    return NonVolatileAgent(volume, prng.spawn("nv-agent"))


@pytest.fixture
def volatile_agent(volume: StegFsVolume, prng: Sha256Prng) -> VolatileAgent:
    """A Construction-2 agent over the test volume."""
    return VolatileAgent(volume, prng.spawn("v-agent"))


@pytest.fixture
def fak(prng: Sha256Prng) -> FileAccessKey:
    """A fresh file access key."""
    return FileAccessKey.generate(prng.spawn("fak"))


def make_storage(num_blocks: int = TEST_NUM_BLOCKS, block_size: int = TEST_BLOCK_SIZE,
                 timed: bool = False, seed: int = 42) -> RawStorage:
    """Helper for tests that need a custom-sized volume."""
    geometry = StorageGeometry(block_size=block_size, num_blocks=num_blocks)
    store = RawStorage(geometry, latency=None if timed else ZeroLatencyModel())
    store.fill_random(seed=seed)
    return store


class ReferenceFieldCipher(FieldCipher):
    """Per-byte oracle for ``FastFieldCipher``: same SHAKE-256 keystream,
    naive Python XOR loop instead of the vectorized one."""

    def __init__(self, key: bytes):
        self._key = bytes(key)

    def encrypt(self, iv: bytes, plaintext: bytes) -> bytes:
        stream = hashlib.shake_256(self._key + bytes(iv)).digest(max(1, len(plaintext)))
        # strict=False: the stream is one byte long even for empty plaintext.
        return bytes(p ^ s for p, s in zip(plaintext, stream, strict=False))

    def decrypt(self, iv: bytes, ciphertext: bytes) -> bytes:
        return self.encrypt(iv, ciphertext)
