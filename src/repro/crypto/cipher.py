"""Cipher interface used by the storage layer, plus a fast simulation cipher.

The storage layer encrypts the *data field* of every block under a key
and a per-block IV (Section 4.1.1 of the paper).  Two interchangeable
implementations are provided:

``CbcCipher`` (in :mod:`repro.crypto.cbc`)
    Authentic AES-CBC, as the paper's prototype uses.  Being pure
    Python it is slow, so it is the right choice for correctness tests
    and small examples.

``FastFieldCipher`` (here)
    A SHAKE-256 stream cipher: the keystream for (key, iv) is the XOF
    output of ``SHAKE256(key || iv)``, squeezed to the plaintext length
    in a single ``hashlib`` call at C speed and XOR-ed in by one numpy
    call, so this cipher lets the benchmarks drive volumes with hundreds
    of thousands of blocks.  It preserves the two properties the paper's
    mechanisms rely on: changing the IV changes every ciphertext byte,
    and without the key the ciphertext is indistinguishable from random
    bytes.

Both expose ``encrypt(iv, plaintext)`` / ``decrypt(iv, ciphertext)``,
plus batched ``encrypt_many`` / ``decrypt_many`` that the block-I/O
pipeline uses to transform whole runs of blocks per call.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from repro.errors import InvalidKeyError


def _xor(data: bytes, stream: bytes) -> bytes:
    """XOR ``data`` with the equal-length ``stream`` in one numpy call."""
    return np.bitwise_xor(
        np.frombuffer(data, dtype=np.uint8), np.frombuffer(stream, dtype=np.uint8)
    ).tobytes()


class FieldCipher(ABC):
    """Encrypts/decrypts a block's data field under a per-block IV."""

    @abstractmethod
    def encrypt(self, iv: bytes, plaintext: bytes) -> bytes:
        """Encrypt ``plaintext`` under this cipher's key and the given IV."""

    @abstractmethod
    def decrypt(self, iv: bytes, ciphertext: bytes) -> bytes:
        """Invert :meth:`encrypt` for the same IV."""

    def encrypt_many(self, ivs: Sequence[bytes], plaintexts: Sequence[bytes]) -> list[bytes]:
        """Encrypt a batch of blocks; equivalent to one :meth:`encrypt` per pair."""
        if len(ivs) != len(plaintexts):
            raise ValueError(f"{len(ivs)} IVs but {len(plaintexts)} plaintexts")
        return [self.encrypt(iv, plaintext) for iv, plaintext in zip(ivs, plaintexts, strict=True)]

    def decrypt_many(self, ivs: Sequence[bytes], ciphertexts: Sequence[bytes]) -> list[bytes]:
        """Decrypt a batch of blocks; equivalent to one :meth:`decrypt` per pair."""
        if len(ivs) != len(ciphertexts):
            raise ValueError(f"{len(ivs)} IVs but {len(ciphertexts)} ciphertexts")
        return [
            self.decrypt(iv, ciphertext) for iv, ciphertext in zip(ivs, ciphertexts, strict=True)
        ]


class FastFieldCipher(FieldCipher):
    """SHAKE-256 stream cipher keyed by ``key`` and the block IV.

    The keystream for (key, iv) is ``SHAKE256(key || iv)`` squeezed to
    the plaintext length (an XOF, so longer messages extend the same
    stream), XOR-ed with the plaintext.  Encryption and decryption are
    the same operation.

    Both halves run at C speed: the whole keystream comes out of one
    ``hashlib`` call, and one numpy XOR (:func:`_xor`) combines it with
    the data, for a single field and a joined batch alike.  Single
    fields are most calls on a durable volume (every journal record and
    every per-block seal or reseal is one), and on a 4 KiB field a
    big-int XOR through ``int.from_bytes`` would cost as much as the
    keystream itself.
    """

    def __init__(self, key: bytes):
        if not isinstance(key, (bytes, bytearray)) or len(key) == 0:
            raise InvalidKeyError("FastFieldCipher key must be non-empty bytes")
        self._key = bytes(key)

    def _keystream(self, iv: bytes, length: int) -> bytes:
        return hashlib.shake_256(self._key + bytes(iv)).digest(length)

    def encrypt(self, iv: bytes, plaintext: bytes) -> bytes:
        return _xor(plaintext, self._keystream(iv, len(plaintext)))

    def decrypt(self, iv: bytes, ciphertext: bytes) -> bytes:
        return self.encrypt(iv, ciphertext)

    def encrypt_many(self, ivs: Sequence[bytes], plaintexts: Sequence[bytes]) -> list[bytes]:
        if len(ivs) != len(plaintexts):
            raise ValueError(f"{len(ivs)} IVs but {len(plaintexts)} plaintexts")
        if not plaintexts:
            return []
        streams = [self._keystream(iv, len(pt)) for iv, pt in zip(ivs, plaintexts, strict=True)]
        xored = _xor(b"".join(plaintexts), b"".join(streams))
        out = []
        offset = 0
        for plaintext in plaintexts:
            out.append(xored[offset : offset + len(plaintext)])
            offset += len(plaintext)
        return out

    def decrypt_many(self, ivs: Sequence[bytes], ciphertexts: Sequence[bytes]) -> list[bytes]:
        return self.encrypt_many(ivs, ciphertexts)
