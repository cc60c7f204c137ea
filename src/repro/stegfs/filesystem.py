"""The StegFS volume: hidden files over an encrypted, randomised block device.

This is the substrate of ref [12] that the paper's two mechanisms build
on.  The volume

* keeps every block encrypted with a per-block IV (Section 4.1.1),
* locates the root header of a file purely from its FAK and path
  (Section 4.1.2), falling back to a deterministic probe sequence when
  the derived slot is occupied,
* scatters data and header blocks uniformly at random, and
* maintains the allocation table (the equivalent of StegFS's encrypted
  block bitmap) so new allocations never overwrite existing hidden data.

The volume is deliberately *passive*: it performs exactly the device
I/O it is asked to and leaves all hiding policy (dummy updates, block
relocation, oblivious caching) to the agents in :mod:`repro.core`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.crypto.cipher import FastFieldCipher, FieldCipher
from repro.crypto.keys import FileAccessKey
from repro.crypto.prng import Sha256Prng
from repro.errors import (
    HiddenFileNotFoundError,
    IntegrityError,
    VolumeFullError,
)
from repro.stegfs.allocator import RandomAllocator
from repro.stegfs.constants import NO_BLOCK
from repro.stegfs.file import HiddenFile
from repro.stegfs.header import FileHeader, path_digest
from repro.storage.block import BLOCK_IV_SIZE, StoredBlock, data_field_size
from repro.storage.device import BlockDevice

CipherFactory = Callable[[bytes], FieldCipher]


@dataclass
class VolumeConfig:
    """Tunable knobs of a StegFS volume.

    Attributes
    ----------
    cipher_factory:
        Builds a length-preserving cipher from a key.  The default is
        the fast SHAKE-256 stream cipher; tests can pass
        ``lambda key: CbcCipher(key, pad=False)`` for authentic AES-CBC.
    header_probe_limit:
        Maximum number of candidate slots tried when placing or locating
        a root header.  The default tolerates volumes that are ~98%
        occupied; probing is cheap because placement probes consult only
        the in-memory allocation table.
    """

    cipher_factory: CipherFactory = FastFieldCipher
    header_probe_limit: int = 256


class StegFsVolume:
    """A steganographic file system over one block device (or partition)."""

    def __init__(
        self,
        device: BlockDevice,
        prng: Sha256Prng,
        config: VolumeConfig | None = None,
    ):
        self.device = device
        self.config = config if config is not None else VolumeConfig()
        self._prng = prng
        self._iv_prng = prng.spawn("iv")
        self.allocator = RandomAllocator(device.num_blocks, prng.spawn("allocator"))
        self._cipher_cache: dict[bytes, FieldCipher] = {}

    # -- geometry ----------------------------------------------------------------

    @property
    def block_size(self) -> int:
        """Raw block size of the underlying device."""
        return self.device.block_size

    @property
    def num_blocks(self) -> int:
        """Number of blocks in the volume."""
        return self.device.num_blocks

    @property
    def data_field_bytes(self) -> int:
        """Usable payload bytes per block (block size minus the IV)."""
        return data_field_size(self.device.block_size)

    @property
    def utilisation(self) -> float:
        """Fraction of blocks holding useful data (headers included)."""
        return self.allocator.utilisation

    # -- low-level encrypted block access ------------------------------------------

    def cipher_for(self, key: bytes) -> FieldCipher:
        """Return (and cache) the field cipher for ``key``."""
        cipher = self._cipher_cache.get(key)
        if cipher is None:
            cipher = self.config.cipher_factory(key)
            self._cipher_cache[key] = cipher
        return cipher

    def fresh_iv(self) -> bytes:
        """Draw a fresh per-block IV."""
        return self._iv_prng.random_bytes(BLOCK_IV_SIZE)

    def fresh_ivs(self, count: int) -> list[bytes]:
        """Draw ``count`` fresh IVs in one call.

        The PRNG is a buffered counter-mode stream, so one draw of
        ``count * BLOCK_IV_SIZE`` bytes consumes exactly the bytes that
        ``count`` :meth:`fresh_iv` calls would — the IVs are
        bit-identical, only the per-call overhead collapses.
        """
        stream = self._iv_prng.random_bytes(BLOCK_IV_SIZE * count)
        return [stream[i : i + BLOCK_IV_SIZE] for i in range(0, len(stream), BLOCK_IV_SIZE)]

    def _pad_payload(self, payload: bytes) -> bytes:
        if len(payload) > self.data_field_bytes:
            raise ValueError(
                f"payload of {len(payload)} bytes exceeds data field of {self.data_field_bytes}"
            )
        return payload + b"\x00" * (self.data_field_bytes - len(payload))

    def write_payload(
        self,
        index: int,
        key: bytes,
        payload: bytes,
        stream: str = "default",
        iv: bytes | None = None,
    ) -> None:
        """Encrypt ``payload`` under ``key`` with a fresh IV and write it to ``index``."""
        iv = iv if iv is not None else self.fresh_iv()
        block = StoredBlock.seal(self.cipher_for(key), iv, self._pad_payload(payload))
        self.device.write_block(index, block.raw, stream)

    def read_payload(self, index: int, key: bytes, stream: str = "default") -> bytes:
        """Read block ``index`` and decrypt its data field under ``key``."""
        raw = self.device.read_block(index, stream)
        return StoredBlock.from_raw(raw).open(self.cipher_for(key))

    # -- batched encrypted block access ---------------------------------------------
    #
    # The batched paths draw IVs, produce ciphertexts and issue device
    # requests in exactly the order the equivalent single-block loops
    # would, so the written bytes and the observable I/O trace are
    # byte-identical; only the Python-level per-block overhead goes away.

    def seal_payloads(
        self, key: bytes, payloads: list[bytes], ivs: list[bytes]
    ) -> list[bytes]:
        """Pad and encrypt payloads under ``key``, returning raw on-disk blocks."""
        padded = [self._pad_payload(payload) for payload in payloads]
        ciphertexts = self.cipher_for(key).encrypt_many(ivs, padded)
        return [iv + ciphertext for iv, ciphertext in zip(ivs, ciphertexts, strict=True)]

    def write_payloads(
        self,
        indices: list[int],
        key: bytes,
        payloads: list[bytes],
        stream: str = "default",
    ) -> None:
        """Batched :meth:`write_payload` over many blocks in one device call."""
        if len(indices) != len(payloads):
            raise ValueError(f"{len(indices)} indices but {len(payloads)} payloads")
        if not indices:
            return
        ivs = [self.fresh_iv() for _ in payloads]
        datas = self.seal_payloads(key, payloads, ivs)
        self.device.write_blocks(indices, datas, stream)

    def read_payloads(self, indices: list[int], key: bytes, stream: str = "default") -> list[bytes]:
        """Batched :meth:`read_payload` over many blocks in one device call."""
        if not indices:
            return []
        blocks = [StoredBlock.from_raw(raw) for raw in self.device.read_blocks(indices, stream)]
        return self.cipher_for(key).decrypt_many(
            [block.iv for block in blocks], [block.ciphertext for block in blocks]
        )

    def rewrite_with_new_iv(self, index: int, key: bytes, stream: str = "default") -> None:
        """Perform a dummy update on block ``index``: decrypt, new IV, re-encrypt.

        This is the paper's primitive for making a block *look* updated
        without changing its contents (Section 4.1.3).  It costs exactly
        one read and one write.
        """
        raw = self.device.read_block(index, stream)
        block = StoredBlock.from_raw(raw)
        resealed = block.reseal_with_new_iv(self.cipher_for(key), self.fresh_iv())
        self.device.write_block(index, resealed.raw, stream)

    # -- content packing -------------------------------------------------------------

    def blocks_for_size(self, size_bytes: int) -> int:
        """Number of data blocks needed to store ``size_bytes`` of content."""
        if size_bytes <= 0:
            return 0
        return -(-size_bytes // self.data_field_bytes)

    def _split_content(self, content: bytes) -> list[bytes]:
        step = self.data_field_bytes
        return [content[i : i + step] for i in range(0, len(content), step)] or []

    # -- header placement and lookup ---------------------------------------------------

    def _place_root_header(self, fak: FileAccessKey, path: str) -> int:
        """Choose and allocate the root header slot from the FAK probe sequence."""
        for candidate in fak.header_probe_sequence(
            path, self.num_blocks, self.config.header_probe_limit
        ):
            if self.allocator.allocate_specific(candidate):
                return candidate
        raise VolumeFullError(
            f"no free slot in the {self.config.header_probe_limit}-entry "
            f"probe sequence for {path!r}"
        )

    def _locate_root_header(
        self, fak: FileAccessKey, path: str, header_key: bytes, stream: str
    ) -> tuple[int, "object"]:
        """Walk the probe sequence until a block parses as this file's header.

        A candidate must both decrypt into a well-formed header *and* carry
        this path's digest — another file encrypted under the same key (e.g.
        a sibling opened with the same master key) is skipped, not returned.
        """
        expected_digest = path_digest(path)
        for candidate in fak.header_probe_sequence(
            path, self.num_blocks, self.config.header_probe_limit
        ):
            try:
                payload = self.read_payload(candidate, header_key, stream)
                chunk = FileHeader.parse_chunk(payload)
            except IntegrityError:
                continue
            if chunk.path_digest != expected_digest:
                continue
            return candidate, chunk
        raise HiddenFileNotFoundError(f"no header found for {path!r} with the supplied key")

    # -- file operations ------------------------------------------------------------------

    def create_file(
        self,
        fak: FileAccessKey,
        path: str,
        content: bytes,
        header_key: bytes | None = None,
        content_key: bytes | None = None,
        is_dummy: bool = False,
        stream: str = "default",
    ) -> HiddenFile:
        """Create a hidden file and write its header chain and data blocks.

        ``header_key``/``content_key`` default to the FAK's own keys
        (volatile-agent construction); the non-volatile agent passes its
        master key for both.
        """
        header_key = header_key if header_key is not None else fak.header_key
        if content_key is None:
            content_key = fak.content_key if fak.content_key is not None else header_key

        chunks = self._split_content(content)
        needed_data_blocks = len(chunks)
        # Rough pre-check so we fail before allocating anything.
        if needed_data_blocks + 1 > self.allocator.free_blocks:
            raise VolumeFullError(
                f"file needs {needed_data_blocks + 1}+ blocks, only "
                f"{self.allocator.free_blocks} free"
            )

        root = self._place_root_header(fak, path)
        try:
            data_blocks = self.allocator.allocate_many(needed_data_blocks)
        except VolumeFullError:
            self.allocator.free(root)
            raise

        header = FileHeader(
            path=path,
            file_size=len(content),
            block_pointers=data_blocks,
            header_blocks=[root],
            is_dummy=is_dummy,
        )
        extra_headers = header.headers_needed(self.data_field_bytes) - 1
        if extra_headers > 0:
            try:
                header.header_blocks.extend(self.allocator.allocate_many(extra_headers))
            except VolumeFullError:
                for index in data_blocks:
                    self.allocator.free(index)
                self.allocator.free(root)
                raise

        handle = HiddenFile(
            header=header,
            fak=fak,
            header_key=header_key,
            content_key=content_key,
        )
        self.write_payloads(header.block_pointers[: len(chunks)], content_key, chunks, stream)
        self.save_header(handle, stream)
        return handle

    def open_file(
        self,
        fak: FileAccessKey,
        path: str,
        header_key: bytes | None = None,
        content_key: bytes | None = None,
        stream: str = "default",
    ) -> HiddenFile:
        """Locate and load a hidden file's header chain from its FAK and path."""
        header_key = header_key if header_key is not None else fak.header_key
        if content_key is None:
            content_key = fak.content_key if fak.content_key is not None else header_key

        root, chunk = self._locate_root_header(fak, path, header_key, stream)
        chunks = [chunk]
        header_blocks = [root]
        current = chunk
        while current.has_next and current.next_header != NO_BLOCK:
            next_index = current.next_header
            payload = self.read_payload(next_index, header_key, stream)
            current = FileHeader.parse_chunk(payload)
            chunks.append(current)
            header_blocks.append(next_index)

        header = FileHeader.from_chunks(path, chunks, header_blocks)
        # Re-register the file's blocks with the allocation table; opening a
        # file after an agent restart (volatile agent) is how the allocator
        # re-learns which blocks are live.
        for index in header.all_blocks():
            self.allocator.allocate_specific(index)
        return HiddenFile(
            header=header,
            fak=fak,
            header_key=header_key,
            content_key=content_key,
        )

    def plan_header_save(self, handle: HiddenFile) -> tuple[list[int], list[bytes]]:
        """Plan a header-chain save: bookkeeping and sealing, no device I/O.

        Grows/shrinks the chain through the allocator, serialises and
        seals the chunks, and returns ``(indices, raw_blocks)`` ready
        for the device.  Allocator and IV draws happen here, in the
        exact order the unplanned save performed them, so a planned
        save is draw- and byte-identical to the legacy path.  The
        handle is marked clean once the plan exists: the plan *is* the
        pending save (a journalled intent), and executing it is the
        caller's obligation.
        """
        header = handle.header
        needed = header.headers_needed(self.data_field_bytes)
        while len(header.header_blocks) < needed:
            header.header_blocks.append(self.allocator.allocate_random())
        while len(header.header_blocks) > needed:
            surplus = header.header_blocks.pop()
            self.allocator.free(surplus)
        payloads = header.serialise(self.data_field_bytes)
        count = min(len(header.header_blocks), len(payloads))
        ivs = [self.fresh_iv() for _ in payloads[:count]]
        datas = self.seal_payloads(handle.header_key, payloads[:count], ivs)
        handle.dirty = False
        return header.header_blocks[:count], datas

    def save_header(self, handle: HiddenFile, stream: str = "default") -> None:
        """Write the cached header chain back to the device.

        The header chain may have grown (block relocations never grow
        it, but appends do); extra chain blocks are allocated on demand.
        """
        indices, datas = self.plan_header_save(handle)
        self.device.write_blocks(indices, datas, stream)

    def read_block(self, handle: HiddenFile, logical_index: int, stream: str = "default") -> bytes:
        """Read and decrypt one logical data block of an open file."""
        physical = handle.header.physical_block(logical_index)
        return self.read_payload(physical, handle.content_key, stream)

    def read_file(self, handle: HiddenFile, stream: str = "default") -> bytes:
        """Read the whole file content, in logical block order."""
        physicals = [handle.header.physical_block(i) for i in range(handle.num_blocks)]
        pieces = self.read_payloads(physicals, handle.content_key, stream)
        return b"".join(pieces)[: handle.size_bytes]

    def write_block_in_place(
        self, handle: HiddenFile, logical_index: int, payload: bytes, stream: str = "default"
    ) -> None:
        """Update one logical block at its current location (plain StegFS behaviour).

        This is the baseline update path *without* the paper's hiding
        mechanism: one read-modify-write at a fixed location, which is
        exactly what the update-analysis attacker exploits.
        """
        physical = handle.header.physical_block(logical_index)
        # Read-modify-write: real file systems fetch the block before updating it.
        self.device.read_block(physical, stream)
        self.write_payload(physical, handle.content_key, payload, stream)

    def delete_file(self, handle: HiddenFile, stream: str = "default") -> None:
        """Release all blocks of a file back to the dummy pool.

        The freed blocks keep their (now meaningless) ciphertext, so
        deletion leaves no trace distinguishable from dummy data.
        """
        self.allocator.free_many(handle.header.all_blocks())
        handle.header.block_pointers.clear()
        handle.header.header_blocks.clear()
        handle.header.file_size = 0
        handle.dirty = False

    def plan_append_block(self, handle: HiddenFile, payload: bytes) -> tuple[int, int, bytes]:
        """Plan one appended block: allocate, account and seal, no device I/O.

        Returns ``(logical, physical, raw_block)``; the caller owns the
        device write.  The allocator and IV draws run in the order the
        unplanned append performed them, so plans stay draw-identical.
        """
        physical = self.allocator.allocate_random()
        logical = handle.num_blocks
        handle.header.block_pointers.append(physical)
        handle.header.file_size = logical * self.data_field_bytes + len(payload)
        [sealed] = self.seal_payloads(handle.content_key, [payload], [self.fresh_iv()])
        handle.mark_dirty()
        return logical, physical, sealed

    def append_block(self, handle: HiddenFile, payload: bytes, stream: str = "default") -> int:
        """Append one data block to a file, returning its logical index."""
        logical, physical, sealed = self.plan_append_block(handle, payload)
        self.device.write_block(physical, sealed, stream)
        return logical
