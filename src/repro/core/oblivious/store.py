"""The hierarchical oblivious store (Figures 7 and 8(b)).

The store is a cache of StegFS blocks laid out on its own partition.
Reads probe one slot in every level; the buffer spills into level 1,
full levels dump into the next one, and every dump re-shuffles the
receiving level to a fresh random permutation under a fresh key.

Implementation notes
--------------------
* Every probe, dump and shuffle performs real device I/O, so the trace
  and the latency accounting faithfully reflect what an attacker (and
  the Figure 12 experiments) would observe.
* For simplicity the store also keeps a plaintext shadow copy of every
  cached payload in agent memory; this stands in for the decrypt-while-
  merging that a real implementation would do during the sort passes
  and does not change the observable I/O.
* The external merge sort is charged as sequential read+write passes
  over the level's slot range (see :mod:`repro.core.oblivious.mergesort`);
  the paper uses a separate scratch partition, we sort "in place", which
  leaves the pass count and the sequential nature of the I/O intact.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.oblivious.cost import oblivious_height
from repro.core.oblivious.level import Level
from repro.core.oblivious.mergesort import external_merge_sort_passes
from repro.crypto.cipher import FastFieldCipher, FieldCipher
from repro.crypto.prng import Sha256Prng
from repro.errors import BlockNotCachedError, ObliviousStorageError
from repro.storage.block import BLOCK_IV_SIZE, StoredBlock, data_field_size
from repro.storage.device import BlockDevice


@dataclass(frozen=True)
class ObliviousStoreConfig:
    """Size parameters of the oblivious store.

    Attributes
    ----------
    buffer_blocks:
        Size of the agent's in-memory buffer, in blocks (``B``).
    last_level_blocks:
        Size of the last level (``N``); must be at least ``2 B``.
    """

    buffer_blocks: int
    last_level_blocks: int

    def __post_init__(self) -> None:
        if self.buffer_blocks <= 1:
            raise ValueError("buffer must hold at least 2 blocks")
        if self.last_level_blocks < 2 * self.buffer_blocks:
            raise ValueError("the last level must be at least twice the buffer")


@dataclass
class ObliviousStoreStats:
    """I/O and timing accounting split into retrieval and sorting phases."""

    retrieval_reads: int = 0
    sort_reads: int = 0
    sort_writes: int = 0
    retrieval_time_ms: float = 0.0
    sort_time_ms: float = 0.0
    requests: int = 0
    buffer_hits: int = 0
    evictions: int = 0
    shuffles: int = 0

    @property
    def total_ops(self) -> int:
        return self.retrieval_reads + self.sort_reads + self.sort_writes

    @property
    def total_time_ms(self) -> float:
        return self.retrieval_time_ms + self.sort_time_ms

    @property
    def sort_io_fraction(self) -> float:
        """Fraction of device operations spent sorting."""
        return (self.sort_reads + self.sort_writes) / self.total_ops if self.total_ops else 0.0

    @property
    def sort_time_fraction(self) -> float:
        """Fraction of access time spent sorting (the Figure 12(b) series)."""
        return self.sort_time_ms / self.total_time_ms if self.total_time_ms else 0.0


class ObliviousStore:
    """Hierarchical oblivious cache over one partition of the raw storage."""

    def __init__(self, device: BlockDevice, config: ObliviousStoreConfig, prng: Sha256Prng):
        self.device = device
        self.config = config
        self._prng = prng.spawn("oblivious")
        self._ciphers: dict[bytes, FieldCipher] = {}
        self.stats = ObliviousStoreStats()

        self.height = oblivious_height(config.last_level_blocks, config.buffer_blocks)
        self.levels: list[Level] = []
        first_slot = 0
        for number in range(1, self.height + 1):
            capacity = (2**number) * config.buffer_blocks
            self.levels.append(Level.create(number, capacity, first_slot, self._prng))
            first_slot += capacity
        if first_slot > device.num_blocks:
            raise ObliviousStorageError(
                f"the hierarchy needs {first_slot} blocks but the partition has "
                f"{device.num_blocks}"
            )

        self._buffer: dict[int, bytes] = {}
        self._payloads: dict[int, bytes] = {}
        self._storage = getattr(device, "storage", None)

    # -- small helpers --------------------------------------------------------------

    @property
    def payload_bytes(self) -> int:
        """Plaintext bytes cached per block (the device block minus the IV)."""
        return data_field_size(self.device.block_size)

    def _cipher(self, key: bytes) -> FieldCipher:
        cipher = self._ciphers.get(key)
        if cipher is None:
            cipher = FastFieldCipher(key)
            self._ciphers[key] = cipher
        return cipher

    def _clock(self) -> float:
        return self._storage.clock_ms if self._storage is not None else 0.0

    def _pad(self, payload: bytes) -> bytes:
        if len(payload) > self.payload_bytes:
            raise ValueError(
                f"payload of {len(payload)} bytes exceeds the cacheable {self.payload_bytes}"
            )
        return payload + b"\x00" * (self.payload_bytes - len(payload))

    def _read_slot(self, slot: int, stream: str) -> bytes:
        """One retrieval probe: read ``slot`` and charge it to the retrieval phase."""
        started = self._clock()
        raw = self.device.read_block(slot, stream)
        self.stats.retrieval_reads += 1
        self.stats.retrieval_time_ms += self._clock() - started
        return raw

    # -- membership -----------------------------------------------------------------

    def contains(self, logical_id: int) -> bool:
        """Whether the store currently caches ``logical_id``."""
        return logical_id in self._payloads or logical_id in self._buffer

    def cached_ids(self) -> set[int]:
        """Logical ids of everything currently cached (buffer included)."""
        return set(self._payloads) | set(self._buffer)

    def cached_count(self) -> int:
        """Number of distinct cached blocks (the paper's ``sizeof(S)``)."""
        return len(self.cached_ids())

    # -- the Figure 8(b) read -----------------------------------------------------------

    def read(self, logical_id: int, stream: str = "oblivious") -> bytes:
        """Read a cached block through the oblivious probe sequence."""
        self.stats.requests += 1
        if logical_id in self._buffer:
            self.stats.buffer_hits += 1
            return self._buffer[logical_id]

        found: bytes | None = None
        for level in self.levels:
            slot = level.slot_of(logical_id) if found is None else None
            if slot is not None:
                raw = self._read_slot(slot, stream)
                payload = StoredBlock.from_raw(raw).open(self._cipher(level.key))
                found = payload
            else:
                self._probe_random(level, stream)

        if found is None:
            raise BlockNotCachedError(f"block {logical_id} is not in the oblivious store")
        self._add_to_buffer(logical_id, found, stream)
        return found

    def write(self, logical_id: int, payload: bytes, stream: str = "oblivious") -> None:
        """Update a cached block; observationally identical to a read.

        Exactly like :meth:`read`, every level is probed once: the level
        holding the block gets the real probe, every other level gets a
        random one.  Stopping at the hit (as an earlier version did)
        would make writes distinguishable from reads by their per-level
        probe counts, breaking the paper's security argument.
        """
        self.stats.requests += 1
        if logical_id not in self._buffer:
            found = False
            for level in self.levels:
                slot = level.slot_of(logical_id) if not found else None
                if slot is not None:
                    self._read_slot(slot, stream)
                    found = True
                else:
                    self._probe_random(level, stream)
        self._add_to_buffer(logical_id, self._pad(payload), stream)

    def insert(self, logical_id: int, payload: bytes, stream: str = "oblivious") -> None:
        """Copy a block read from the StegFS partition into the cache."""
        self._add_to_buffer(logical_id, self._pad(payload), stream)

    def dummy_read(self, stream: str = "oblivious") -> None:
        """Probe one random slot in every level, exactly like a real read."""
        self.stats.requests += 1
        for level in self.levels:
            self._probe_random(level, stream)

    def _probe_random(self, level: Level, stream: str) -> None:
        """Dummy probe: read one uniformly random slot of a non-empty level."""
        if level.is_empty and level.shuffles == 0:
            return
        slot = level.first_slot + self._prng.randrange(level.capacity)
        self._read_slot(slot, stream)

    # -- buffer and dumping --------------------------------------------------------------

    def _add_to_buffer(self, logical_id: int, payload: bytes, stream: str) -> None:
        self._buffer[logical_id] = payload
        self._payloads[logical_id] = payload
        if len(self._buffer) >= self.config.buffer_blocks:
            self._flush_buffer(stream)

    def _level_entries(self, level: Level) -> dict[int, bytes]:
        return {lid: self._payloads[lid] for lid in level.logical_ids()}

    def _flush_buffer(self, stream: str) -> None:
        """Spill the buffer into level 1, dumping level 1 first if needed."""
        incoming = dict(self._buffer)
        level1 = self.levels[0]
        new_ids = set(incoming) - level1.logical_ids()
        if not level1.has_room_for(len(new_ids)):
            self._dump(1, stream)
        merged = self._level_entries(level1)
        merged.update(incoming)
        self._shuffle_into_level(level1, merged, stream)
        self._buffer.clear()

    def _dump(self, number: int, stream: str) -> None:
        """Dump level ``number`` into the next level (Figure 8(b) ``dump``)."""
        level = self.levels[number - 1]
        if number == self.height:
            # The last level has nowhere to go: re-shuffle it in place.
            self._shuffle_into_level(level, self._level_entries(level), stream)
            return
        next_level = self.levels[number]
        incoming = self._level_entries(level)
        new_ids = set(incoming) - next_level.logical_ids()
        if not next_level.has_room_for(len(new_ids)):
            self._dump(number + 1, stream)
        merged = self._level_entries(next_level)
        merged.update(incoming)
        if len(merged) > next_level.capacity:
            merged = self._evict(merged, next_level, keep=set(incoming))
        self._shuffle_into_level(next_level, merged, stream)
        level.clear()

    def _evict(self, entries: dict[int, bytes], level: Level, keep: set[int]) -> dict[int, bytes]:
        """Drop clean copies when the last level overflows.

        The dropped blocks still live in the StegFS partition, so evicting
        them only means a future read will re-copy them in.  A dropped
        copy may be a stale one: a fresher copy of the same id can still
        sit in the buffer or in another level, and the plaintext shadow
        is shared by every copy, so it goes only with the last one.
        """
        excess = len(entries) - level.capacity
        droppable = sorted(lid for lid in entries if lid not in keep)
        others = [other for other in self.levels if other is not level]
        for lid in droppable[:excess]:
            del entries[lid]
            if lid not in self._buffer and not any(other.contains(lid) for other in others):
                self._payloads.pop(lid, None)
            self.stats.evictions += 1
        if len(entries) > level.capacity:
            raise ObliviousStorageError(
                "the last level cannot hold the working set; enlarge last_level_blocks"
            )
        return entries

    # -- shuffling ----------------------------------------------------------------------------

    def _shuffle_into_level(self, level: Level, entries: dict[int, bytes], stream: str) -> None:
        """Re-order a level to a fresh random permutation under a fresh key."""
        if len(entries) > level.capacity:
            raise ObliviousStorageError(
                f"level {level.number} of capacity {level.capacity} "
                f"cannot hold {len(entries)} blocks"
            )
        new_key = self._prng.random_bytes(32)
        cipher = self._cipher(new_key)
        permutation = self._prng.permutation(level.capacity)
        placements: dict[int, int] = {}
        for position, logical_id in enumerate(sorted(entries)):
            placements[logical_id] = permutation[position]
        occupied_slots = {slot: lid for lid, slot in placements.items()}

        # Sorting I/O is tagged with its own stream so analyses can separate
        # the (request-independent) re-order traffic from the probe traffic.
        sort_stream = f"{stream}-sort"
        passes = external_merge_sort_passes(level.capacity, self.config.buffer_blocks)
        slots = list(level.slot_range())
        # Pre-seal the final level contents.  The PRNG draws happen in
        # slot order — dummy payload then IV — so the written bytes are
        # those of a per-slot loop; the encryption itself runs through
        # one batched encrypt_many.
        payloads = []
        ivs = []
        for local_slot in range(level.capacity):
            logical_id = occupied_slots.get(local_slot)
            if logical_id is not None:
                payloads.append(entries[logical_id])
            else:
                payloads.append(self._prng.random_bytes(self.payload_bytes))
            ivs.append(self._prng.random_bytes(BLOCK_IV_SIZE))
        ciphertexts = cipher.encrypt_many(ivs, payloads)
        datas = [iv + ciphertext for iv, ciphertext in zip(ivs, ciphertexts, strict=True)]

        for pass_number in range(passes):
            # One batched device call per pass, each slot read then
            # written in slot order: non-final passes rewrite each slot
            # with its current bytes, the final pass installs the freshly
            # sealed permutation.
            started = self._clock()
            self.device.read_write_blocks(
                slots, datas if pass_number == passes - 1 else None, sort_stream
            )
            self.stats.sort_reads += len(slots)
            self.stats.sort_writes += len(slots)
            self.stats.sort_time_ms += self._clock() - started

        level.install(placements, new_key)
        self.stats.shuffles += 1
