"""Shared agent machinery for the two update-hiding constructions.

The agent sits between the users and the raw storage (Figure 3).  Both
constructions hide data updates the same way (Section 4.1.3–4.1.4):

* **Dummy updates** — when idle, the agent picks a uniformly random
  block, decrypts it, assigns a fresh IV, re-encrypts and writes it
  back.  Content is unchanged; every ciphertext byte changes.
* **Data updates (Figure 6)** — to update block ``B1`` the agent keeps
  drawing uniformly random blocks ``B2``:

  - if ``B2 == B1`` the update happens in place;
  - if ``B2`` is a dummy block, the new data is written at ``B2`` and
    ``B1`` becomes a dummy block (the file header is re-pointed);
  - otherwise ``B2`` gets a dummy update and the draw repeats.

  Every draw costs one read and one write, so the expected I/O overhead
  over a conventional update is ``E = N / D`` (Section 4.1.5).

The two constructions differ only in key custody and in which blocks the
agent may touch; those policy decisions are the abstract methods here.

Plan → fuse → execute
---------------------
Every reading/mutating primitive is split into a pure *planner* (PRNG
draws, allocator transfers, header relocation, sealing — no device I/O)
emitting an :class:`~repro.core.plan.IoPlan`, and the generic executor
of :mod:`repro.core.plan`, which fuses adjacent steps and replays them
through the batched device paths.  Hoisting the draws is sound because
the selection, IV and allocator PRNGs are independent spawned streams
and no Figure-6 decision depends on device contents; the twin-trace
suite (``tests/test_plan_kernel.py``) pins that every planned primitive
is draw-, byte- and trace-identical to the loop it replaced.  Assign a
:class:`~repro.core.plan.PlanJournal` to :attr:`StegAgent.plan_journal`
to record each plan before its first device request (the intent-log
seam).

Locking contract
----------------
Agents (and everything below them: volume, allocator, PRNG streams,
raw storage) are **deliberately single-threaded**.  Every public method
mutates shared state non-atomically — the Figure-6 loop interleaves
PRNG draws, allocator transfers, header relocation and device I/O — so
two overlapping calls would corrupt the bitmap and the selection space.
Callers must serialize *all* agent entry points behind one lock;
:class:`repro.service.ConcurrentVolumeService` is the engine that does
this for multi-threaded serving.  The mutating primitives carry a cheap
re-entrancy tripwire (:meth:`StegAgent._exclusive`) that raises
:class:`~repro.errors.ConcurrentAccessError` instead of corrupting
state when the contract is violated.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.core.plan import (
    CycleStep,
    IoPlan,
    PlanJournal,
    ReadStep,
    ResealStep,
    Step,
    WriteStep,
    execute_plan,
)
from repro.crypto.keys import FileAccessKey
from repro.crypto.prng import Sha256Prng
from repro.errors import ConcurrentAccessError, UnknownFileError
from repro.stegfs.file import HiddenFile
from repro.stegfs.filesystem import StegFsVolume


@dataclass(frozen=True)
class UpdateResult:
    """Outcome of one Figure-6 data update."""

    iterations: int
    reads: int
    writes: int
    moved_from: int
    moved_to: int

    @property
    def relocated(self) -> bool:
        """Whether the block ended up at a new physical location."""
        return self.moved_from != self.moved_to

    @property
    def io_operations(self) -> int:
        """Total device operations the update needed."""
        return self.reads + self.writes


class StegAgent(ABC):
    """Base class for the update-hiding agents (Constructions 1 and 2).

    ``selection_prng``, when given, replaces the source of the agent's
    *stochastic* stream (dummy/Figure-6 block draws) while ``prng``
    keeps feeding any persistent key derivation a construction does.
    A service reopening a durable volume uses this split: keys must
    re-derive from the original seed, draws must not replay the
    create-session's stream.
    """

    def __init__(
        self,
        volume: StegFsVolume,
        prng: Sha256Prng,
        selection_prng: Sha256Prng | None = None,
    ):
        self.volume = volume
        source = selection_prng if selection_prng is not None else prng
        self._prng = source.spawn("agent")
        # physical block index -> (owning handle, role) for every block the
        # agent currently knows about; role is "data" or "header".
        self._block_owner: dict[int, tuple[HiddenFile, str]] = {}
        # Name of the mutating primitive currently executing; the
        # re-entrancy tripwire of the locking contract (module docstring).
        self._active_op: str | None = None
        # Optional intent-log hook: when set, every plan is recorded
        # here before its first device request executes.
        self.plan_journal: PlanJournal | None = None

    def _execute(self, plan: IoPlan) -> list[bytes]:
        """Journal (if hooked) and execute one plan against the volume's device."""
        return execute_plan(
            plan, self.volume.device, self.volume.cipher_for, self.plan_journal
        )

    @contextmanager
    def _exclusive(self, operation: str) -> Iterator[None]:
        """Tripwire enforcing the single-threaded locking contract.

        Mutating primitives run inside this guard; entering it while
        another primitive is mid-flight (re-entrant callback or an
        unsynchronized second thread) raises
        :class:`~repro.errors.ConcurrentAccessError` instead of letting
        the interleaved PRNG draws and bitmap mutations corrupt state.
        """
        if self._active_op is not None:
            raise ConcurrentAccessError(
                f"agent entered {operation!r} while {self._active_op!r} is still in "
                "progress; serialize agent calls (see repro.core.agent locking contract) "
                "or serve through ConcurrentVolumeService"
            )
        self._active_op = operation
        try:
            yield
        finally:
            self._active_op = None

    # -- policy hooks implemented by the constructions -------------------------

    @abstractmethod
    def header_key_for(self, fak: FileAccessKey) -> bytes:
        """Key used to encrypt header blocks of a file opened with ``fak``."""

    @abstractmethod
    def content_key_for(self, fak: FileAccessKey) -> bytes:
        """Key used to encrypt data blocks of a file opened with ``fak``."""

    @abstractmethod
    def select_random_block(self) -> int:
        """Draw a uniformly random block from the agent's selection space.

        Construction 1 draws over the whole volume; Construction 2 draws
        over the blocks of the files disclosed to it.
        """

    @abstractmethod
    def is_dummy_block(self, index: int) -> bool:
        """Whether ``index`` currently holds no useful data."""

    @abstractmethod
    def key_for_block(self, index: int) -> bytes:
        """Key under which block ``index`` is encrypted (for dummy updates)."""

    @abstractmethod
    def claim_dummy_block(self, new_data_block: int, released_block: int) -> None:
        """Account for a Figure-6 swap.

        ``new_data_block`` stops being a dummy block (it now holds the
        updated data); ``released_block`` becomes a dummy block.
        """

    # -- block ownership bookkeeping ----------------------------------------------

    def _track_block(self, index: int, handle: HiddenFile, role: str) -> None:
        """Record that ``index`` belongs to ``handle`` (subclasses may extend)."""
        self._block_owner[index] = (handle, role)

    def _untrack_block(self, index: int) -> None:
        """Forget the ownership of ``index`` (subclasses may extend)."""
        self._block_owner.pop(index, None)

    def _register_handle(self, handle: HiddenFile) -> None:
        for index in handle.header.block_pointers:
            self._track_block(index, handle, "data")
        for index in handle.header.header_blocks:
            self._track_block(index, handle, "header")

    def _unregister_handle(self, handle: HiddenFile) -> None:
        for index in list(self._block_owner):
            owner, _ = self._block_owner[index]
            if owner is handle:
                self._untrack_block(index)

    def owner_of(self, index: int) -> tuple[HiddenFile, str] | None:
        """The handle owning a block the agent knows about, if any."""
        return self._block_owner.get(index)

    @property
    def known_blocks(self) -> set[int]:
        """All physical blocks of files the agent currently has open."""
        return set(self._block_owner)

    # -- file lifecycle -------------------------------------------------------------

    def create_file(
        self, fak: FileAccessKey, path: str, content: bytes, stream: str = "default"
    ) -> HiddenFile:
        """Create a hidden file under this construction's key policy."""
        handle = self.volume.create_file(
            fak,
            path,
            content,
            header_key=self.header_key_for(fak),
            content_key=self.content_key_for(fak),
            is_dummy=fak.is_dummy,
            stream=stream,
        )
        self._register_handle(handle)
        return handle

    def open_file(self, fak: FileAccessKey, path: str, stream: str = "default") -> HiddenFile:
        """Open an existing hidden file under this construction's key policy."""
        handle = self.volume.open_file(
            fak,
            path,
            header_key=self.header_key_for(fak),
            content_key=self.content_key_for(fak),
            stream=stream,
        )
        self._register_handle(handle)
        return handle

    def read_file(self, handle: HiddenFile, stream: str = "default") -> bytes:
        """Read a whole hidden file."""
        return self.volume.read_file(handle, stream)

    def read_block(self, handle: HiddenFile, logical_index: int, stream: str = "default") -> bytes:
        """Read one logical block of a hidden file."""
        return self.volume.read_block(handle, logical_index, stream)

    def plan_read_blocks(
        self, handle: HiddenFile, logical_indices: Iterable[int], stream: str = "default"
    ) -> IoPlan:
        """Plan a run of logical-block reads (steps carry the content cipher)."""
        cipher = self.volume.cipher_for(handle.content_key)
        return IoPlan(
            [
                ReadStep(handle.header.physical_block(logical), stream, cipher=cipher)
                for logical in logical_indices
            ],
            label="read_blocks",
        )

    def read_blocks(
        self, handle: HiddenFile, logical_indices: Iterable[int], stream: str = "default"
    ) -> list[bytes]:
        """Read a run of logical blocks through the batched device path.

        Trace-identical to a loop of :meth:`read_block` over
        ``logical_indices`` — the device sees the same block requests in
        the same order — planned as one read run and executed through
        the batched pipeline in one call.
        """
        return self._execute(self.plan_read_blocks(handle, logical_indices, stream))

    def plan_save_file(self, handle: HiddenFile, stream: str = "default") -> IoPlan:
        """Plan a header-chain save: allocator/IV draws and sealing, no device I/O."""
        indices, datas = self.volume.plan_header_save(handle)
        self._register_handle(handle)
        return IoPlan(
            [WriteStep(index, data, stream) for index, data in zip(indices, datas, strict=True)],
            label="save_file",
        )

    def save_file(self, handle: HiddenFile, stream: str = "default") -> None:
        """Flush the cached header chain of an open file to the device."""
        self._execute(self.plan_save_file(handle, stream))

    def close_file(self, handle: HiddenFile, stream: str = "default") -> None:
        """Save (if dirty) and forget an open file."""
        if handle.dirty:
            self.save_file(handle, stream)
        self._unregister_handle(handle)

    def delete_file(self, handle: HiddenFile, stream: str = "default") -> None:
        """Delete an open file: free its blocks and drop it from the selection space.

        Deletion performs **no device I/O** — the freed blocks keep
        their now-meaningless ciphertext, so an attacker comparing
        snapshots cannot tell a deletion happened.  The handle is left
        empty and must not be used afterwards.
        """
        if self.plan_journal is not None:
            # Deletion is pure bookkeeping; its plan is deliberately
            # empty.  An in-memory journal lists it; the durable journal
            # persists nothing for a plan with no write target, so the
            # sidecar stays as unchanged as the volume.  With no device
            # I/O to land, it commits immediately.
            self.plan_journal.record(IoPlan([], label="delete_file"))
            self.plan_journal.mark_committed()
        self._unregister_handle(handle)
        self.volume.delete_file(handle, stream)

    # -- the hiding primitives --------------------------------------------------------

    def plan_dummy_update(self, stream: str = "dummy") -> tuple[IoPlan, int]:
        """Plan one dummy update: draw the block and its fresh IV, no device I/O."""
        index = self.select_random_block()
        step = ResealStep(index, self.key_for_block(index), self.volume.fresh_iv(), stream)
        return IoPlan([step], label="dummy_update"), index

    def dummy_update(self, stream: str = "dummy") -> int:
        """Perform one dummy update on a uniformly random block.

        Returns the index of the block touched.  Cost: one read and one
        write, exactly like each iteration of a real update.
        """
        with self._exclusive("dummy_update"):
            plan, index = self.plan_dummy_update(stream)
            self._execute(plan)
            return index

    def plan_dummy_update_batch(
        self, count: int, stream: str = "dummy"
    ) -> tuple[IoPlan, list[int]]:
        """Plan ``count`` coalesced dummy updates (batched reseal schedule)."""
        indices = [self.select_random_block() for _ in range(count)]
        keys = [self.key_for_block(index) for index in indices]
        new_ivs = self.volume.fresh_ivs(count)
        steps = [
            ResealStep(index, key, new_iv, stream, batched=True)
            for index, key, new_iv in zip(indices, keys, new_ivs, strict=True)
        ]
        return IoPlan(steps, label="dummy_update_batch"), indices

    def dummy_update_batch(self, count: int, stream: str = "dummy") -> list[int]:
        """Run ``count`` dummy updates coalesced through the batched device paths.

        The block draws and the IV draws consume exactly the streams a
        loop of :meth:`dummy_update` would (selection and IV PRNGs are
        independent streams), and the final device bytes are identical.
        Only the I/O *schedule* differs: the batch issues ``count`` reads
        followed by ``count`` writes instead of read/write pairs, so the
        per-request Python overhead collapses into two batched device
        calls.  Snapshot-level observables (which blocks changed, to
        what ciphertext) are unchanged; the request trace shows the same
        multiset of operations in a locally reordered schedule.
        Duplicate draws are safe: resealing preserves the plaintext, so
        the reads-then-writes schedule leaves the same bytes as
        resealing the reseal (the loop's behaviour).
        """
        if count <= 0:
            return []
        with self._exclusive("dummy_update_batch"):
            plan, indices = self.plan_dummy_update_batch(count, stream)
            self._execute(plan)
            return indices

    def _plan_one_update(
        self,
        handle: HiddenFile,
        logical_index: int,
        payload: bytes,
        stream: str,
    ) -> tuple[IoPlan, UpdateResult]:
        """Plan one Figure-6 update: draws and bookkeeping, no device I/O.

        Nothing mutates until the terminal iteration, so an error raised
        while planning leaves the update untouched.  Hoisting the draws
        off the device path is sound because no Figure-6 decision
        depends on device contents.
        """
        if self.owner_of(handle.header.physical_block(logical_index)) is None:
            raise UnknownFileError(
                "the agent does not hold keys for the file being updated"
            )
        b1 = handle.header.physical_block(logical_index)
        iterations = 0
        reads = 0
        writes = 0
        steps: list[ResealStep | CycleStep] = []

        while True:
            iterations += 1
            b2 = self.select_random_block()

            if b2 == b1:
                # Update in place: read-modify-write at the same location.
                final_iv = self.volume.fresh_iv()
                target = b1
                reads += 1
                writes += 1
                result = UpdateResult(iterations, reads, writes, moved_from=b1, moved_to=b1)
                break

            if self.is_dummy_block(b2):
                # Swap: the data moves to B2, B1 becomes a dummy block.
                final_iv = self.volume.fresh_iv()
                target = b2
                reads += 1
                writes += 1
                handle.header.relocate(logical_index, b2)
                handle.mark_dirty()
                self.volume.allocator.transfer(b1, b2)
                # Ownership hand-over: B1 leaves the data file, the dummy pool
                # absorbs it (claim_dummy_block sees B2 still owned by its
                # dummy file at this point), then B2 joins the data file.
                self._untrack_block(b1)
                self.claim_dummy_block(new_data_block=b2, released_block=b1)
                self._track_block(b2, handle, "data")
                result = UpdateResult(iterations, reads, writes, moved_from=b1, moved_to=b2)
                break

            # B2 is another data block: plan it a dummy update and try again.
            steps.append(ResealStep(b2, self.key_for_block(b2), self.volume.fresh_iv(), stream))
            reads += 1
            writes += 1

        [sealed] = self.volume.seal_payloads(handle.content_key, [payload], [final_iv])
        steps.append(CycleStep(b1, target, sealed, stream))
        return IoPlan(steps, label="update_block"), result

    def update_block(
        self,
        handle: HiddenFile,
        logical_index: int,
        payload: bytes,
        stream: str = "default",
    ) -> UpdateResult:
        """Update one logical block of a file using the Figure-6 algorithm."""
        with self._exclusive("update_block"):
            plan, result = self._plan_one_update(handle, logical_index, payload, stream)
            self._execute(plan)
            return result

    def _plan_updates(
        self,
        handle: HiddenFile,
        start_logical: int,
        payloads: list[bytes],
        stream: str,
        steps: list[Step],
    ) -> list[UpdateResult]:
        """Plan consecutive Figure-6 updates in order, appending their steps to ``steps``.

        When planning update *k* raises, ``steps`` still holds every step
        of updates 0..k-1, whose bookkeeping has already moved.
        """
        results: list[UpdateResult] = []
        for offset, payload in enumerate(payloads):
            plan, result = self._plan_one_update(handle, start_logical + offset, payload, stream)
            steps.extend(plan.steps)
            results.append(result)
        return results

    def update_range(
        self,
        handle: HiddenFile,
        start_logical: int,
        payloads: list[bytes],
        stream: str = "default",
    ) -> list[UpdateResult]:
        """Update a run of consecutive logical blocks (the Figure 11(b) workload).

        Observationally this is exactly a loop of :meth:`update_block`:
        the Figure-6 draws, the IV draws and every device request happen
        in the same order with the same bytes.  The updates are planned
        in order and executed as *one* plan: adjacent cycles share one
        batched device call, and a durable journal records one entry
        and one commit for the whole call (cut into slices only where
        its ring cannot hold the call's before-images, see
        :func:`~repro.core.plan.execute_plan`).  If planning update *k*
        raises, the updates planned before it are executed first and
        the error propagates after them, so they are committed to the
        device just as the plain loop would leave them.
        :meth:`plan_update_range` is the plan-only variant the session
        facade and the engine run, which commits nothing on a planning
        error.
        """
        with self._exclusive("update_range"):
            steps: list[Step] = []
            try:
                return self._plan_updates(handle, start_logical, payloads, stream, steps)
            finally:
                # Also runs when planning raised: updates 0..k-1 land
                # before the error propagates.
                if steps:
                    self._execute(IoPlan(steps, label="update_range"))

    def plan_update_range(
        self,
        handle: HiddenFile,
        start_logical: int,
        payloads: list[bytes],
        stream: str = "default",
    ) -> tuple[IoPlan, list[UpdateResult]]:
        """Plan a whole range update as one fused plan, without executing it.

        Every update is checked for ownership before any is planned, and
        nothing is executed, so a planning error commits nothing.  The
        returned plan holds the same steps :meth:`update_range` executes.
        """
        with self._exclusive("plan_update_range"):
            for offset in range(len(payloads)):
                if self.owner_of(handle.header.physical_block(start_logical + offset)) is None:
                    raise UnknownFileError(
                        "the agent does not hold keys for the file being updated"
                    )
            steps: list[Step] = []
            results = self._plan_updates(handle, start_logical, payloads, stream, steps)
            return IoPlan(steps, label="update_range"), results

    def append_blocks(
        self, handle: HiddenFile, payloads: list[bytes], stream: str = "default"
    ) -> list[int]:
        """Append whole data blocks to an open file and track their locations.

        The appended blocks join the agent's selection space (for the
        volatile agent) exactly like blocks registered at open time.  The
        caller is responsible for saving the grown header afterwards;
        :meth:`repro.service.Session.append` is the byte-granular public
        path that does this bookkeeping.
        """
        with self._exclusive("append_blocks"):
            plan, logicals = self._plan_append_blocks(handle, payloads, stream)
            self._execute(plan)
            return logicals

    def _plan_append_blocks(
        self, handle: HiddenFile, payloads: list[bytes], stream: str
    ) -> tuple[IoPlan, list[int]]:
        """Plan whole-block appends: allocation, sealing and tracking, no device I/O."""
        if (
            payloads
            and handle.num_blocks > 0
            and self.owner_of(handle.header.physical_block(0)) is None
        ):
            raise UnknownFileError(
                "the agent does not hold keys for the file being appended to"
            )
        steps: list[WriteStep] = []
        logicals: list[int] = []
        for payload in payloads:
            logical, physical, sealed = self.volume.plan_append_block(handle, payload)
            self._track_block(physical, handle, "data")
            steps.append(WriteStep(physical, sealed, stream))
            logicals.append(logical)
        return IoPlan(steps, label="append_blocks"), logicals

    def plan_append_blocks(
        self, handle: HiddenFile, payloads: list[bytes], stream: str = "default"
    ) -> tuple[IoPlan, list[int]]:
        """Plan whole-block appends without executing them."""
        with self._exclusive("plan_append_blocks"):
            return self._plan_append_blocks(handle, payloads, stream)

    def idle(self, num_dummy_updates: int, stream: str = "dummy") -> list[int]:
        """Run a burst of dummy updates, as the agent does when no requests arrive.

        Each update runs through the single-block :meth:`dummy_update`
        (read/write pairs, one per update); the concurrent engine uses
        :meth:`dummy_update_batch` for its coalesced bursts instead.
        """
        return [self.dummy_update(stream) for _ in range(num_dummy_updates)]
