"""The session-oriented service facade over a hidden volume.

The paper's constructions are ultimately a *service* (Sections 4.1-4.2,
Figure 6): many users log in, issue byte-granular reads and updates
against hidden files, and log out, while the agent hides the access
patterns.  :class:`HiddenVolumeService` is that service — it bundles the
simulated storage, the StegFS volume, one of the two update-hiding
agents and (optionally) the hierarchical oblivious read path, and hands
out :class:`Session` objects that speak in *paths and byte ranges*.

No caller of this module ever touches ``data_field_bytes``, block
indices or ``FileAccessKey`` plumbing: the session translates byte
ranges to Figure-6 block updates internally, and key custody follows the
construction (FAK-held keys for the volatile agent, the master key for
the non-volatile agent).

Each byte-granular operation has one path.  ``Session.plan_read``,
``plan_write`` and ``plan_append`` build its :class:`~repro.core.plan.IoPlan`;
``Session.read``, ``write`` and ``append`` run that plan at once through
the agent's executor, and the concurrent engine fuses the same plans
across sessions.  Both execute under the agent's
:attr:`~repro.core.agent.StegAgent.plan_journal`, which a durable
service sets to its sidecar journal, so one call is one journal entry.

Quickstart::

    service = HiddenVolumeService.create("volatile", volume_mib=16, seed=7)
    alice = service.login(service.new_keyring("alice"))
    alice.create("/alice/report.txt", b"top secret")
    alice.write("/alice/report.txt", b"TOP", at=0)
    assert alice.read("/alice/report.txt", size=3) == b"TOP"
    alice.logout()           # the agent forgets alice's keys
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable

from repro.core.agent import StegAgent, UpdateResult
from repro.core.journal import JournalBackend, journal_sidecar_path
from repro.core.nonvolatile import NonVolatileAgent
from repro.core.oblivious.reader import ObliviousReader
from repro.core.oblivious.store import ObliviousStore, ObliviousStoreConfig
from repro.core.plan import IoPlan, PlannedOp, Step
from repro.core.volatile import VolatileAgent
from repro.crypto.keys import FileAccessKey, KeyRing
from repro.crypto.prng import Sha256Prng
from repro.errors import (
    ByteRangeError,
    ServiceClosedError,
    ServiceError,
    SessionClosedError,
    SessionConflictError,
)
from repro.stegfs.file import HiddenFile
from repro.stegfs.filesystem import StegFsVolume
from repro.storage.backend import BlockBackend, MmapFileBackend
from repro.storage.device import RawDevice, split_volume
from repro.storage.disk import MIB, RawStorage, StorageGeometry
from repro.storage.latency import DiskLatencyModel

CONSTRUCTIONS = ("volatile", "nonvolatile")


@dataclass(frozen=True)
class ObliviousConfig:
    """Declarative shape of the optional oblivious read path (Section 5).

    When passed to :meth:`HiddenVolumeService.create`, the raw volume is
    split into a StegFS partition and an oblivious partition, and
    sessions gain ``read(..., oblivious=True)``.

    Attributes
    ----------
    buffer_blocks:
        Size of the hierarchy's first level (the paper's buffer knob).
    last_level_blocks:
        Capacity of the deepest level; together with ``buffer_blocks``
        this fixes the hierarchy height.
    partition_blocks:
        Blocks reserved for the oblivious partition; defaults to half
        the volume.
    """

    buffer_blocks: int = 8
    last_level_blocks: int = 256
    partition_blocks: int | None = None


@dataclass(frozen=True)
class FileStat:
    """Public metadata of one file visible to a session."""

    path: str
    size_bytes: int
    num_blocks: int
    is_decoy: bool


class Session:
    """One logged-in user's handle on the service.

    A session owns the user's :class:`~repro.crypto.keys.KeyRing`, keeps
    the user's files open with the agent, and exposes byte-granular
    ``read``/``write``/``append``, each of which runs the block plan its
    ``plan_*`` twin builds (the Figure-6 update algorithm for writes).
    Sessions are created by :meth:`HiddenVolumeService.login` only.
    """

    def __init__(self, service: "HiddenVolumeService", keyring: KeyRing, stream: str):
        self._service = service
        self.keyring = keyring
        self.stream = stream
        self._handles: dict[str, HiddenFile] = {}
        self._closed = False

    # -- introspection ---------------------------------------------------------------

    @property
    def user(self) -> str:
        """Name of the user who opened this session."""
        return self.keyring.owner

    @property
    def active(self) -> bool:
        """Whether the session is still logged in."""
        return not self._closed

    @property
    def paths(self) -> list[str]:
        """Paths of the files this session has open, sorted."""
        return sorted(self._handles)

    def stat(self, path: str) -> FileStat:
        """Size and shape of one open file."""
        handle = self._handle(path)
        return FileStat(
            path=path,
            size_bytes=handle.size_bytes,
            num_blocks=handle.num_blocks,
            is_decoy=handle.is_dummy,
        )

    # -- internals -------------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise SessionClosedError(f"session of {self.user!r} has logged out")

    def _handle(self, path: str) -> HiddenFile:
        self._check_open()
        handle = self._handles.get(path)
        if handle is None:
            raise ServiceError(f"session of {self.user!r} has no file at {path!r}")
        return handle

    def _attach(self, path: str, handle: HiddenFile) -> None:
        handle.owner = self.user
        self._handles[path] = handle

    # -- file lifecycle --------------------------------------------------------------

    def create(self, path: str, data: bytes) -> FileStat:
        """Hide a new file at ``path`` and register its key in the key ring."""
        self._check_open()
        if path in self._handles:
            raise ServiceError(f"session of {self.user!r} already has a file at {path!r}")
        fak = self._service._generate_fak(self.user, path, is_dummy=False)
        handle = self._service.agent.create_file(fak, path, data, self.stream)
        self.keyring.add_hidden(path, fak)
        self._attach(path, handle)
        return self.stat(path)

    def create_decoy(self, path: str, size_bytes: int) -> FileStat:
        """Create a dummy file of random bytes for plausible deniability.

        The decoy's blocks widen the agent's dummy-selection space
        (Section 4.2.1: dummy files of approximately data-file size are
        distributed to the users).
        """
        self._check_open()
        if path in self._handles:
            raise ServiceError(f"session of {self.user!r} already has a file at {path!r}")
        service = self._service
        fak = service._generate_fak(self.user, path, is_dummy=True)
        num_blocks = service.volume.blocks_for_size(max(0, size_bytes))
        content = service._decoy_prng.spawn(f"decoy:{self.user}:{path}").random_bytes(
            num_blocks * service.volume.data_field_bytes
        )
        handle = service.agent.create_file(fak, path, content, self.stream)
        self.keyring.add_dummy(path, fak)
        self._attach(path, handle)
        return self.stat(path)

    def delete(self, path: str) -> None:
        """Delete a file (real or decoy): free its blocks, drop its key.

        Deletion routes to
        :meth:`~repro.stegfs.filesystem.StegFsVolume.delete_file`: every
        block returns to the dummy pool with its ciphertext intact, so
        — exactly as the paper requires — deleting leaves **no device
        I/O** and no on-disk trace distinguishable from dummy data.  The
        path's FAK is removed from the session's key ring; without it
        the file is unrecoverable.
        """
        handle = self._handle(path)
        self._service.agent.delete_file(handle, self.stream)
        del self._handles[path]
        self.keyring.remove(path)

    def logout(self) -> None:
        """Save dirty headers, close every file and forget the keys.

        After logout the agent retains nothing about this user; for the
        volatile agent the selection space shrinks accordingly.
        """
        self._check_open()
        for handle in self._handles.values():
            self._service.agent.close_file(handle, self.stream)
        self._handles.clear()
        self._closed = True
        self._service._forget_session(self)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info: object) -> None:
        if not self._closed:
            self.logout()

    # -- byte-granular data path -----------------------------------------------------

    def read(
        self, path: str, at: int = 0, size: int | None = None, oblivious: bool = False
    ) -> bytes:
        """Read ``size`` bytes at byte offset ``at`` (the whole file by default).

        Runs the plan of :meth:`plan_read` through the agent: one batched
        read of the covered blocks, in ascending logical order.

        With ``oblivious=True`` the blocks are served one by one through
        the hierarchical oblivious store (requires a service created with
        an :class:`ObliviousConfig`), hiding the read pattern from a
        traffic-analysis attacker.

        Known defect: an oblivious read can return the bytes of a
        block's previous occupant.  The oblivious reader caches blocks
        by physical index, and nothing drops an entry when a Figure-6
        update relocates a block or a freed index is reused.  Rounds of
        "overwrite a 3-block file, create a 1-block file, read both
        obliviously" returned wrong bytes in 8 of 8 seeds within 17
        rounds; plain reads stay correct.  ROADMAP.md item 6 (oblivious
        reads) tracks the fix.
        """
        if not oblivious:
            return self._run(self.plan_read(path, at, size))
        handle = self._handle(path)
        blocks, keep = self._read_span(handle, path, at, size)
        if not blocks:
            return b""
        reader = self._service._require_oblivious()
        pieces = [reader.read_block(handle, logical, self.stream) for logical in blocks]
        return b"".join(pieces)[keep]

    def plan_read(self, path: str, at: int = 0, size: int | None = None) -> PlannedOp:
        """Plan a byte-range read without executing it.

        The plan is the agent's ``read_blocks`` plan over the covered
        blocks; its steps carry the content cipher so the executor
        decrypts them grouped per file key, and ``finish`` slices the
        partial boundary blocks off the joined payloads.  :meth:`read`
        runs it at once; the engine fuses it with other sessions' plans.
        """
        handle = self._handle(path)
        blocks, keep = self._read_span(handle, path, at, size)
        plan = self._service.agent.plan_read_blocks(handle, blocks, self.stream)
        return PlannedOp(plan, lambda payloads: b"".join(payloads)[keep])

    def _read_span(
        self, handle: HiddenFile, path: str, at: int, size: int | None
    ) -> tuple[range, slice]:
        """Check a read; return the logical blocks it covers and the slice of their bytes."""
        if at < 0:
            raise ByteRangeError("read offset must be non-negative")
        if size is not None and size < 0:
            raise ByteRangeError("read size must be non-negative")
        if size is None:
            size = max(0, handle.size_bytes - at)
        end = at + size
        if end > handle.size_bytes:
            raise ByteRangeError(
                f"read of [{at}, {end}) exceeds the {handle.size_bytes}-byte file {path!r}"
            )
        if size == 0:
            return range(0), slice(0, 0)
        payload_bytes = self._service.volume.data_field_bytes
        first = at // payload_bytes
        offset = first * payload_bytes
        return range(first, (end - 1) // payload_bytes + 1), slice(at - offset, end - offset)

    def plan_write(self, path: str, data: bytes, at: int = 0) -> PlannedOp:
        """Plan a byte-range write without executing it.

        Partially covered boundary blocks are read back *at plan time*
        (the one place a planner touches the device), which is sound
        inside the engine because pending plans of *other* sessions can
        only reseal this file's blocks — plaintext-preserving — and the
        engine flushes this session's own pending writes first.  The
        Figure-6 draws and bookkeeping all run now, via
        :meth:`~repro.core.agent.StegAgent.plan_update_range`, whose
        ``update_range`` plan is returned as built; ``finish`` returns
        its per-block update results.
        """
        handle = self._handle(path)
        if at < 0:
            raise ByteRangeError("write offset must be non-negative")
        if not data:
            return PlannedOp(IoPlan([], label="update_range"), lambda payloads: [])
        end = at + len(data)
        if end > handle.size_bytes:
            raise ByteRangeError(
                f"write of [{at}, {end}) exceeds the {handle.size_bytes}-byte file {path!r}; "
                "use append() to grow a file"
            )
        agent = self._service.agent
        payload_bytes = self._service.volume.data_field_bytes
        first = at // payload_bytes
        last = (end - 1) // payload_bytes
        head_pad = at - first * payload_bytes
        tail_pad = (last + 1) * payload_bytes - end

        region = bytearray()
        first_current: bytes | None = None
        if head_pad:
            # repro-lint: ignore[PLN001] -- documented plan-time boundary read; sound per docstring
            first_current = agent.read_block(handle, first, self.stream)
            region += first_current[:head_pad]
        region += data
        if tail_pad:
            if last == first and first_current is not None:
                last_current = first_current
            else:
                # repro-lint: ignore[PLN001] -- documented plan-time boundary read; see docstring
                last_current = agent.read_block(handle, last, self.stream)
            region += last_current[payload_bytes - tail_pad :]

        payloads = [
            bytes(region[offset : offset + payload_bytes])
            for offset in range(0, len(region), payload_bytes)
        ]
        plan, results = agent.plan_update_range(handle, first, payloads, self.stream)
        return PlannedOp(plan, lambda payloads: results)

    def plan_append(self, path: str, data: bytes) -> PlannedOp:
        """Plan an append without executing it.

        Combines the tail-block Figure-6 update, the whole-block appends
        and the grown header's save into one ``session_append`` plan;
        the file-size bookkeeping happens now, so ``finish`` just stats
        the file.  The tail block, when partially filled, is read back
        at plan time (see :meth:`plan_write` for why that is sound in
        the engine).
        """
        handle = self._handle(path)
        if not data:
            return PlannedOp(IoPlan([], label="session_append"), lambda payloads: self.stat(path))
        agent = self._service.agent
        payload_bytes = self._service.volume.data_field_bytes
        old_size = handle.size_bytes
        tail_used = old_size % payload_bytes
        steps: list[Step] = []

        remaining = data
        if tail_used:
            tail_logical = old_size // payload_bytes
            tail_room = payload_bytes - tail_used
            # repro-lint: ignore[PLN001] -- documented plan-time tail read; sound per plan_write
            current = agent.read_block(handle, tail_logical, self.stream)
            merged = current[:tail_used] + remaining[:tail_room]
            tail_plan, _ = agent.plan_update_range(handle, tail_logical, [merged], self.stream)
            steps.extend(tail_plan.steps)
            remaining = remaining[tail_room:]
        if remaining:
            chunks = [
                remaining[offset : offset + payload_bytes]
                for offset in range(0, len(remaining), payload_bytes)
            ]
            grow_plan, _ = agent.plan_append_blocks(handle, chunks, self.stream)
            steps.extend(grow_plan.steps)
        handle.header.file_size = old_size + len(data)
        handle.mark_dirty()
        steps.extend(agent.plan_save_file(handle, self.stream).steps)
        return PlannedOp(IoPlan(steps, label="session_append"), lambda payloads: self.stat(path))

    def _run(self, op: PlannedOp) -> Any:
        """Execute a planned operation through the agent's journalled executor; finish it."""
        return op.finish(self._service.agent._execute(op.plan))

    def write(self, path: str, data: bytes, at: int = 0) -> list[UpdateResult]:
        """Overwrite ``data`` at byte offset ``at`` through the Figure-6 path.

        Runs the plan of :meth:`plan_write`: partially covered boundary
        blocks are read back and merged, and the whole run of
        logical-block updates executes as one plan, so every touched
        block is relocated/dummy-mixed exactly as
        :meth:`~repro.core.agent.StegAgent.update_range` would, and a
        durable journal records one entry for the call.  The range must
        lie within the file's current extent; use :meth:`append` to grow
        it.
        """
        self._check_open()
        return self._run(self.plan_write(path, data, at))

    def append(self, path: str, data: bytes) -> FileStat:
        """Grow the file by ``data`` bytes at its end.

        Runs the plan of :meth:`plan_append`: a partially filled tail
        block is completed through the Figure-6 update path, whole new
        blocks are allocated at uniformly random free locations, exactly
        like the blocks of a fresh file, and the grown header is saved,
        all as one plan, so a durable journal records the append as one
        entry.
        """
        self._check_open()
        return self._run(self.plan_append(path, data))

    # -- coercion --------------------------------------------------------------------

    def deniable_view(self) -> KeyRing:
        """A key ring this user could plausibly disclose under coercion.

        Decoy keys are revealed as-is; hidden-file keys are shown in
        their "claimed dummy" form with the content key withheld
        (Section 4.2.1).  The returned ring is fully functional — a
        coercer can :meth:`HiddenVolumeService.login` with it — but it
        opens every file as a dummy and never yields the hidden
        plaintext.
        """
        self._check_open()
        disclosed = KeyRing(owner=self.user)
        for path, fak in self.keyring.deniable_view().items():
            disclosed.add_dummy(path, fak)
        return disclosed


class HiddenVolumeService:
    """Facade bundling storage, volume, agent and key management.

    Wraps existing parts (``HiddenVolumeService(storage, volume, agent,
    prng)``) or builds a fresh system (:meth:`create`).  All user-facing
    work goes through :class:`Session` objects handed out by
    :meth:`login`.
    """

    def __init__(
        self,
        storage: RawStorage,
        volume: StegFsVolume,
        agent: StegAgent,
        prng: Sha256Prng,
        oblivious_store: ObliviousStore | None = None,
        oblivious_reader: ObliviousReader | None = None,
        fak_entropy: bytes | None = None,
    ):
        self.storage = storage
        self.volume = volume
        self.agent = agent
        self.prng = prng
        self.oblivious_store = oblivious_store
        self.oblivious_reader = oblivious_reader
        # By default new-file FAKs derive deterministically from the
        # service PRNG — reproducible, but it makes the create seed a
        # master secret (anyone knowing seed+owner+path can re-derive
        # the keys).  Deployments pass ``fak_entropy`` (e.g.
        # ``os.urandom(32)``) to root key generation in real entropy.
        fak_root = prng if fak_entropy is None else Sha256Prng(fak_entropy)
        self._fak_prng = fak_root.spawn("service-faks")
        self._decoy_prng = prng.spawn("service-decoys")
        self._sessions: dict[str, Session] = {}
        self._service_closed = False
        #: Durable intent log for file-backed volumes; attached by
        #: :meth:`create`/:meth:`open`, ``None`` for in-memory services.
        self.journal: JournalBackend | None = None

    # -- construction ----------------------------------------------------------------

    @classmethod
    def create(
        cls,
        construction: str = "volatile",
        volume_mib: int = 64,
        seed: int = 0,
        block_size: int = 4096,
        latency: DiskLatencyModel | None = None,
        oblivious: ObliviousConfig | None = None,
        path: str | os.PathLike | None = None,
        fak_entropy: bytes | None = None,
        journal: bool = True,
    ) -> "HiddenVolumeService":
        """Build a ready-to-serve hidden volume.

        ``construction`` selects the agent: ``"volatile"`` is the
        paper's Construction 2 ("StegHide", per-user keys, login/logout)
        and ``"nonvolatile"`` is Construction 1 ("StegHide*", agent-held
        master key).

        With ``path`` the volume is formatted onto a durable
        memory-mapped file instead of process memory: the file receives
        the same random fill and thereafter every encrypted block, and
        nothing else — no geometry, no bitmaps, no directory — so a
        seized file is indistinguishable from random bytes.  Reopen it
        later with :meth:`open` (same ``block_size`` and, for the
        non-volatile construction, the same ``seed``).

        **Treat the seed as a secret.**  Under the default derivation
        the FAK of every file a session creates is a deterministic
        function of ``(seed, owner, path)``, so anyone holding the seed
        can re-derive the keys of guessable paths — and re-creating a
        deleted path mints the same FAK again.  Pass ``fak_entropy``
        (e.g. ``os.urandom(32)``, kept with the key rings) to root key
        generation in real entropy instead; reproduce a session's keys
        by passing the same entropy to :meth:`open`.

        File-backed volumes also get a durable intent log by default: a
        fixed-size, cipher-sealed ``<path>.journal`` sidecar that lets
        :meth:`open` roll a crash-torn plan back to its pre-plan bytes
        (see :mod:`repro.core.journal`).  Pass ``journal=False`` to opt
        out: no sidecar is written, so :meth:`open` journals nothing
        either.  In-memory services ignore the flag (nothing survives
        the process anyway).
        """
        if construction not in CONSTRUCTIONS:
            raise ValueError(
                f"unknown construction {construction!r}; expected one of {CONSTRUCTIONS}"
            )
        prng = Sha256Prng(seed)
        geometry = StorageGeometry.from_capacity(volume_mib * MIB, block_size)
        backend = None
        journal_backend = None
        if path is not None:
            backend = MmapFileBackend.create(path, geometry.block_size, geometry.num_blocks)
            if journal:
                try:
                    journal_backend = JournalBackend.create(
                        journal_sidecar_path(path), cls._journal_key(prng)
                    )
                except BaseException:
                    backend.close()
                    os.unlink(path)
                    raise
        storage = RawStorage(geometry, latency=latency, backend=backend)
        storage.fill_random(seed)
        service = cls._wire(storage, construction, prng, oblivious, fak_entropy=fak_entropy)
        if journal_backend is not None:
            service._attach_journal(journal_backend, backend)
        return service

    @classmethod
    def open(
        cls,
        path: str | os.PathLike,
        construction: str = "volatile",
        seed: int = 0,
        block_size: int = 4096,
        latency: DiskLatencyModel | None = None,
        oblivious: ObliviousConfig | None = None,
        session_nonce: int | str = 0,
        fak_entropy: bytes | None = None,
        wrap_backend: Callable[[BlockBackend], BlockBackend] | None = None,
    ) -> "HiddenVolumeService":
        """Reopen a durable volume file in a fresh process.

        The volume file carries no plaintext metadata, so everything
        needed to serve it again is supplied by the owner: the
        ``block_size`` it was formatted with (the block count is
        inferred from the file size), the ``construction``, and — for
        the non-volatile agent — the original ``seed``, from which the
        agent's master key and dummy-file FAK re-derive.  Directory
        state and the allocation bitmap are *reconstructed from the
        on-disk headers* as users :meth:`login`: each key ring's FAKs
        re-locate their header chains through the Section-4.1.2 probe
        sequences, and every opened file re-registers its blocks with
        the allocator.  A wrong key ring locates nothing.

        Consequently, log every known key ring in **before** creating
        new files: a fresh allocator cannot know about blocks whose keys
        it has not yet seen, so creating files first may overwrite
        hidden data of key rings not yet disclosed — the same trade-off
        the paper's StegFS substrate makes.

        ``session_nonce`` salts this serving session's IV, allocation
        and dummy-selection streams so a reopened service does not
        replay the create-session's draws (IV reuse); pass a value you
        have not used before when serving the same volume repeatedly
        (the nonce's type is part of the salt, so ``0`` and ``"0"``
        are distinct).  ``fak_entropy`` has the same meaning as in
        :meth:`create` and governs the keys of files created *in this
        session* — pass fresh entropy unless you need to re-derive a
        previous session's keys.

        The service journals exactly when a ``<path>.journal`` sidecar
        exists, which :meth:`create` alone decides.  Its uncommitted
        entries are rolled back to their before-images *before* the
        service is wired, so a volume whose last process died mid-plan
        reads either the old or the new bytes of every plan — never a
        torn mixture.  Recovery issues only plain sealed-block writes
        and consumes no PRNG stream, so a recovered service is
        draw-for-draw identical to one that never crashed.  To inspect
        a sidecar without recovering it, open it with
        :meth:`~repro.core.journal.JournalBackend.open`, which recovers
        only when asked.  ``wrap_backend`` interposes on the block
        backend *after* recovery (the fault-injection hook — see
        :class:`~repro.storage.backend.FaultInjectingBackend`).
        """
        if construction not in CONSTRUCTIONS:
            raise ValueError(
                f"unknown construction {construction!r}; expected one of {CONSTRUCTIONS}"
            )
        backend = MmapFileBackend.open(path, block_size)
        prng = Sha256Prng(seed)
        sidecar = journal_sidecar_path(path)
        journal_backend = None
        if os.path.exists(sidecar):
            journal_backend = JournalBackend.open(sidecar, cls._journal_key(prng))
            journal_backend.recover(backend)
        device_backend = backend if wrap_backend is None else wrap_backend(backend)
        geometry = StorageGeometry(block_size=block_size, num_blocks=backend.num_blocks)
        storage = RawStorage(geometry, latency=latency, backend=device_backend)
        # The salt embeds the nonce's type: int 0 and str "0" stringify
        # identically but must not yield the same serving-session stream.
        salt = f"reopen:{type(session_nonce).__name__}:{session_nonce}"
        service = cls._wire(
            storage,
            construction,
            prng,
            oblivious,
            wiring_prng=prng.spawn(salt),
            fak_entropy=fak_entropy,
        )
        if journal_backend is not None:
            service._attach_journal(journal_backend, backend)
        return service

    @staticmethod
    def _journal_key(prng: Sha256Prng) -> bytes:
        # spawn() is a pure derivation (no parent state consumed), so
        # attaching a journal never perturbs the volume's own streams.
        return prng.spawn("journal").random_bytes(32)

    def _attach_journal(self, journal_backend: JournalBackend, backend: BlockBackend) -> None:
        journal_backend.bind(backend)
        self.journal = journal_backend
        self.agent.plan_journal = journal_backend

    @classmethod
    def _wire(
        cls,
        storage: RawStorage,
        construction: str,
        prng: Sha256Prng,
        oblivious: ObliviousConfig | None,
        wiring_prng: Sha256Prng | None = None,
        fak_entropy: bytes | None = None,
    ) -> "HiddenVolumeService":
        """Assemble volume, agent and oblivious path over prepared storage.

        ``wiring_prng`` (reopen only) feeds the streams that must *not*
        replay the create-session's draws — IVs, allocation, dummy
        selection — while the construction keys (the non-volatile
        master key) keep deriving from the root ``prng`` so that a
        reopened agent can decrypt what the original wrote.
        """
        fresh = wiring_prng is None
        wiring = prng if fresh else wiring_prng
        geometry = storage.geometry

        store = reader = None
        if oblivious is not None:
            oblivious_blocks = (
                oblivious.partition_blocks
                if oblivious.partition_blocks is not None
                else geometry.num_blocks // 2
            )
            if not 0 < oblivious_blocks < geometry.num_blocks:
                raise ValueError("oblivious partition must leave room for the StegFS partition")
            steg_part, obli_part = split_volume(storage, geometry.num_blocks - oblivious_blocks)
            device = steg_part
        else:
            device = RawDevice(storage)

        volume = StegFsVolume(device, wiring.spawn("volume"))
        # On reopen the construction keys (the non-volatile master key)
        # must re-derive from the original seed, but the selection
        # stream must be fresh per serving session.
        selection = None if fresh else wiring.spawn("agent")
        agent: StegAgent
        if construction == "volatile":
            agent = VolatileAgent(volume, prng.spawn("agent"), selection_prng=selection)
        else:
            agent = NonVolatileAgent(volume, prng.spawn("agent"), selection_prng=selection)

        if oblivious is not None:
            store = ObliviousStore(
                obli_part,
                ObliviousStoreConfig(
                    buffer_blocks=oblivious.buffer_blocks,
                    last_level_blocks=oblivious.last_level_blocks,
                ),
                wiring.spawn("store"),
            )
            reader = ObliviousReader(volume, store, wiring.spawn("reader"))
        return cls(storage, volume, agent, prng, store, reader, fak_entropy=fak_entropy)

    # -- key management --------------------------------------------------------------

    def new_keyring(self, owner: str) -> KeyRing:
        """A fresh, empty key ring for one user."""
        return KeyRing(owner=owner)

    def _generate_fak(self, owner: str, path: str, is_dummy: bool) -> FileAccessKey:
        return FileAccessKey.generate(self._fak_prng.spawn(f"{owner}:{path}"), is_dummy)

    # -- sessions --------------------------------------------------------------------

    @property
    def logged_in_users(self) -> list[str]:
        """Names of the users with an active session, sorted."""
        return sorted(self._sessions)

    def session_of(self, user: str) -> Session:
        """The active session of ``user``."""
        session = self._sessions.get(user)
        if session is None:
            raise ServiceError(f"user {user!r} has no active session")
        return session

    def login(self, keyring: KeyRing, stream: str = "default") -> Session:
        """Open a session: disclose the ring's keys and open all its files.

        Opening the files is what teaches the agent which physical
        blocks it may touch; for the volatile agent every login widens
        the dummy-selection space and every logout shrinks it.  On a
        reopened durable volume this is also what reconstructs the
        allocation bitmap: every file located through the ring's FAKs
        re-registers its blocks.
        """
        self._check_service_open()
        if keyring.owner in self._sessions:
            raise SessionConflictError(f"user {keyring.owner!r} is already logged in")
        session = Session(self, keyring, stream)
        try:
            for path, fak in keyring.all_keys().items():
                handle = self.agent.open_file(fak, path, stream)
                session._attach(path, handle)
        except Exception:
            # A stale or corrupt ring must not leave half the user's
            # blocks disclosed with no session able to close them.
            for handle in session._handles.values():
                self.agent.close_file(handle, stream)
            raise
        self._sessions[keyring.owner] = session
        return session

    def _forget_session(self, session: Session) -> None:
        self._sessions.pop(session.user, None)

    def idle(self, num_dummy_updates: int) -> None:
        """Let the agent run a burst of dummy updates, as it does between requests.

        Dummy updates are what make real Figure-6 updates statistically
        invisible; services representing a live deployment should call
        this between request bursts (Section 4.1.3).
        """
        self._check_service_open()
        self.agent.idle(num_dummy_updates)

    def concurrent(
        self,
        dummy_to_real_ratio: float = 1.0,
        quantum: int = 16,
        gather_timeout_s: float | None = None,
    ) -> "ConcurrentVolumeService":
        """Wrap this service in the thread-safe concurrent serving engine.

        The facade itself is single-threaded (the whole core is — see
        the locking contract in :mod:`repro.core.agent`); the returned
        :class:`~repro.service.concurrent.ConcurrentVolumeService`
        accepts per-session operations from any number of worker
        threads, serializes them through a fair scheduler, interleaves
        the agent's dummy stream at ``dummy_to_real_ratio`` and fuses
        adjacent block I/O — reads, writes and read/write cycles, across
        sessions — per scheduling quantum.  ``gather_timeout_s``
        overrides how long the scheduler waits for client arrivals
        before serving a narrower batch (``0`` disables gathering
        entirely).  The engine journals under the agent's
        :attr:`~repro.core.agent.StegAgent.plan_journal`, the service's
        durable journal when it has one, as the facade does.
        """
        self._check_service_open()
        from repro.service.concurrent import ConcurrentVolumeService

        return ConcurrentVolumeService(
            self,
            dummy_to_real_ratio=dummy_to_real_ratio,
            quantum=quantum,
            gather_timeout_s=gather_timeout_s,
        )

    # -- durability lifecycle ----------------------------------------------------------

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has shut this service down."""
        return self._service_closed

    def _check_service_open(self) -> None:
        if self._service_closed:
            raise ServiceClosedError("this HiddenVolumeService has been closed")

    def flush(self) -> None:
        """Persist all state: save dirty headers, push bytes to the backend.

        After a flush the volume file (for a file-backed service) holds
        everything needed to :meth:`open` it again — the process can die
        without losing hidden files, even while sessions stay logged in.
        """
        self._check_service_open()
        for session in self._sessions.values():
            for handle in session._handles.values():
                if handle.dirty:
                    self.agent.save_file(handle, session.stream)
        self.storage.flush()
        if self.journal is not None and not self.journal.closed:
            # Every committed plan's bytes are now durable, so the
            # journal can retire (trim) their entries.
            self.journal.checkpoint()
            self.journal.flush()

    def close(self) -> None:
        """Log every session out (saving dirty headers) and close the backend.

        Idempotent.  After close the service accepts no logins and the
        storage raises on block access; counters and the recorded trace
        stay readable for analysis.
        """
        if self._service_closed:
            return
        for user in list(self._sessions):
            self._sessions[user].logout()
        self.storage.close()
        if self.journal is not None and not self.journal.closed:
            self.journal.checkpoint()
            self.journal.close()
        self._service_closed = True

    def __enter__(self) -> "HiddenVolumeService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- oblivious read path ---------------------------------------------------------

    def _require_oblivious(self) -> ObliviousReader:
        if self.oblivious_reader is None:
            raise ServiceError(
                "this service was created without an ObliviousConfig; "
                "pass oblivious=ObliviousConfig(...) to HiddenVolumeService.create"
            )
        return self.oblivious_reader

    def dummy_oblivious_read(self, stream: str = "dummy") -> None:
        """Issue one dummy read against the oblivious hierarchy."""
        self._check_service_open()
        self._require_oblivious().dummy_oblivious_read(stream)

    # -- observability ---------------------------------------------------------------

    @property
    def num_blocks(self) -> int:
        """Blocks in the StegFS partition the agent manages."""
        return self.volume.num_blocks

    def disclosed_block_count(self) -> int:
        """Blocks currently in the agent's selection space.

        For the volatile agent this is the union of all logged-in users'
        file blocks; for the non-volatile agent the selection space is
        the whole volume.
        """
        if isinstance(self.agent, VolatileAgent):
            return self.agent.disclosed_block_count()
        return self.volume.num_blocks

    def disclosed_dummy_block_count(self) -> int:
        """Dummy blocks currently available as Figure-6 swap targets."""
        if isinstance(self.agent, VolatileAgent):
            return self.agent.disclosed_dummy_block_count()
        return self.volume.allocator.free_blocks

    def expected_update_overhead(self) -> float:
        """The paper's E = N/D expected I/O overhead at the current state."""
        return self.agent.expected_update_overhead()
