"""Declarative I/O plans: plan → fuse → execute.

Every reading/mutating primitive of the update-hiding agents is split
into a pure **planner** — PRNG draws, allocator transfers, header
relocation and crypto run up front and emit a sequence of declarative
steps, with no device I/O — and a generic **executor** that *fuses*
adjacent compatible steps and runs them against any
:class:`~repro.storage.device.BlockDevice` through the batched
``read_blocks``/``write_blocks``/``read_write_blocks`` paths.

Planning before executing is sound for the Figure-6 machinery because
no hiding decision depends on device *contents*: the selection, IV and
allocator PRNGs are independent spawned streams, so hoisting their
draws to plan time preserves each stream's draw sequence, and the
Figure-6 dummy test consults only in-memory bookkeeping.  The executor
then replays the plan in step order, so the device sees the same
requests, in the same order, with the same bytes, as the legacy
hand-rolled loops — the twin-trace suite in
``tests/test_plan_kernel.py`` pins draw/byte/trace equivalence for
every primitive.

Step vocabulary
---------------
:class:`ReadStep`
    Read one block.  ``keep=False`` marks a charging-only read whose
    bytes are discarded (the Figure-6 read of ``B1`` before its payload
    moves).  When ``cipher`` is set the executor returns the decrypted
    data field instead of the raw block, batching decryption per cipher
    across a whole fused run.
:class:`WriteStep`
    Write pre-sealed raw bytes (``iv || ciphertext``) to one block.
:class:`CycleStep`
    Read one block, then write another (or the same) — the terminal
    read/write pair of one Figure-6 update, in place or as a swap.
:class:`ResealStep`
    Read a block and rewrite it with a fresh IV (a dummy update).  The
    plaintext is preserved, which is what makes reseals *transparent*:
    executing a pending reseal before or after an unrelated read of the
    same block cannot change the bytes that read decrypts to.
    ``batched=True`` lets a run of reseals execute as batched reads
    followed by batched writes (the ``dummy_update_batch`` schedule);
    the default executes strict read/write pairs in step order.

Fusion invariants
-----------------
``fuse`` groups *adjacent* same-kind steps into :class:`FusedRun`\\ s
and never reorders steps across runs, so the per-plan (per-session)
step order is always preserved.  Two writes to the same index are never
merged into one run — both device events survive, in order — and a
cycle run whose indices collide is executed by the device as a genuine
per-cycle loop (see ``read_write_blocks``), so hazards cannot reorder.
Only a ``batched=True`` reseal run reorders *locally* (reads first,
then writes), which is byte-safe because reseals are
plaintext-idempotent, even under duplicate draws.

:class:`PlanJournal` is the crash-consistency seam: it records each
plan's step sequence *before* any of its I/O executes and is told via
:meth:`~PlanJournal.mark_committed` when the plan's I/O has fully
landed.  :class:`repro.core.journal.JournalBackend` subclasses it to
persist every entry (with before-images) to a cipher-sealed sidecar
file, which is what lets ``HiddenVolumeService.open`` roll a torn plan
back to its pre-plan bytes.  A durable journal's ring holds a bounded
number of before-images, its :attr:`~PlanJournal.entry_budget`; the
journalled executors cut a plan that writes more blocks than that into
consecutive slices (:func:`split_plan`), each recorded, executed and
committed in turn, so no plan can wedge the ring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence, Union

from repro.storage.block import BLOCK_IV_SIZE, StoredBlock
from repro.storage.device import BlockDevice

#: Builds (or looks up) the field cipher for a key; the volume's
#: ``cipher_for`` is the canonical implementation.
CipherFor = Callable[[bytes], Any]


@dataclass(frozen=True)
class ReadStep:
    """Read block ``index``; discard the bytes when ``keep`` is False."""

    index: int
    stream: str = "default"
    cipher: Any = None
    keep: bool = True


@dataclass(frozen=True)
class WriteStep:
    """Write pre-sealed raw bytes to block ``index``."""

    index: int
    data: bytes = b""
    stream: str = "default"


@dataclass(frozen=True)
class CycleStep:
    """Read ``read_index`` then write ``data`` to ``write_index``."""

    read_index: int
    write_index: int
    data: bytes = b""
    stream: str = "default"


@dataclass(frozen=True)
class ResealStep:
    """Dummy-update block ``index``: decrypt under ``key``, re-encrypt under ``new_iv``."""

    index: int
    key: bytes = field(default=b"", repr=False)
    new_iv: bytes = b""
    stream: str = "dummy"
    batched: bool = False


Step = Union[ReadStep, WriteStep, CycleStep, ResealStep]

#: Run kinds, in the executor's dispatch vocabulary.
KIND_READ = "read"
KIND_WRITE = "write"
KIND_CYCLE = "cycle"
KIND_RESEAL = "reseal"
KIND_RESEAL_BATCH = "reseal-batch"


def write_targets(step: Step) -> tuple[int, ...]:
    """The block ``step`` writes, as a 0- or 1-tuple (a read writes none)."""
    if isinstance(step, (WriteStep, ResealStep)):
        return (step.index,)
    if isinstance(step, CycleStep):
        return (step.write_index,)
    return ()


def _kind_of(step: Step) -> str:
    if isinstance(step, ReadStep):
        return KIND_READ
    if isinstance(step, WriteStep):
        return KIND_WRITE
    if isinstance(step, CycleStep):
        return KIND_CYCLE
    if isinstance(step, ResealStep):
        return KIND_RESEAL_BATCH if step.batched else KIND_RESEAL
    raise TypeError(f"not an I/O plan step: {step!r}")


@dataclass
class IoPlan:
    """One primitive's declarative I/O, in execution order."""

    steps: list[Step] = field(default_factory=list)
    label: str = ""

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def device_ops(self) -> int:
        """Device operations this plan will charge (reads + writes)."""
        ops = 0
        for step in self.steps:
            ops += 1 if isinstance(step, (ReadStep, WriteStep)) else 2
        return ops


@dataclass
class PlannedOp:
    """A planned operation plus the finisher turning payloads into its result.

    ``finish`` receives the plan's kept-read payloads, in step order
    (decrypted where the step carried a cipher), and returns the
    operation's result; operations whose result is pre-known from
    planning ignore the argument.
    """

    plan: IoPlan
    finish: Callable[[list[bytes]], Any]


@dataclass
class FusedRun:
    """A maximal run of adjacent same-kind steps, ready for one device call.

    ``sources`` is parallel to ``steps``: the position (in the fused
    plan list) of the plan each step came from, which is what lets the
    executor hand payloads back per plan and lets the engine tell
    cross-session fusion from intra-request batching.
    """

    kind: str
    steps: list[Step] = field(default_factory=list)
    sources: list[int] = field(default_factory=list)

    @property
    def source_count(self) -> int:
        """Number of distinct plans contributing steps to this run."""
        return len(set(self.sources))


def fuse(plans: Sequence[IoPlan]) -> list[FusedRun]:
    """Group adjacent same-kind steps across ``plans`` into fused runs.

    Iterates plans in order and steps in plan order, so the relative
    order of any one plan's steps — and of any two steps from different
    plans — is preserved exactly; fusion never reorders, it only widens
    device calls.  A write to an index already written inside the
    current run starts a new run, so distinct writes to one block stay
    distinct device events in submission order.
    """
    runs: list[FusedRun] = []
    current: FusedRun | None = None
    written: set[int] = set()
    for source, plan in enumerate(plans):
        for step in plan.steps:
            kind = _kind_of(step)
            splits = (
                current is None
                or current.kind != kind
                or (kind == KIND_WRITE and step.index in written)
            )
            if splits:
                current = FusedRun(kind)
                runs.append(current)
                written.clear()
            current.steps.append(step)
            current.sources.append(source)
            if kind == KIND_WRITE:
                written.add(step.index)
    return runs


def _execute_read_run(
    run: FusedRun, device: BlockDevice, out: dict[int, list[bytes]]
) -> None:
    steps = run.steps
    raws = device.read_blocks([step.index for step in steps], [step.stream for step in steps])
    # Decrypt kept payloads per cipher through the vectorized path,
    # preserving per-step output order within each plan.
    by_cipher: dict[int, tuple[Any, list[int]]] = {}
    for position, step in enumerate(steps):
        if not step.keep:
            continue
        if step.cipher is None:
            out.setdefault(run.sources[position], []).append(raws[position])
            continue
        by_cipher.setdefault(id(step.cipher), (step.cipher, []))[1].append(position)
    for cipher, positions in by_cipher.values():
        plaintexts = cipher.decrypt_many(
            [raws[p][:BLOCK_IV_SIZE] for p in positions],
            [raws[p][BLOCK_IV_SIZE:] for p in positions],
        )
        for position, plaintext in zip(positions, plaintexts, strict=True):
            out.setdefault(run.sources[position], []).append(plaintext)


def _execute_reseal_batch_run(
    run: FusedRun, device: BlockDevice, cipher_for: CipherFor
) -> None:
    # The dummy_update_batch schedule: batched reads, per-key vectorized
    # crypto, batched writes.  Duplicate draws are safe: resealing
    # preserves the plaintext, so writing both reseals in draw order
    # leaves the same bytes as resealing the reseal.
    steps = run.steps
    indices = [step.index for step in steps]
    streams = [step.stream for step in steps]
    raws = device.read_blocks(indices, streams)
    positions_by_key: dict[bytes, list[int]] = {}
    for position, step in enumerate(steps):
        positions_by_key.setdefault(step.key, []).append(position)
    # Every position belongs to exactly one key group, so each empty
    # placeholder is overwritten before the batched write.
    datas: list[bytes] = [b""] * len(steps)
    for key, positions in positions_by_key.items():
        cipher = cipher_for(key)
        plaintexts = cipher.decrypt_many(
            [raws[p][:BLOCK_IV_SIZE] for p in positions],
            [raws[p][BLOCK_IV_SIZE:] for p in positions],
        )
        ciphertexts = cipher.encrypt_many(
            [steps[p].new_iv for p in positions], plaintexts
        )
        for p, ciphertext in zip(positions, ciphertexts, strict=True):
            datas[p] = steps[p].new_iv + ciphertext
    device.write_blocks(indices, datas, streams)


def execute_runs(
    runs: Sequence[FusedRun], device: BlockDevice, cipher_for: CipherFor
) -> dict[int, list[bytes]]:
    """Execute fused runs in order; return kept-read payloads per source plan.

    Each run becomes one batched device call (strict reseal runs
    execute their read/write pairs in step order), so the device sees
    exactly the planned requests in the planned order.  Errors
    propagate to the caller mid-run, matching the partial-progress
    semantics of the loops the plans replaced.
    """
    out: dict[int, list[bytes]] = {}
    for run in runs:
        if run.kind == KIND_READ:
            _execute_read_run(run, device, out)
        elif run.kind == KIND_WRITE:
            device.write_blocks(
                [step.index for step in run.steps],
                [step.data for step in run.steps],
                [step.stream for step in run.steps],
            )
        elif run.kind == KIND_CYCLE:
            device.read_write_blocks(
                [step.read_index for step in run.steps],
                [step.data for step in run.steps],
                [step.stream for step in run.steps],
                write_indices=[step.write_index for step in run.steps],
            )
        elif run.kind == KIND_RESEAL:
            for step in run.steps:
                raw = device.read_block(step.index, step.stream)
                resealed = StoredBlock.from_raw(raw).reseal_with_new_iv(
                    cipher_for(step.key), step.new_iv
                )
                device.write_block(step.index, resealed.raw, step.stream)
        elif run.kind == KIND_RESEAL_BATCH:
            _execute_reseal_batch_run(run, device, cipher_for)
        else:  # pragma: no cover - fuse() only emits the kinds above
            raise ValueError(f"unknown fused-run kind {run.kind!r}")
    return out


def execute_plan(
    plan: IoPlan,
    device: BlockDevice,
    cipher_for: CipherFor,
    journal: "PlanJournal | None" = None,
) -> list[bytes]:
    """Fuse and execute one plan; return its kept-read payloads in step order.

    The journal (when given) sees the plan strictly before its first
    device request and is marked committed only after every run landed;
    an entry left uncommitted therefore brackets exactly the window in
    which a crash can leave the plan half-applied.  A plan with more
    steps than the journal's :attr:`~PlanJournal.entry_budget` runs as
    the slices of :func:`split_plan` instead, each bracketed the same
    way, so a crash rolls back only the slice it interrupted.
    """
    if journal is not None:
        budget = journal.entry_budget
        if budget is not None and len(plan.steps) > budget:
            return _execute_slices(plan, device, cipher_for, journal, budget)
        journal.record(plan)
    payloads = execute_runs(fuse([plan]), device, cipher_for)
    if journal is not None:
        journal.mark_committed()
    return payloads.get(0, [])


def split_plan(plan: IoPlan, budget: int) -> list[IoPlan]:
    """Cut ``plan`` into consecutive slices, each writing at most ``budget`` distinct blocks.

    Slices keep the plan's label and step order, and together they are
    the plan.  A slice ends just before the step that would write its
    ``budget + 1``-th distinct block, so reads, and rewrites of blocks it
    already writes, never start a new slice.
    """
    slices: list[IoPlan] = []
    steps: list[Step] = []
    written: set[int] = set()
    for step in plan.steps:
        for index in write_targets(step):
            if index not in written:
                if len(written) == budget:
                    slices.append(IoPlan(steps, plan.label))
                    steps, written = [], set()
                written.add(index)
        steps.append(step)
    slices.append(IoPlan(steps, plan.label))
    return slices


def _execute_slices(
    plan: IoPlan, device: BlockDevice, cipher_for: CipherFor, journal: "PlanJournal", budget: int
) -> list[bytes]:
    payloads: list[bytes] = []
    for piece in split_plan(plan, budget):
        journal.record(piece)
        payloads += execute_runs(fuse([piece]), device, cipher_for).get(0, [])
        journal.mark_committed()
    return payloads


def execute_journalled(
    plans: Sequence[IoPlan], device: BlockDevice, cipher_for: CipherFor, journal: "PlanJournal"
) -> dict[int, list[bytes]]:
    """Execute ``plans`` in order under ``journal``; kept-read payloads per plan.

    Consecutive plans form one group while their steps, summed, stay
    within the journal's entry budget.  Each plan of a group is recorded
    as its own entry, the group's fused runs execute, and one
    :meth:`~PlanJournal.mark_committed` closes them all, before the next
    group starts.  A plan over the budget on its own runs as the slices
    of :func:`execute_plan`.  Each further entry of a group costs the
    ring about two records more than one entry of the same before-images
    would (its part-filled last record and its commit marker); the half
    of a durable ring the budget leaves free absorbs that for a few
    dozen plans, more than the engine buffers at its default quantum.
    Payloads are keyed by position in ``plans``, as :func:`execute_runs`
    keys them.
    """
    budget = journal.entry_budget
    payloads: dict[int, list[bytes]] = {}
    start = 0
    while start < len(plans):
        end, length = start, 0
        while end < len(plans) and (budget is None or length + len(plans[end].steps) <= budget):
            length += len(plans[end].steps)
            end += 1
        if end == start:
            payloads[start] = execute_plan(plans[start], device, cipher_for, journal)
            start += 1
            continue
        group = plans[start:end]
        for plan in group:
            journal.record(plan)
        for position, kept in execute_runs(fuse(group), device, cipher_for).items():
            payloads[start + position] = kept
        journal.mark_committed()
        start = end
    return payloads


@dataclass(frozen=True)
class JournalEntry:
    """One journalled plan: its label and its step sequence, pre-execution."""

    label: str
    steps: tuple[Step, ...]


class PlanJournal:
    """Records planned step sequences *before* they execute.

    This is the seam the crash-consistency intent log consumes: by the
    time any block of a plan is written, the journal already holds the
    full step sequence, so a torn plan can be recognised and rolled
    back.  The ordering contract (record strictly precedes the plan's
    first device request, :meth:`mark_committed` strictly follows its
    last) is guaranteed by the executors and pinned by tests.

    A journal takes effect once set as the agent's
    :attr:`~repro.core.agent.StegAgent.plan_journal`, the one place the
    facade's sessions and the concurrent engine look it up.  The
    in-memory journal keeps every entry until :meth:`clear`;
    :class:`repro.core.journal.JournalBackend` extends this class with
    a durable, cipher-sealed sidecar file.
    """

    def __init__(self) -> None:
        self._entries: list[JournalEntry] = []

    def record(self, plan: IoPlan) -> None:
        """Journal one plan's step sequence ahead of its execution."""
        self._entries.append(JournalEntry(plan.label, tuple(plan.steps)))

    def mark_committed(self) -> None:
        """Note that every recorded-but-unexecuted plan has fully landed.

        A no-op for the in-memory journal; the durable journal writes a
        commit marker so recovery knows the entry needs no rollback.
        """

    @property
    def entry_budget(self) -> int | None:
        """Most distinct blocks one entry may write, or ``None`` for no bound.

        The in-memory journal has no ring to fill, so it has no budget;
        :class:`repro.core.journal.JournalBackend` derives one from its
        ring's geometry.
        """
        return None

    @property
    def entries(self) -> list[JournalEntry]:
        """Journalled entries, oldest first (a copy)."""
        return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop all entries (e.g. after a checkpoint)."""
        self._entries.clear()
