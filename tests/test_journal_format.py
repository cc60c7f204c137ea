"""The journal sidecar's bytes, pinned independently of how they are produced.

* ``JournalBackend.create`` writes the whole ``journal-format`` fill even
  when the operating system accepts each write only in part: a short
  sidecar would read back zeros past its end (not uniform noise) and
  would reopen with fewer slots than it was formatted with.
* Every record the journal seals equals what a per-byte reference seal
  of the same body gives, so a change to how ``FastFieldCipher`` or the
  journal seals records cannot change a sidecar byte unnoticed.
* An entry holds only what rollback reads.  The slots one plan rewrites
  depend on how many distinct blocks it writes and on nothing else (not
  its label, step mix, streams or keys); a plan that writes nothing
  rewrites none.  So a dummy update and a one-block real update look
  alike in the sidecar, reads and deletes leave it byte-identical, and
  no file key is ever sealed into it.  A label wider than its fixed
  field is refused before any record is written.
* A sidecar written in the older format, whose entries also carried
  every step of the plan, still opens and rolls back byte-exactly.
* A multi-block write is one entry and one commit, and a crash inside
  it rolls that one entry back.  A plan that writes more blocks than
  the ring's entry budget runs as slices, each recorded before its own
  first device request; a crash in one slice undoes that slice alone.
  A journalled flush of several plans commits them in groups that fit
  the budget.  Writes and appends larger than the whole ring succeed
  through both the session facade and the concurrent engine, which
  keep serving.
"""

from __future__ import annotations

import contextlib
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import (
    FastFieldCipher,
    FaultInjectingBackend,
    HiddenVolumeService,
    JournalBackend,
    KeyRing,
    MemoryBackend,
    MmapFileBackend,
    Sha256Prng,
    TornWrite,
)
from repro.core import journal as journal_module
from repro.core.journal import (
    DEFAULT_NUM_SLOTS,
    DEFAULT_RECORD_SIZE,
    RecoveryReport,
    journal_sidecar_path,
)
from repro.core.plan import (
    CycleStep,
    IoPlan,
    JournalEntry,
    ReadStep,
    ResealStep,
    Step,
    WriteStep,
    execute_journalled,
)
from repro.errors import InjectedCrashError, JournalError
from repro.storage.block import BLOCK_IV_SIZE

from conftest import ReferenceFieldCipher

KEY = bytes(range(32))
NUM_SLOTS = 8
RECORD_SIZE = 256
BLOCK_SIZE = 64


def test_create_writes_the_whole_fill_through_short_writes(tmp_path, monkeypatch):
    real_write = os.write
    calls: list[int] = []

    def capped_write(fd, data):
        calls.append(len(data))
        return real_write(fd, memoryview(data)[: 64 * 1024])

    monkeypatch.setattr(os, "write", capped_write)
    JournalBackend.create(tmp_path / "j", KEY).close()
    monkeypatch.undo()

    size = DEFAULT_NUM_SLOTS * DEFAULT_RECORD_SIZE
    assert (tmp_path / "j").stat().st_size == size
    fill = Sha256Prng(KEY).spawn("journal-format").random_bytes(size)
    assert (tmp_path / "j").read_bytes() == fill
    assert len(calls) > 1


def _backend() -> MemoryBackend:
    backend = MemoryBackend(BLOCK_SIZE, 16)
    backend.fill_random(7)
    return backend


def _plan(backend: MemoryBackend, round_: int) -> IoPlan:
    """A plan of every step kind whose entry spans several records."""
    prng = Sha256Prng(f"plan:{round_}")
    first, second, third = ((round_ + offset) % backend.num_blocks for offset in (0, 5, 11))
    return IoPlan(
        [
            ReadStep(first, stream="data"),
            WriteStep(first, prng.random_bytes(BLOCK_SIZE), stream="data"),
            CycleStep(second, third, prng.random_bytes(BLOCK_SIZE), stream="data"),
            ResealStep(second, key=prng.random_bytes(16), new_iv=prng.random_bytes(16)),
        ],
        label=f"op{round_}",
    )


def _record_sequence(path) -> JournalBackend:
    """Record one fixed sequence: commits, a checkpoint, ring wraps, a pending tail."""
    backend = _backend()
    journal = JournalBackend.create(path, KEY, num_slots=NUM_SLOTS, record_size=RECORD_SIZE)
    journal.bind(backend)
    for round_ in range(7):
        plan = _plan(backend, round_)
        journal.record(plan)
        for step in plan.steps:
            if isinstance(step, WriteStep):
                backend.write(step.index, step.data)
        journal.mark_committed()
        if round_ == 2:
            journal.checkpoint()
    journal.record(_plan(backend, 99))  # left uncommitted: the rollback set
    return journal


def test_sealed_sidecar_matches_a_per_byte_reference_seal(tmp_path, monkeypatch):
    fast = _record_sequence(tmp_path / "fast")
    assert fast._next_seq > 3 * NUM_SLOTS  # the ring wrapped several times
    assert fast.pending_count == 1
    fast.close()

    # Swap the cipher the journal builds for both create() and open().
    monkeypatch.setattr(journal_module, "FastFieldCipher", ReferenceFieldCipher)
    _record_sequence(tmp_path / "reference").close()
    assert (tmp_path / "fast").read_bytes() == (tmp_path / "reference").read_bytes()
    reference = JournalBackend.open(tmp_path / "reference", KEY, record_size=RECORD_SIZE)
    monkeypatch.undo()
    reopened = JournalBackend.open(tmp_path / "fast", KEY, record_size=RECORD_SIZE)

    assert reopened.pending_count == reference.pending_count == 1
    assert reopened.entries == reference.entries
    assert reopened.entries[-1].label == "op99"
    reports = [journal.recover(_backend()) for journal in (reopened, reference)]
    assert reports[0] == reports[1]
    assert reports[0].rolled_back == ("op99",)
    reopened.close()
    reference.close()
    assert (tmp_path / "fast").read_bytes() == (tmp_path / "reference").read_bytes()


# -- what one plan costs the sidecar ------------------------------------------------

#: Labels the agent, the session facade and the engine give their plans.
AGENT_LABELS = (
    "read_blocks",
    "dummy_update",
    "dummy_update_batch",
    "update_block",
    "update_range",
    "append_blocks",
    "save_file",
    "delete_file",
    "session_read",
    "session_write",
    "session_append",
)
FULL_BLOCK = 4096


def _rewritten_slots(before: bytes, after: bytes, record_size: int) -> int:
    """How many sidecar slots differ between two images of the same sidecar."""
    return sum(
        before[offset : offset + record_size] != after[offset : offset + record_size]
        for offset in range(0, len(before), record_size)
    )


def _slots_for(plan: IoPlan) -> int:
    """Slots that ``record`` + ``mark_committed`` of ``plan`` rewrite in a fresh sidecar."""
    backend = MemoryBackend(FULL_BLOCK, 16)
    backend.fill_random(3)
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "j"
        journal = JournalBackend.create(path, KEY, num_slots=16)
        journal.bind(backend)
        before = path.read_bytes()
        journal.record(plan)
        journal.mark_committed()
        after = path.read_bytes()
        journal.close()
    return _rewritten_slots(before, after, DEFAULT_RECORD_SIZE)


def _write_targets(plan: IoPlan) -> set[int]:
    """The distinct blocks ``plan`` writes."""
    targets: set[int] = set()
    for step in plan.steps:
        if isinstance(step, (WriteStep, ResealStep)):
            targets.add(step.index)
        elif isinstance(step, CycleStep):
            targets.add(step.write_index)
    return targets


_indices = st.integers(0, 15)
_streams = st.sampled_from(("default", "dummy", "alice", "a-session-stream-with-a-long-name"))
_blocks = st.binary(min_size=FULL_BLOCK, max_size=FULL_BLOCK)
_steps = st.one_of(
    st.builds(ReadStep, _indices, stream=_streams, keep=st.booleans()),
    st.builds(WriteStep, _indices, data=_blocks, stream=_streams),
    st.builds(CycleStep, _indices, _indices, data=_blocks, stream=_streams),
    st.builds(
        ResealStep,
        _indices,
        key=st.binary(min_size=16, max_size=32),
        new_iv=st.binary(min_size=16, max_size=16),
        stream=_streams,
        batched=st.booleans(),
    ),
)


@settings(max_examples=40, deadline=None)
@given(steps=st.lists(_steps, max_size=6), label=st.sampled_from(AGENT_LABELS))
# The agent's one-block shapes: a dummy update and a Figure-6 update that
# found a dummy block at its first draw.
@example(steps=[ResealStep(4, key=bytes(range(32)), new_iv=bytes(16))], label="dummy_update")
@example(steps=[CycleStep(2, 9, bytes(FULL_BLOCK))], label="update_block")
@example(steps=[ReadStep(2), ReadStep(9)], label="read_blocks")
def test_slots_a_plan_rewrites_depend_only_on_how_many_blocks_it_writes(steps, label):
    plan = IoPlan(steps, label=label)
    written = len(_write_targets(plan))
    # A 4 KiB before-image overflows one 4 KiB record, so k images take
    # k + 1 entry records; then one commit marker.
    assert _slots_for(plan) == (written + 2 if written else 0)


def test_a_label_wider_than_its_field_is_refused_before_any_record(tmp_path):
    backend = _backend()
    journal = JournalBackend.create(tmp_path / "j", KEY, record_size=RECORD_SIZE)
    journal.bind(backend)
    before = (tmp_path / "j").read_bytes()
    with pytest.raises(JournalError, match="label"):
        journal.record(IoPlan([WriteStep(1, bytes(BLOCK_SIZE))], label="x" * 65))
    assert journal.pending_count == 0
    assert (tmp_path / "j").read_bytes() == before
    journal.record(IoPlan([WriteStep(1, bytes(BLOCK_SIZE))], label="x" * 64))
    journal.close()
    reopened = JournalBackend.open(tmp_path / "j", KEY, record_size=RECORD_SIZE)
    assert [entry.label for entry in reopened.entries] == ["x" * 64]
    reopened.close()


def _durable_service(tmp_path, **options) -> HiddenVolumeService:
    return HiddenVolumeService.create(
        "volatile", volume_mib=1, seed=11, path=tmp_path / "vol.img", **options
    )


def _sidecar(service: HiddenVolumeService) -> Path:
    return Path(journal_sidecar_path(service.storage.backend.path))


def test_dummy_update_and_one_block_update_advance_the_durable_ring_alike(tmp_path):
    service = _durable_service(tmp_path)
    session = service.login(service.new_keyring("alice"))
    session.create("/alice/f", b"f" * 3 * FULL_BLOCK)
    session.create_decoy("/alice/decoy", size_bytes=48 * FULL_BLOCK)
    handle = session._handles["/alice/f"]
    agent, journal, sidecar = service.agent, service.journal, _sidecar(service)

    def cost(action, *args):
        """Sidecar slots ``action(*args)`` rewrites, and its result."""
        service.flush()  # checkpoint first, so the ring cannot fill mid-action
        before, first_seq = sidecar.read_bytes(), journal._next_seq
        result = action(*args)
        slots = _rewritten_slots(before, sidecar.read_bytes(), journal.record_size)
        assert slots == journal._next_seq - first_seq
        return slots, result

    dummy_slots, _ = cost(agent.dummy_update)
    update_slots = []
    for round_ in range(20):
        slots, result = cost(agent.update_block, handle, round_ % 3, bytes([round_]) * 8)
        if result.iterations == 1:  # the update wrote exactly one block
            update_slots.append(slots)
    assert update_slots
    assert set(update_slots) == {dummy_slots} == {3}
    service.close()


def test_reads_and_deletes_leave_the_sidecar_byte_identical(tmp_path):
    service = _durable_service(tmp_path)
    session = service.login(service.new_keyring("alice"))
    content = bytes(range(256)) * 64
    session.create("/alice/f", content)
    session.create("/alice/gone", b"short-lived")
    service.flush()
    sidecar = _sidecar(service)
    before = sidecar.read_bytes()
    for at in range(0, 10_000, 1000):
        # A ranged read runs as a read_blocks plan through the journal.
        assert session.read("/alice/f", at=at, size=5000) == content[at : at + 5000]
    session.delete("/alice/gone")
    assert sidecar.read_bytes() == before
    service.close()


def test_no_file_key_is_sealed_into_the_sidecar(tmp_path):
    service = _durable_service(tmp_path, fak_entropy=b"entropy held with the key rings")
    session = service.login(service.new_keyring("alice"))
    session.create("/alice/f", b"secret " * 2000)
    session.create_decoy("/alice/decoy", size_bytes=24 * FULL_BLOCK)
    file_keys = {
        key
        for fak in session.keyring.all_keys().values()
        for key in (fak.header_key, fak.content_key)
        if key is not None
    }
    assert len(file_keys) == 3
    # A key split across two records still leaves one whole half in one.
    needles = {key[:16] for key in file_keys} | {key[16:] for key in file_keys}
    cipher = FastFieldCipher(HiddenVolumeService._journal_key(Sha256Prng(11)))
    sidecar = _sidecar(service)

    def assert_no_key_sealed() -> None:
        image = sidecar.read_bytes()
        for offset in range(0, len(image), DEFAULT_RECORD_SIZE):
            slot = image[offset : offset + DEFAULT_RECORD_SIZE]
            plaintext = cipher.decrypt(slot[:16], slot[16:])
            assert not any(needle in plaintext for needle in needles)

    for round_ in range(8):
        service.idle(num_dummy_updates=4)
        session.write("/alice/f", bytes([round_]) * 5000, at=round_ * 700)
        assert_no_key_sealed()
    service.close()
    assert_no_key_sealed()


# -- sidecars written before entries dropped their steps ----------------------------


def _old_pack_str(out: bytearray, text: str) -> None:
    encoded = text.encode("utf-8")
    out += len(encoded).to_bytes(2, "big")
    out += encoded


def _old_pack_bytes(out: bytearray, data: bytes) -> None:
    out += len(data).to_bytes(4, "big")
    out += data


def _old_encode_step(out: bytearray, step: Step) -> None:
    """How entries of the older format serialised each step of their plan."""
    if isinstance(step, ReadStep):
        out += bytes([0])
        out += step.index.to_bytes(8, "big")
        out += bytes([1 if step.keep else 0, 1 if step.cipher is not None else 0])
        _old_pack_str(out, step.stream)
    elif isinstance(step, WriteStep):
        out += bytes([1])
        out += step.index.to_bytes(8, "big")
        _old_pack_str(out, step.stream)
        _old_pack_bytes(out, step.data)
    elif isinstance(step, CycleStep):
        out += bytes([2])
        out += step.read_index.to_bytes(8, "big")
        out += step.write_index.to_bytes(8, "big")
        _old_pack_str(out, step.stream)
        _old_pack_bytes(out, step.data)
    else:
        out += bytes([3])
        out += step.index.to_bytes(8, "big")
        out += bytes([1 if step.batched else 0])
        _old_pack_str(out, step.stream)
        _old_pack_bytes(out, step.key)
        _old_pack_bytes(out, step.new_iv)


def _old_encode_entry(label: str, steps, undo) -> bytes:
    """An entry payload of the older format: variable-width label, every step, undo."""
    out = bytearray()
    _old_pack_str(out, label)
    out += len(steps).to_bytes(4, "big")
    for step in steps:
        _old_encode_step(out, step)
    out += len(undo).to_bytes(4, "big")
    for index, raw in undo:
        out += index.to_bytes(8, "big")
        _old_pack_bytes(out, raw)
    return bytes(out)


def _apply(backend: MemoryBackend, plan: IoPlan, round_: int) -> None:
    """Land every write of ``plan``; a reseal lands as fresh ciphertext."""
    fresh = Sha256Prng(f"reseal:{round_}")
    for step in plan.steps:
        if isinstance(step, WriteStep):
            backend.write(step.index, step.data)
        elif isinstance(step, CycleStep):
            backend.write(step.write_index, step.data)
        elif isinstance(step, ResealStep):
            backend.write(step.index, fresh.random_bytes(BLOCK_SIZE))


def _crash_mid_sequence(path, monkeypatch, old_format: bool) -> tuple[MemoryBackend, bytes]:
    """Commit three plans, leave three more landed but uncommitted, then die.

    Returns the backend as the crash left it and its bytes after the
    committed prefix, which is what recovery must restore.
    """
    backend = _backend()
    journal = JournalBackend.create(path, KEY, num_slots=64, record_size=RECORD_SIZE)
    journal.bind(backend)
    committed = b""
    for round_ in range(6):
        plan = _plan(backend, round_)
        if old_format:
            monkeypatch.setattr(
                journal_module,
                "_encode_entry",
                lambda label, undo, steps=plan.steps: _old_encode_entry(label, steps, undo),
            )
        journal.record(plan)
        _apply(backend, plan, round_)
        if round_ < 3:
            journal.mark_committed()
            committed = backend.raw_bytes()
    monkeypatch.undo()
    journal.close()
    return backend, committed


def test_a_sidecar_in_the_older_format_still_recovers(tmp_path, monkeypatch):
    results = {}
    for old_format in (True, False):
        path = tmp_path / f"old-{old_format}"
        backend, committed = _crash_mid_sequence(path, monkeypatch, old_format)
        assert backend.raw_bytes() != committed
        reopened = JournalBackend.open(path, KEY, record_size=RECORD_SIZE)
        labels = [entry.label for entry in reopened.entries]
        pending = reopened.pending_count
        if old_format:
            # The older entries' steps still decode into the mirror.
            assert reopened.entries == [
                JournalEntry(f"op{round_}", tuple(_plan(backend, round_).steps))
                for round_ in range(6)
            ]
        report = reopened.recover(backend)
        reopened.close()
        assert backend.raw_bytes() == committed
        results[old_format] = (labels, pending, report.rolled_back, report.restored_blocks)
    assert results[True] == results[False]
    assert results[True] == ([f"op{n}" for n in range(6)], 3, ("op5", "op4", "op3"), 9)


# -- one entry per write call, cut where the ring cannot hold it ---------------------

#: Data bytes of one 4 KiB block (the rest is its IV).
FULL_PAYLOAD = FULL_BLOCK - BLOCK_IV_SIZE

def _volume_with_file(path, construction, blocks, *, volume_mib=1, decoy_blocks=0) -> str:
    """Create a durable volume holding one flushed ``blocks``-block file; return its key ring."""
    service = HiddenVolumeService.create(construction, volume_mib=volume_mib, seed=11, path=path)
    session = service.login(service.new_keyring("alice"))
    session.create("/alice/f", b"f" * blocks * service.volume.data_field_bytes)
    if decoy_blocks:
        session.create_decoy("/alice/decoy", size_bytes=decoy_blocks * FULL_BLOCK)
    ring = session.keyring.to_json()
    service.close()
    return ring


def _copy_volume(path: Path, name: str) -> Path:
    copy = path.with_name(name)
    copy.write_bytes(path.read_bytes())
    Path(journal_sidecar_path(copy)).write_bytes(Path(journal_sidecar_path(path)).read_bytes())
    return copy


def _run_write(path, construction, ring, data, *, crash_at=None, spy=None) -> int:
    """Reopen ``path``, write ``data`` at offset 0, then let the process die.

    The write itself dies at device call ``crash_at`` (torn) when given.
    ``spy(service, injector)``, when given, runs right before the write.
    Returns the number of device calls the write made, the doomed one included.
    """
    injector = None

    def wrap(backend):
        nonlocal injector
        injector = FaultInjectingBackend(backend)
        return injector

    service = HiddenVolumeService.open(
        path, construction, seed=11, session_nonce="w", wrap_backend=wrap
    )
    session = service.login(KeyRing.from_json(ring))
    if spy is not None:
        spy(service, injector)
    injector.arm(10**9 if crash_at is None else crash_at, TornWrite())
    with contextlib.suppress(InjectedCrashError):
        session.write("/alice/f", data)
    # A killed process flushes, saves and checkpoints nothing.
    service.storage.close()
    service.journal.close()
    return injector.calls


def _recover(path) -> RecoveryReport:
    journal = JournalBackend.open(
        journal_sidecar_path(path), HiddenVolumeService._journal_key(Sha256Prng(11))
    )
    backend = MmapFileBackend.open(path, FULL_BLOCK)
    report = journal.recover(backend)
    backend.close()
    journal.close()
    return report


def test_a_multi_block_write_rewrites_one_entry_and_one_commit(tmp_path):
    service = _durable_service(tmp_path)
    session = service.login(service.new_keyring("alice"))
    payload = service.volume.data_field_bytes
    session.create("/alice/f", b"f" * 8 * payload)
    session.create_decoy("/alice/decoy", size_bytes=48 * FULL_BLOCK)
    journal, sidecar = service.journal, _sidecar(service)
    for blocks in (2, 3, 5):
        service.flush()  # checkpoint first, so the ring cannot fill mid-write
        before, first_seq = sidecar.read_bytes(), journal._next_seq
        session.write("/alice/f", bytes([blocks]) * blocks * payload, at=payload)
        [entry] = journal.entries
        assert entry.label == "update_range"
        assert sum(isinstance(step, CycleStep) for step in entry.steps) == blocks
        written = len(_write_targets(IoPlan(list(entry.steps))))
        slots = _rewritten_slots(before, sidecar.read_bytes(), journal.record_size)
        # One entry of k before-images (k + 1 records) and one commit.
        assert slots == journal._next_seq - first_seq == written + 2
    service.close()


def test_a_durable_append_rewrites_one_entry_and_one_commit(tmp_path):
    service = _durable_service(tmp_path)
    session = service.login(service.new_keyring("alice"))
    payload = service.volume.data_field_bytes
    session.create("/alice/f", b"f" * (7 * payload // 2))  # ends mid-block
    journal, sidecar = service.journal, _sidecar(service)
    for payloads in (1, 2, 5):
        service.flush()  # checkpoint first, so the ring cannot fill mid-append
        before, first_seq = sidecar.read_bytes(), journal._next_seq
        session.append("/alice/f", bytes([payloads]) * payloads * payload)
        [entry] = journal.entries
        assert entry.label == "session_append"
        written = len(_write_targets(IoPlan(list(entry.steps))))
        slots = _rewritten_slots(before, sidecar.read_bytes(), journal.record_size)
        # Tail update, new blocks and header save: one entry, one commit.
        assert slots == journal._next_seq - first_seq == written + 2
    service.close()


def test_a_crash_mid_write_rolls_back_exactly_one_entry(tmp_path):
    path = tmp_path / "vol.img"
    ring = _volume_with_file(path, "volatile", 8, decoy_blocks=48)
    before = path.read_bytes()
    data = b"n" * 4 * FULL_PAYLOAD
    calls = _run_write(_copy_volume(path, "probe.img"), "volatile", ring, data)
    # Die at the write's last device call: every earlier update has landed.
    assert _run_write(path, "volatile", ring, data, crash_at=calls - 1) == calls
    assert path.read_bytes() != before
    report = _recover(path)
    assert report.rolled_back == ("update_range",)
    assert report.restored_blocks >= 4
    assert path.read_bytes() == before


def test_a_write_over_the_budget_runs_as_slices_each_recorded_before_its_io(tmp_path):
    path = tmp_path / "vol.img"
    ring = _volume_with_file(path, "nonvolatile", 200, volume_mib=8)
    data = b"s" * 180 * FULL_PAYLOAD
    budget = 123  # the default 256 x 4 KiB ring over 4 KiB blocks
    events: list[tuple[str, int]] = []
    slices: list[IoPlan] = []
    images: list[bytes] = []

    def spy(service, injector):
        journal = service.journal
        record, commit = journal.record, journal.mark_committed

        def spy_record(plan):
            events.append(("record", injector.calls))
            slices.append(plan)
            images.append(injector.inner.raw_bytes())
            record(plan)

        def spy_commit():
            events.append(("commit", injector.calls))
            commit()

        journal.record, journal.mark_committed = spy_record, spy_commit
        assert journal.entry_budget == budget

    calls = _run_write(_copy_volume(path, "probe.img"), "nonvolatile", ring, data, spy=spy)
    assert len(slices) >= 2
    assert {plan.label for plan in slices} == {"update_range"}
    sizes = [len(_write_targets(plan)) for plan in slices]
    assert all(size == budget for size in sizes[:-1]) and 0 < sizes[-1] <= budget
    # record, its slice's device calls, commit; then the next slice.
    assert [kind for kind, _ in events] == ["record", "commit"] * len(slices)
    marks = [mark for _, mark in events]
    assert marks[0] == 0 and marks[-1] == calls
    assert all(marks[i] < marks[i + 1] for i in range(0, len(marks), 2))  # I/O inside
    assert all(marks[i] == marks[i + 1] for i in range(1, len(marks) - 1, 2))  # none between

    # A crash at the last device call of slice 1 rolls back slice 1 only.
    crash_at = marks[3] - 1
    assert _run_write(path, "nonvolatile", ring, data, crash_at=crash_at) == crash_at + 1
    assert _recover(path).rolled_back == ("update_range",)
    assert path.read_bytes() == images[1]


def test_a_journalled_flush_commits_groups_that_fit_the_budget(tmp_path):
    service = HiddenVolumeService.create("nonvolatile", volume_mib=8, seed=5, path=tmp_path / "v")
    session = service.login(service.new_keyring("u"))
    content = bytearray(Sha256Prng("content").random_bytes(200 * FULL_PAYLOAD))
    session.create("/u/f", bytes(content))
    journal = service.journal
    ops = []
    for n in range(4):  # block-aligned, so planning reads nothing back
        data = bytes([n]) * 40 * FULL_PAYLOAD
        ops.append(session.plan_write("/u/f", data, at=n * len(data)))
        content[n * len(data) : (n + 1) * len(data)] = data
    ops.append(session.plan_read("/u/f", at=FULL_PAYLOAD // 2, size=100 * FULL_PAYLOAD))
    events: list[IoPlan | None] = []  # a recorded plan, or None for a commit
    record, commit = journal.record, journal.mark_committed
    journal.record = lambda plan: (events.append(plan), record(plan))
    journal.mark_committed = lambda: (events.append(None), commit())

    plans = [op.plan for op in ops]
    payloads = execute_journalled(plans, service.volume.device, service.volume.cipher_for, journal)
    assert [event for event in events if event is not None] == plans  # whole, in order
    groups: list[list[IoPlan]] = [[]]
    for event in events:
        if event is None:
            groups.append([])
        else:
            groups[-1].append(event)
    assert groups.pop() == [] and len(groups) >= 2
    assert all(sum(len(plan.steps) for plan in group) <= journal.entry_budget for group in groups)
    expected = bytes(content[FULL_PAYLOAD // 2 : FULL_PAYLOAD // 2 + 100 * FULL_PAYLOAD])
    assert ops[-1].finish(payloads[4]) == expected
    assert session.read("/u/f") == bytes(content)
    service.close()


def test_an_engine_write_over_the_ring_keeps_the_engine_serving(tmp_path):
    service = HiddenVolumeService.create("nonvolatile", volume_mib=8, seed=3, path=tmp_path / "v")
    engine = service.concurrent()
    session = engine.login(service.new_keyring("u"))
    content = Sha256Prng("content").random_bytes(3 * 1024 * 1024)
    session.create("/u/f", content)
    session.create_decoy("/u/decoy", 1024 * 1024)
    update = Sha256Prng("update").random_bytes(1024 * 1024)
    session.write("/u/f", update, at=FULL_BLOCK)
    expected = content[:FULL_BLOCK] + update + content[FULL_BLOCK + len(update) :]
    assert session.read("/u/f") == expected
    session.write("/u/f", b"later", at=0)
    assert session.read("/u/f", at=0, size=5) == b"later"
    engine.close()


def test_a_facade_append_over_the_ring_keeps_the_service_serving(tmp_path):
    path = tmp_path / "v"
    service = HiddenVolumeService.create("nonvolatile", volume_mib=8, seed=3, path=path)
    session = service.login(service.new_keyring("u"))
    session.create("/u/f", b"x" * 5000)
    tail = Sha256Prng("tail").random_bytes(2_000_000)
    session.append("/u/f", tail)
    assert session.read("/u/f") == b"x" * 5000 + tail
    session.write("/u/f", b"later", at=0)
    ring = session.keyring.to_json()
    service.close()
    reopened = HiddenVolumeService.open(path, "nonvolatile", seed=3, session_nonce="again")
    assert reopened.login(KeyRing.from_json(ring)).read("/u/f") == b"later" + b"x" * 4995 + tail
    reopened.close()
