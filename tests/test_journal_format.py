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
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import FastFieldCipher, HiddenVolumeService, JournalBackend, MemoryBackend, Sha256Prng
from repro.core import journal as journal_module
from repro.core.journal import DEFAULT_NUM_SLOTS, DEFAULT_RECORD_SIZE, journal_sidecar_path
from repro.core.plan import CycleStep, IoPlan, JournalEntry, ReadStep, ResealStep, Step, WriteStep
from repro.errors import JournalError

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
