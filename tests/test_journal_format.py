"""The journal sidecar's bytes, pinned independently of how they are produced.

* ``JournalBackend.create`` writes the whole ``journal-format`` fill even
  when the operating system accepts each write only in part: a short
  sidecar would read back zeros past its end (not uniform noise) and
  would reopen with fewer slots than it was formatted with.
* Every record the journal seals equals what a per-byte reference seal
  of the same body gives, so a change to how ``FastFieldCipher`` or the
  journal seals records cannot change a sidecar byte unnoticed.
"""

from __future__ import annotations

import os

from repro import JournalBackend, MemoryBackend, Sha256Prng
from repro.core import journal as journal_module
from repro.core.journal import DEFAULT_NUM_SLOTS, DEFAULT_RECORD_SIZE
from repro.core.plan import CycleStep, IoPlan, ReadStep, ResealStep, WriteStep

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
