"""Crash consistency: durable journal, fault injection, old-or-new recovery.

The contract under test (PR 7):

* ``JournalBackend`` persists every plan's label, steps and
  before-images to a fixed-size, cipher-sealed ring sidecar; reopening
  the sidecar after a crash rolls uncommitted plans back to their
  pre-plan bytes (UNDO logging) and leaves committed plans alone;
* the sidecar itself passes the seized-disk test: random-looking bytes,
  no plaintext labels, no step structure;
* ``FaultInjectingBackend`` kills execution at a chosen device-call
  index, deterministically, optionally tearing the doomed write;
* a file-backed ``HiddenVolumeService`` killed at *any* device call of
  *any* operation reopens to a volume where every file block reads its
  old or its new bytes — never a torn mixture — and where the reopened
  service's PRNG streams match a twin that never crashed (recovery
  consumes no stream);
* a multi-block ``Session.write`` within the journal's entry budget is
  one journal entry, so a crash at any of its device calls reopens to
  the exact pre-write volume image, and an entry that could not be
  written whole leaves nothing pending;
* ``CrashScenario`` / ``run_experiment`` drive the same story under the
  snapshot-diff adversary, whose advantage against a torn crash is no
  better than against a clean process death at the same positions.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    CrashScenario,
    FaultInjectingBackend,
    HiddenVolumeService,
    JournalBackend,
    KeyRing,
    MemoryBackend,
    Sha256Prng,
    TornWrite,
    run_experiment,
)
from repro.attacks import SnapshotDiffAttacker
from repro.core.journal import RecoveryReport, journal_sidecar_path
from repro.core.plan import IoPlan, WriteStep
from repro.errors import InjectedCrashError, JournalError, SnapshotMismatchError
from repro.storage.snapshot import Snapshot

BLOCK = 512
KEY = bytes(range(32))


def make_backend(num_blocks: int = 16, block_size: int = 64, seed: int = 7) -> MemoryBackend:
    backend = MemoryBackend(block_size, num_blocks)
    backend.fill_random(seed)
    return backend


def write_plan(backend: MemoryBackend, indices, label: str = "op") -> IoPlan:
    """A plan that overwrites ``indices`` with fresh deterministic blocks."""
    prng = Sha256Prng(f"plan:{label}")
    return IoPlan(
        [WriteStep(index, prng.random_bytes(backend.block_size)) for index in indices],
        label=label,
    )


def apply_plan(backend: MemoryBackend, plan: IoPlan) -> None:
    for step in plan.steps:
        backend.write(step.index, step.data)


class TestJournalBackend:
    def test_record_requires_bind(self, tmp_path):
        journal = JournalBackend.create(tmp_path / "j", KEY)
        with pytest.raises(JournalError, match="bind"):
            journal.record(IoPlan([WriteStep(0, bytes(64))], label="x"))
        journal.close()

    def test_rollback_restores_before_images(self, tmp_path):
        backend = make_backend()
        pristine = backend.raw_bytes()
        journal = JournalBackend.create(tmp_path / "j", KEY)
        journal.bind(backend)
        plan = write_plan(backend, [2, 5, 9], label="torn-op")
        journal.record(plan)
        apply_plan(backend, plan)
        assert backend.raw_bytes() != pristine
        journal.close()  # crash: the process dies before mark_committed

        reopened = JournalBackend.open(tmp_path / "j", KEY)
        report = reopened.recover(backend)
        assert isinstance(report, RecoveryReport)
        assert report.rolled_back == ("torn-op",)
        assert report.restored_blocks == 3
        assert backend.raw_bytes() == pristine
        reopened.close()

    def test_recovery_is_idempotent(self, tmp_path):
        backend = make_backend()
        pristine = backend.raw_bytes()
        journal = JournalBackend.create(tmp_path / "j", KEY)
        journal.bind(backend)
        plan = write_plan(backend, [1, 3])
        journal.record(plan)
        apply_plan(backend, plan)
        journal.close()

        for _ in range(2):  # recover, "crash during recovery", recover again
            reopened = JournalBackend.open(tmp_path / "j", KEY)
            reopened.recover(backend)
            reopened.close()
        assert backend.raw_bytes() == pristine

    def test_committed_entries_are_not_rolled_back(self, tmp_path):
        backend = make_backend()
        journal = JournalBackend.create(tmp_path / "j", KEY)
        journal.bind(backend)
        plan = write_plan(backend, [4, 6], label="landed")
        journal.record(plan)
        apply_plan(backend, plan)
        journal.mark_committed()
        committed = backend.raw_bytes()
        journal.close()

        reopened = JournalBackend.open(tmp_path / "j", KEY)
        report = reopened.recover(backend)
        assert report.rolled_back == ()
        assert report.restored_blocks == 0
        assert backend.raw_bytes() == committed
        reopened.close()

    def test_newest_uncommitted_rolls_back_first(self, tmp_path):
        # Two uncommitted plans touch the same block; undo must apply
        # newest-first so the block ends at its pre-first-plan bytes.
        backend = make_backend()
        pristine_block = backend.read(3)
        journal = JournalBackend.create(tmp_path / "j", KEY)
        journal.bind(backend)
        for label in ("first", "second"):
            plan = write_plan(backend, [3], label=label)
            journal.record(plan)
            apply_plan(backend, plan)
        journal.close()

        reopened = JournalBackend.open(tmp_path / "j", KEY)
        report = reopened.recover(backend)
        assert report.rolled_back == ("second", "first")
        assert backend.read(3) == pristine_block
        reopened.close()

    def test_uncommitted_entries_survive_reopen_in_mirror(self, tmp_path):
        backend = make_backend()
        journal = JournalBackend.create(tmp_path / "j", KEY)
        journal.bind(backend)
        journal.record(write_plan(backend, [1], label="pending-op"))
        journal.close()
        reopened = JournalBackend.open(tmp_path / "j", KEY)
        assert reopened.pending_count == 1
        assert [entry.label for entry in reopened.entries] == ["pending-op"]
        reopened.close()

    def test_ring_recycles_under_commit_checkpoint_traffic(self, tmp_path):
        backend = make_backend()
        journal = JournalBackend.create(tmp_path / "j", KEY, num_slots=8)
        journal.bind(backend)
        for round_number in range(40):  # 5x the ring capacity
            plan = write_plan(backend, [round_number % 16], label=f"op{round_number}")
            journal.record(plan)
            apply_plan(backend, plan)
            journal.mark_committed()
        clean = backend.raw_bytes()
        journal.close()
        reopened = JournalBackend.open(tmp_path / "j", KEY)
        reopened.recover(backend)
        assert backend.raw_bytes() == clean
        reopened.close()

    def test_ring_full_of_uncommitted_entries_raises(self, tmp_path):
        backend = make_backend()
        journal = JournalBackend.create(tmp_path / "j", KEY, num_slots=4)
        journal.bind(backend)
        with pytest.raises(JournalError, match="full"):
            for round_number in range(8):
                journal.record(write_plan(backend, [round_number], label=f"op{round_number}"))
        journal.close()

    def test_failed_record_leaves_no_pending_entry(self, tmp_path):
        # An entry whose parts could not all be written is torn: its plan
        # never starts, so it must neither pin the ring nor be committed.
        backend = make_backend(num_blocks=32, block_size=96)
        pristine = backend.raw_bytes()
        journal = JournalBackend.create(tmp_path / "j", KEY, num_slots=4, record_size=256)
        journal.bind(backend)
        with pytest.raises(JournalError, match="full"):
            journal.record(write_plan(backend, range(12), label="too-big"))
        assert journal.pending_count == 0
        plan = write_plan(backend, [1], label="after")
        journal.record(plan)
        apply_plan(backend, plan)
        journal.mark_committed()
        committed = backend.raw_bytes()
        journal.close()
        reopened = JournalBackend.open(tmp_path / "j", KEY, record_size=256)
        assert reopened.recover(backend).rolled_back == ()
        assert backend.raw_bytes() == committed != pristine
        reopened.close()

    def test_multi_record_entry_round_trips(self, tmp_path):
        # A plan whose payload spans several ring records still rolls back.
        backend = make_backend(num_blocks=32, block_size=96)
        pristine = backend.raw_bytes()
        journal = JournalBackend.create(tmp_path / "j", KEY, num_slots=64, record_size=256)
        journal.bind(backend)
        plan = write_plan(backend, range(12), label="big")
        journal.record(plan)
        apply_plan(backend, plan)
        journal.close()
        reopened = JournalBackend.open(tmp_path / "j", KEY, record_size=256)
        report = reopened.recover(backend)
        assert report.rolled_back == ("big",)
        assert report.restored_blocks == 12
        assert backend.raw_bytes() == pristine
        reopened.close()

    def test_torn_journal_record_means_plan_never_started(self, tmp_path):
        # Corrupting part of an entry's records (the journal write itself
        # was torn) must degrade to "no such plan": no rollback, no error.
        backend = make_backend()
        journal = JournalBackend.create(tmp_path / "j", KEY, record_size=256)
        journal.bind(backend)
        plan = write_plan(backend, range(8), label="half-written")
        journal.record(plan)
        # The plan itself never reached the device (crash before I/O).
        untouched = backend.raw_bytes()
        journal.close()

        path = tmp_path / "j"
        image = bytearray(path.read_bytes())
        image[10] ^= 0xFF  # tear the first record of the entry
        path.write_bytes(bytes(image))

        reopened = JournalBackend.open(path, KEY, record_size=256)
        report = reopened.recover(backend)
        assert report.rolled_back == ()
        assert report.incomplete_entries >= 1
        assert backend.raw_bytes() == untouched
        reopened.close()

    def test_open_rejects_bad_geometry(self, tmp_path):
        path = tmp_path / "j"
        path.write_bytes(b"x" * 1000)  # not a multiple of any record size
        with pytest.raises(JournalError):
            JournalBackend.open(path, KEY, record_size=4096)

    def test_checkpoint_trims_committed_entries(self, tmp_path):
        backend = make_backend()
        journal = JournalBackend.create(tmp_path / "j", KEY)
        journal.bind(backend)
        plan = write_plan(backend, [1])
        journal.record(plan)
        apply_plan(backend, plan)
        journal.mark_committed()
        assert len(journal) == 1
        journal.checkpoint()
        assert len(journal) == 0
        assert journal.pending_count == 0
        journal.close()
        reopened = JournalBackend.open(tmp_path / "j", KEY)
        assert reopened.pending_count == 0
        assert len(reopened) == 0
        reopened.close()

    def test_close_is_idempotent(self, tmp_path):
        journal = JournalBackend.create(tmp_path / "j", KEY)
        journal.close()
        journal.close()
        assert journal.closed


class TestFaultInjection:
    def test_counts_block_calls_only(self):
        backend = FaultInjectingBackend(make_backend())
        backend.read(0)
        backend.write(1, bytes(64))
        backend.read_many(np.array([2, 3]))
        backend.write_many(np.array([4]), [bytes(64)])
        backend.raw_bytes()
        backend.flush()
        assert backend.calls == 4

    def test_counter_is_exact_under_concurrent_device_calls(self):
        """LCK003's first in-tree catch: the call counter must not tear.

        N threads each issue M device calls; the counter must land on
        exactly N*M.  Before ``_tick`` took the state lock this lost
        increments under load, making ``crash_at`` sweeps
        nondeterministic.
        """
        import threading

        num_threads, calls_each = 8, 200
        backend = FaultInjectingBackend(make_backend(num_blocks=32))
        barrier = threading.Barrier(num_threads)

        def worker(thread_index: int) -> None:
            barrier.wait()
            for call in range(calls_each):
                backend.read((thread_index + call) % 32)

        threads = [
            threading.Thread(target=worker, args=(index,)) for index in range(num_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert backend.calls == num_threads * calls_each

    def test_armed_crash_fires_exactly_once_across_threads(self):
        """Exactly one thread draws the doomed call; the rest see a
        dead backend, and the counter freezes at ``crash_at + 1``
        because played-dead calls never tick."""
        import threading

        num_threads, calls_each = 8, 100
        crash_at = 137
        backend = FaultInjectingBackend(make_backend(num_blocks=32))
        backend.arm(crash_at=crash_at)
        outcomes: list[str] = []
        barrier = threading.Barrier(num_threads)

        def worker(thread_index: int) -> None:
            barrier.wait()
            for call in range(calls_each):
                try:
                    backend.read((thread_index + call) % 32)
                except InjectedCrashError as error:
                    outcomes.append(str(error))

        threads = [
            threading.Thread(target=worker, args=(index,)) for index in range(num_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert backend.crashed
        assert backend.calls == crash_at + 1
        doomed = [message for message in outcomes if "injected crash" in message]
        assert doomed == [f"injected crash at device call {crash_at}"]

    def test_crash_fires_at_exact_index(self):
        backend = FaultInjectingBackend(make_backend())
        backend.arm(crash_at=2)
        backend.read(0)
        backend.read(1)
        with pytest.raises(InjectedCrashError):
            backend.read(2)
        assert backend.crashed

    def test_dead_backend_refuses_block_io_but_keeps_forensics(self):
        backend = FaultInjectingBackend(make_backend())
        backend.arm(crash_at=0)
        with pytest.raises(InjectedCrashError):
            backend.read(0)
        with pytest.raises(InjectedCrashError):
            backend.write(0, bytes(64))
        assert len(backend.raw_bytes()) == 16 * 64  # the seized image
        backend.flush()
        backend.close()
        assert backend.closed

    def test_clean_crash_leaves_doomed_write_unapplied(self):
        inner = make_backend()
        before = inner.read(5)
        backend = FaultInjectingBackend(inner)
        backend.arm(crash_at=0)
        with pytest.raises(InjectedCrashError):
            backend.write(5, bytes(64))
        assert inner.read(5) == before

    def test_torn_write_keeps_head_and_flips_old_tail(self):
        inner = make_backend()
        old = inner.read(5)
        new = Sha256Prng("new").random_bytes(64)
        backend = FaultInjectingBackend(inner)
        backend.arm(crash_at=0, torn=TornWrite(keep_bytes=10))
        with pytest.raises(InjectedCrashError):
            backend.write(5, new)
        torn = inner.read(5)
        assert torn == new[:10] + bytes(byte ^ 0xFF for byte in old[10:])
        assert torn != old and torn != new

    def test_torn_write_without_flip_keeps_old_tail(self):
        inner = make_backend()
        old = inner.read(5)
        new = Sha256Prng("new").random_bytes(64)
        backend = FaultInjectingBackend(inner)
        backend.arm(crash_at=0, torn=TornWrite(keep_bytes=16, flip_tail=False))
        with pytest.raises(InjectedCrashError):
            backend.write(5, new)
        assert inner.read(5) == new[:16] + old[16:]

    def test_torn_batch_applies_earlier_writes_whole(self):
        inner = make_backend()
        olds = [inner.read(i) for i in range(3)]
        news = [Sha256Prng(f"n{i}").random_bytes(64) for i in range(3)]
        backend = FaultInjectingBackend(inner)
        backend.arm(crash_at=0, torn=TornWrite(block_offset=1, keep_bytes=32, flip_tail=False))
        with pytest.raises(InjectedCrashError):
            backend.write_many(np.array([0, 1, 2]), news)
        assert inner.read(0) == news[0]  # before the tear: landed whole
        assert inner.read(1) == news[1][:32] + olds[1][32:]  # the torn block
        assert inner.read(2) == olds[2]  # after the tear: never written

    def test_runs_are_deterministic(self):
        images = []
        for _ in range(2):
            inner = make_backend()
            backend = FaultInjectingBackend(inner)
            backend.arm(crash_at=1, torn=TornWrite())
            backend.write(0, Sha256Prng("a").random_bytes(64))
            with pytest.raises(InjectedCrashError):
                backend.write(1, Sha256Prng("b").random_bytes(64))
            images.append(inner.raw_bytes())
        assert images[0] == images[1]

    def test_disarm_cancels_the_crash(self):
        backend = FaultInjectingBackend(make_backend())
        backend.arm(crash_at=0)
        backend.disarm()
        backend.read(0)
        assert not backend.crashed

    def test_arm_rejects_negative_index(self):
        backend = FaultInjectingBackend(make_backend())
        with pytest.raises(ValueError):
            backend.arm(crash_at=-1)


# -- end-to-end crash sweep over the service facade --------------------------------


FILE_BLOCKS = 4


def build_volume(workdir, construction: str, seed: int = 11, blocks: float = FILE_BLOCKS):
    """A durable volume with one flushed ``blocks``-block file; returns its reopen kit."""
    path = str(workdir / "vol.img")
    service = HiddenVolumeService.create(
        construction, volume_mib=1, seed=seed, block_size=BLOCK, path=path
    )
    session = service.login(service.new_keyring("owner"))
    payload = service.volume.data_field_bytes
    old = Sha256Prng(f"old:{construction}").random_bytes(int(blocks * payload))
    session.create("/crash/f", old)
    ring = session.keyring.to_json()
    service.flush()
    service.close()
    return path, ring, old, payload


def clone_volume(base_path: str, workdir, name: str) -> str:
    clone = str(workdir / name)
    shutil.copyfile(base_path, clone)
    shutil.copyfile(journal_sidecar_path(base_path), journal_sidecar_path(clone))
    return clone


def run_op(path, construction, ring, op, *, nonce, seed=11, crash_at=None, torn=None):
    """Open, log in, run ``op``; emulate process death on an injected crash.

    Returns ``(crashed, device_calls_since_arm)``.  The injector is
    armed (or, with ``crash_at=None``, set far beyond the op) right
    before ``op`` runs, so the call counter measures the op alone.
    """
    injector: FaultInjectingBackend | None = None

    def wrap(backend):
        nonlocal injector
        injector = FaultInjectingBackend(backend)
        return injector

    service = HiddenVolumeService.open(
        path,
        construction,
        seed=seed,
        block_size=BLOCK,
        session_nonce=nonce,
        wrap_backend=wrap,
    )
    session = service.login(KeyRing.from_json(ring))
    injector.arm(10**9 if crash_at is None else crash_at, torn)
    crashed = False
    try:
        op(service, session)
    except InjectedCrashError:
        crashed = True
    calls = injector.calls
    if crashed:
        # A killed process takes no exit path: drop the mapping and the
        # journal handle without flushing, saving or checkpointing.
        service.storage.close()
        service.journal.close()
    else:
        injector.disarm()
        service.flush()
        service.close()
    return crashed, calls


def reopen(path, construction, ring, *, nonce, seed=11):
    service = HiddenVolumeService.open(
        path, construction, seed=seed, block_size=BLOCK, session_nonce=nonce
    )
    session = service.login(KeyRing.from_json(ring))
    return service, session


def assert_old_or_new_per_block(recovered: bytes, old: bytes, new: bytes, payload: int):
    """Every file block reads its old or its new payload — never a mixture."""
    assert len(recovered) == len(old)
    for block in range(len(old) // payload):
        lo, hi = block * payload, (block + 1) * payload
        assert recovered[lo:hi] in (old[lo:hi], new[lo:hi]), f"block {block} is torn"


def spliced(old: bytes, data: bytes, at: int) -> bytes:
    return old[:at] + data + old[at + len(data) :]


@pytest.mark.parametrize("construction", ["nonvolatile", "volatile"])
@pytest.mark.parametrize("torn", [False, True], ids=["clean", "torn"])
def test_every_crash_point_of_a_write_recovers_old_or_new(tmp_path, construction, torn):
    """Exhaustive sweep: kill the op at every device call; never read garbage."""
    base, ring, old, payload = build_volume(tmp_path, construction)
    data = Sha256Prng("update").random_bytes(2 * payload)
    at = payload // 2  # spans blocks 0..2 with torn boundaries
    new = spliced(old, data, at)

    def op(service, session):
        session.write("/crash/f", data, at=at)

    probe = clone_volume(base, tmp_path, "probe.img")
    crashed, op_calls = run_op(probe, construction, ring, op, nonce="op")
    assert not crashed and op_calls > 0

    for crash_at in range(op_calls):
        clone = clone_volume(base, tmp_path, f"crash{crash_at}.img")
        crashed, _ = run_op(
            clone,
            construction,
            ring,
            op,
            nonce="op",
            crash_at=crash_at,
            torn=TornWrite() if torn else None,
        )
        assert crashed
        service, session = reopen(clone, construction, ring, nonce=f"verify:{crash_at}")
        recovered = session.read("/crash/f")
        assert_old_or_new_per_block(recovered, old, new, payload)
        service.close()


@pytest.mark.parametrize("construction", ["nonvolatile", "volatile"])
@pytest.mark.parametrize("torn", [False, True], ids=["clean", "torn"])
def test_every_crash_point_of_a_write_recovers_the_pre_write_image(tmp_path, construction, torn):
    """A multi-block write within the journal's budget is atomic on the device.

    Its updates run as one journal entry, so a crash anywhere inside it
    rolls every block back: the recovered volume image is byte-for-byte
    the image before the write, not a mix of landed and undone updates.
    """
    base, ring, old, payload = build_volume(tmp_path, construction)
    before = Path(base).read_bytes()
    data = Sha256Prng("atomic").random_bytes(2 * payload)

    def op(service, session):
        session.write("/crash/f", data, at=payload // 2)  # spans blocks 0..2

    probe = clone_volume(base, tmp_path, "probe.img")
    crashed, op_calls = run_op(probe, construction, ring, op, nonce="op")
    assert not crashed and op_calls > 2

    for crash_at in range(op_calls):
        clone = clone_volume(base, tmp_path, f"crash{crash_at}.img")
        crashed, _ = run_op(
            clone,
            construction,
            ring,
            op,
            nonce="op",
            crash_at=crash_at,
            torn=TornWrite() if torn else None,
        )
        assert crashed
        service, _ = reopen(clone, construction, ring, nonce=f"verify:{crash_at}")
        assert service.storage.raw_bytes() == before, f"crash at {crash_at} kept a partial write"
        service.close()


@pytest.mark.parametrize("construction", ["nonvolatile", "volatile"])
def test_recovered_service_prng_streams_match_a_never_crashed_twin(tmp_path, construction):
    """Recovery consumes no PRNG stream: draws after reopen are twin-identical."""
    base, ring, old, payload = build_volume(tmp_path, construction)
    data = Sha256Prng("update").random_bytes(payload)

    def op(service, session):
        session.write("/crash/f", data, at=payload)

    probe = clone_volume(base, tmp_path, "probe.img")
    _, op_calls = run_op(probe, construction, ring, op, nonce="doomed")
    clone = clone_volume(base, tmp_path, "crashed.img")
    crashed, _ = run_op(
        clone, construction, ring, op, nonce="doomed", crash_at=op_calls // 2, torn=TornWrite()
    )
    assert crashed
    twin_path = clone_volume(base, tmp_path, "twin.img")

    survivor, _ = reopen(clone, construction, ring, nonce="after")
    twin, _ = reopen(twin_path, construction, ring, nonce="after")
    assert survivor.volume.fresh_iv() == twin.volume.fresh_iv()
    assert survivor.agent._prng.random_bytes(32) == twin.agent._prng.random_bytes(32)
    survivor.close()
    twin.close()


@pytest.mark.parametrize("construction", ["nonvolatile", "volatile"])
def test_crash_during_append_reads_old_or_grown(tmp_path, construction):
    base, ring, old, payload = build_volume(tmp_path, construction)
    suffix = Sha256Prng("suffix").random_bytes(payload + payload // 2)

    def op(service, session):
        session.append("/crash/f", suffix)

    probe = clone_volume(base, tmp_path, "probe.img")
    _, op_calls = run_op(probe, construction, ring, op, nonce="op")
    for crash_at in range(0, op_calls, max(1, op_calls // 6)):
        clone = clone_volume(base, tmp_path, f"crash{crash_at}.img")
        crashed, _ = run_op(
            clone,
            construction,
            ring,
            op,
            nonce="op",
            crash_at=crash_at,
            torn=TornWrite(),
        )
        assert crashed
        service, session = reopen(clone, construction, ring, nonce=f"verify:{crash_at}")
        recovered = session.read("/crash/f")
        assert recovered in (old, old + suffix), f"crash at {crash_at} left a torn file"
        service.close()


@pytest.mark.parametrize("construction", ["nonvolatile", "volatile"])
@pytest.mark.parametrize("torn", [False, True], ids=["clean", "torn"])
def test_every_crash_point_of_an_append_recovers_the_pre_append_image(tmp_path, construction, torn):
    """An append within the journal's budget is atomic on the device.

    The tail block's Figure-6 update, the new blocks and the grown
    header's save run as one journal entry, so a crash anywhere inside
    the append rolls all of them back: the recovered volume image is
    byte-for-byte the image before the append.
    """
    base, ring, old, payload = build_volume(tmp_path, construction, blocks=3.5)
    before = Path(base).read_bytes()
    suffix = Sha256Prng("grown").random_bytes(2 * payload)

    def op(service, session):
        session.append("/crash/f", suffix)

    probe = clone_volume(base, tmp_path, "probe.img")
    crashed, op_calls = run_op(probe, construction, ring, op, nonce="op")
    assert not crashed and op_calls > 2

    for crash_at in range(op_calls):
        clone = clone_volume(base, tmp_path, f"crash{crash_at}.img")
        crashed, _ = run_op(
            clone,
            construction,
            ring,
            op,
            nonce="op",
            crash_at=crash_at,
            torn=TornWrite() if torn else None,
        )
        assert crashed
        service, session = reopen(clone, construction, ring, nonce=f"verify:{crash_at}")
        assert service.storage.raw_bytes() == before, f"crash at {crash_at} kept a partial append"
        assert session.read("/crash/f") in (old, old + suffix)
        service.close()


@pytest.mark.parametrize("construction", ["nonvolatile", "volatile"])
def test_writes_served_after_recovering_a_torn_crash_survive_the_next_open(tmp_path, construction):
    """``open()`` recovers the sidecar it finds and journals what it serves.

    So no stale entry of the crashed process is left for the next open
    to roll back over bytes flushed since.
    """
    path = tmp_path / "vol.img"
    service = HiddenVolumeService.create(construction, volume_mib=1, seed=1, path=path)
    session = service.login(service.new_keyring("owner"))
    payload = service.volume.data_field_bytes
    session.create("/crash/f", Sha256Prng("old").random_bytes(100 * payload))
    ring = session.keyring.to_json()
    service.flush()
    service.close()

    injector: FaultInjectingBackend | None = None

    def wrap(backend):
        nonlocal injector
        injector = FaultInjectingBackend(backend)
        return injector

    doomed = HiddenVolumeService.open(
        path, construction, seed=1, session_nonce=1, wrap_backend=wrap
    )
    writer = doomed.login(KeyRing.from_json(ring))
    injector.arm(1, TornWrite())
    with pytest.raises(InjectedCrashError):
        writer.write("/crash/f", b"d" * 4 * payload, at=payload)
    doomed.storage.close()
    doomed.journal.close()

    service = HiddenVolumeService.open(path, construction, seed=1, session_nonce=2)
    session = service.login(KeyRing.from_json(ring))
    latest = bytearray(Sha256Prng("whole").random_bytes(100 * payload))
    session.write("/crash/f", bytes(latest))
    half = len(latest) // 2
    for at, end in ((0, half), (half, len(latest))):
        latest[at:end] = Sha256Prng(f"half:{at}").random_bytes(end - at)
        session.write("/crash/f", bytes(latest[at:end]), at=at)
    for _ in range(20):
        service.idle(1)
    service.flush()
    service.close()

    service = HiddenVolumeService.open(path, construction, seed=1, session_nonce=3)
    session = service.login(KeyRing.from_json(ring))
    assert session.read("/crash/f") == bytes(latest)
    service.close()


@pytest.mark.parametrize("construction", ["nonvolatile", "volatile"])
def test_crash_during_dummy_burst_preserves_file_exactly(tmp_path, construction):
    """Dummy updates are plaintext-preserving, so any crash point reads old."""
    base, ring, old, payload = build_volume(tmp_path, construction)

    def op(service, session):
        service.idle(num_dummy_updates=3)

    probe = clone_volume(base, tmp_path, "probe.img")
    _, op_calls = run_op(probe, construction, ring, op, nonce="op")
    assert op_calls > 0  # dummy plans do reach the device
    for crash_at in range(0, op_calls, max(1, op_calls // 8)):
        clone = clone_volume(base, tmp_path, f"crash{crash_at}.img")
        crashed, _ = run_op(
            clone,
            construction,
            ring,
            op,
            nonce="op",
            crash_at=crash_at,
            torn=TornWrite(),
        )
        assert crashed
        service, session = reopen(clone, construction, ring, nonce=f"verify:{crash_at}")
        assert session.read("/crash/f") == old
        service.close()


@pytest.mark.parametrize("construction", ["nonvolatile", "volatile"])
def test_crash_after_delete_keeps_other_files_intact(tmp_path, construction):
    """Deletes are I/O-free; a crash in the following dummies hurts nothing."""
    workdir = tmp_path
    path = str(workdir / "vol.img")
    service = HiddenVolumeService.create(
        construction, volume_mib=1, seed=11, block_size=BLOCK, path=path
    )
    session = service.login(service.new_keyring("owner"))
    payload = service.volume.data_field_bytes
    keep = Sha256Prng("keep").random_bytes(2 * payload)
    session.create("/crash/keep", keep)
    session.create("/crash/victim", Sha256Prng("victim").random_bytes(payload))
    ring = session.keyring.to_json()
    service.flush()
    service.close()

    def op(service, session):
        session.delete("/crash/victim")
        service.idle(num_dummy_updates=4)

    crashed, _ = run_op(
        path, construction, ring, op, nonce="doomed", crash_at=3, torn=TornWrite()
    )
    assert crashed
    # The pre-delete ring still opens the victim (deletion is key
    # destruction and the crashed process's ring was never re-saved);
    # what matters is that the surviving file is bit-exact.
    service, session = reopen(path, construction, ring, nonce="verify")
    assert session.read("/crash/keep") == keep
    service.close()


SWEEP_SEEDS = {"nonvolatile": 23, "volatile": 24}


class _SweepState:
    """Base volumes shared across hypothesis examples (building is slow)."""

    def __init__(self, tmp_path_factory):
        self.workdir = tmp_path_factory.mktemp("crash-sweep")
        self.kits = {}
        self.counter = 0

    def kit(self, construction: str):
        if construction not in self.kits:
            subdir = self.workdir / construction
            subdir.mkdir()
            self.kits[construction] = build_volume(
                subdir, construction, seed=SWEEP_SEEDS[construction]
            )
        return self.kits[construction]

    def fresh_clone(self, base_path: str) -> str:
        self.counter += 1
        return clone_volume(base_path, self.workdir, f"hyp{self.counter}.img")


@pytest.fixture(scope="module")
def sweep_state(tmp_path_factory) -> _SweepState:
    return _SweepState(tmp_path_factory)


@settings(deadline=None, max_examples=20)
@given(data=st.data())
def test_property_any_crash_point_recovers_old_or_new(sweep_state, data):
    """Hypothesis sweep: construction x op shape x crash point x tearing."""
    construction = data.draw(st.sampled_from(["nonvolatile", "volatile"]), label="construction")
    base, ring, old, payload = sweep_state.kit(construction)
    seed = SWEEP_SEEDS[construction]
    length = data.draw(st.integers(1, 2 * payload), label="length")
    at = data.draw(st.integers(0, len(old) - length), label="at")
    torn = data.draw(st.booleans(), label="torn")
    update = Sha256Prng(f"hyp:{length}:{at}").random_bytes(length)
    new = spliced(old, update, at)

    def op(service, session):
        session.write("/crash/f", update, at=at)

    probe = sweep_state.fresh_clone(base)
    _, op_calls = run_op(probe, construction, ring, op, nonce="op", seed=seed)
    crash_at = data.draw(st.integers(0, op_calls - 1), label="crash_at")

    clone = sweep_state.fresh_clone(base)
    crashed, _ = run_op(
        clone,
        construction,
        ring,
        op,
        nonce="op",
        seed=seed,
        crash_at=crash_at,
        torn=TornWrite() if torn else None,
    )
    assert crashed
    service, session = reopen(clone, construction, ring, nonce=f"verify:{crash_at}", seed=seed)
    recovered = session.read("/crash/f")
    assert_old_or_new_per_block(recovered, old, new, payload)
    service.close()


# -- the declarative crash scenario under the snapshot-diff adversary ---------------


class TestCrashScenario:
    def test_validation(self):
        with pytest.raises(ValueError):
            CrashScenario(construction="bogus")
        with pytest.raises(ValueError):
            CrashScenario(intervals=0)
        with pytest.raises(ValueError):
            CrashScenario(crash_intervals=(9,), intervals=4)
        with pytest.raises(ValueError):
            CrashScenario(crash_call_index=-1)

    def test_run_experiment_recovers_and_scores(self):
        scenario = CrashScenario(
            construction="nonvolatile",
            volume_mib=1,
            block_size=BLOCK,
            intervals=5,
            ops_per_interval=3,
            file_blocks=4,
            crash_intervals=(1, 3),
            crash_call_index=2,
            torn_write=True,
            seed=3,
        )
        result = run_experiment(scenario)
        assert result.measurements["crashes"] == 2.0
        assert result.measurements["ops"] > 0
        payload = result.system.volume.data_field_bytes
        assert result.measurements["recovered_bytes"] == 4 * payload
        verdict = result.verdicts["snapshot-diff"]
        assert verdict.intervals == 5  # one diff per run against its predecessor
        assert 0.0 <= verdict.advantage <= 1.0

    def test_torn_crash_is_no_more_distinguishable_than_clean_death(self):
        """The adversary's edge comes from "the process stopped early", which
        any system leaks; tearing a plan plus rolling it back must add no
        advantage beyond that clean-death baseline."""
        common = dict(
            construction="nonvolatile",
            volume_mib=1,
            block_size=BLOCK,
            intervals=8,
            ops_per_interval=3,
            file_blocks=4,
            crash_intervals=(2, 5),
            seed=7,
        )
        torn = run_experiment(
            CrashScenario(crash_call_index=3, torn_write=True, **common)
        ).verdicts["snapshot-diff"]
        clean_death = run_experiment(
            CrashScenario(crash_call_index=0, torn_write=False, **common)
        ).verdicts["snapshot-diff"]
        assert torn.advantage <= clean_death.advantage + 0.34

    def test_unexpected_error_releases_handles(self, monkeypatch):
        """A harness bug mid-interval is not a simulated crash: every
        opened volume mapping must be released before the error leaves
        the runner (regression for the exception leak TYP002 found)."""
        from repro.service import facade

        opened = []
        real_open = facade.HiddenVolumeService.open.__func__

        def recording_open(cls, *args, **kwargs):
            svc = real_open(cls, *args, **kwargs)
            opened.append(svc)
            return svc

        monkeypatch.setattr(
            facade.HiddenVolumeService, "open", classmethod(recording_open)
        )

        real_write = facade.Session.write
        calls = {"count": 0}

        def failing_write(self, *args, **kwargs):
            calls["count"] += 1
            if calls["count"] == 2:
                raise RuntimeError("injected harness bug")
            return real_write(self, *args, **kwargs)

        monkeypatch.setattr(facade.Session, "write", failing_write)

        scenario = CrashScenario(
            construction="nonvolatile",
            volume_mib=1,
            block_size=BLOCK,
            intervals=2,
            ops_per_interval=3,
            file_blocks=4,
            crash_intervals=(),
            seed=5,
        )
        with pytest.raises(RuntimeError, match="injected harness bug"):
            run_experiment(scenario)
        assert opened, "the interval loop opened at least one service"
        assert all(svc.storage.closed for svc in opened)

    def test_no_crashes_means_no_advantage(self):
        scenario = CrashScenario(
            construction="nonvolatile",
            volume_mib=1,
            block_size=BLOCK,
            intervals=3,
            ops_per_interval=2,
            file_blocks=4,
            crash_intervals=(),
            seed=1,
        )
        result = run_experiment(scenario)
        assert result.measurements["crashes"] == 0.0
        assert result.verdicts["snapshot-diff"].advantage == 0.0


class TestSnapshotDiffAttacker:
    def _snapshots(self, images):
        return [Snapshot.of_bytes(image, 16, label=str(i)) for i, image in enumerate(images)]

    def test_of_bytes_validates_geometry(self):
        with pytest.raises(SnapshotMismatchError):
            Snapshot.of_bytes(b"", 16)
        with pytest.raises(SnapshotMismatchError):
            Snapshot.of_bytes(b"x" * 17, 16)
        with pytest.raises(SnapshotMismatchError):
            Snapshot.of_bytes(b"x" * 16, 0)

    def test_needs_two_snapshots(self):
        attacker = SnapshotDiffAttacker(num_blocks=4)
        with pytest.raises(ValueError):
            attacker.interval_diffs(self._snapshots([bytes(64)]))

    def test_change_fractions_count_changed_blocks(self):
        base = bytearray(64)
        second = bytearray(base)
        second[0] ^= 1  # block 0
        second[20] ^= 1  # block 1
        snapshots = self._snapshots([bytes(base), bytes(second), bytes(second)])
        attacker = SnapshotDiffAttacker(num_blocks=4)
        fractions = attacker.change_fractions(attacker.interval_diffs(snapshots))
        assert fractions == (0.5, 0.0)

    def test_best_threshold_advantage_extremes(self):
        attacker = SnapshotDiffAttacker(num_blocks=4)
        assert attacker.best_threshold_advantage([0.9, 0.1, 0.9], [True, False, True]) == 1.0
        assert attacker.best_threshold_advantage([0.5, 0.5], [True, False]) == 0.0
        assert attacker.best_threshold_advantage([0.5, 0.9], [True, True]) == 0.0
        with pytest.raises(ValueError):
            attacker.best_threshold_advantage([0.5], [True, False])

    def test_flagged_intervals_need_spread_and_support(self):
        attacker = SnapshotDiffAttacker(num_blocks=4)
        assert attacker.flagged_intervals([0.5, 0.5]) == ()
        assert attacker.flagged_intervals([0.5, 0.5, 0.5, 0.5]) == ()

    def test_analyse_flags_a_planted_outlier_series(self):
        rng = Sha256Prng("images")
        images = [rng.random_bytes(64)]
        for step in range(12):
            image = bytearray(images[-1])
            image[0] = step  # block 0 changes every interval: positional bias
            if step == 3:
                for byte in range(16, 64):  # a whole-volume rewrite outlier
                    image[byte] ^= 0xA5
            images.append(bytes(image))
        attacker = SnapshotDiffAttacker(num_blocks=4)
        verdict = attacker.analyse(self._snapshots(images))
        assert verdict.intervals == 12
        assert 3 in verdict.flagged_intervals
        assert verdict.suspects_crash_recovery  # positional bias on block 0

    def test_analyse_without_flags_reports_zero_advantage(self):
        rng = Sha256Prng("flat")
        images = [rng.random_bytes(64) for _ in range(4)]
        attacker = SnapshotDiffAttacker(num_blocks=4)
        verdict = attacker.analyse(self._snapshots(images))
        assert verdict.advantage == 0.0
