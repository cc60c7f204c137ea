"""Durable, cipher-sealed plan journal: the crash-consistency intent log.

:class:`JournalBackend` persists the rollback data of every
:class:`~repro.core.plan.PlanJournal` entry that writes to a fixed-size
sidecar file next to the volume image (``<volume>.journal``) so that a
process killed mid-plan can be rolled back to the plan's pre-image on
the next :meth:`~repro.service.HiddenVolumeService.open`.

Design constraints, in the paper's threat model:

* **Zero plaintext.**  The sidecar is formatted with a deterministic
  pseudo-random fill derived from the journal key, and every record is
  a fresh-IV :class:`~repro.crypto.FastFieldCipher` seal over a
  digest-protected body.  To an adversary without the key the file is
  byte-uniform noise of constant size — it passes the same seized-disk
  chi-square scan as the volume image.
* **Only plans that write reach the sidecar.**  An entry holds exactly
  what rollback reads — the plan's label in a fixed-width field and the
  before-image of every block the plan writes — so the records one
  plan appends are a function of how many distinct blocks it writes
  alone: a real update and a dummy update that write the same number
  of blocks rewrite the same number of slots.  A plan that writes
  nothing (a read, a delete) appends no record at all, so between
  checkpoints the sidecar changes only when the volume does.  No step
  data is persisted, so no file key is ever sealed under the journal
  key.  What an adversary imaging the sidecar between flushes can
  still count is writing plans: each costs one record beyond its
  before-images, plus a commit marker.  A plan is one write *call* —
  ``Session.write`` journals a multi-block range as one entry, as the
  engine journals each request — so the sidecar counts write calls,
  not the blocks they update.
* **Bounded by the ring.**  One entry holds at most
  :attr:`JournalBackend.entry_budget` before-images (123 for the
  default 256 x 4 KiB ring over 4 KiB blocks): the most whose entry,
  commit marker and one checkpoint fit in half the ring.  The
  journalled executors cut a plan that writes more blocks into
  consecutive slices, each recorded, executed and committed before the
  next, so no write can fill the ring with uncommitted records.  A
  write within the budget is atomic: a crash anywhere inside it rolls
  every block it wrote back.  A larger write is atomic per slice.
* **Old-or-new, not redo.**  Records carry *before-images* (undo), not
  replay instructions: replaying a reseal against a block the crash
  tore would reseal garbage, while writing back the captured pre-image
  is correct no matter how torn the block is.  Rollback restores every
  block a torn plan touched to its pre-plan bytes.
* **Write-ahead ordering.**  :meth:`record` runs strictly before the
  plan's first device request (the :class:`PlanJournal` contract) and
  :meth:`mark_committed` strictly after its last, so an entry that is
  on disk, complete and uncommitted brackets exactly the plans a crash
  may have left half-applied.  A journal record that is itself torn
  marks a plan whose execution never started — it is ignored.
* **Indistinguishable recovery.**  Recovery happens below the storage
  accounting layer (direct backend writes of sealed ciphertext,
  pre-login, untraced) and consumes no PRNG stream, so a recovered
  service is draw-for-draw identical to one that never crashed.

Layout
------
The file is a ring of ``num_slots`` constant-size records; record
``seq`` lives in slot ``seq % num_slots``.  On disk each slot is::

    iv (16) || seal( digest (32) || seq (8) || kind (1) || entry_id (8)
                     || aux (8, signed) || part_index (4) || part_count (4)
                     || frag_len (4) || fragment || zero pad )

The IV is a pure PRF of the journal key and ``seq`` (no PRNG stream is
consumed), and the digest binds body and IV, so the scan on
:meth:`open` can tell real records from format fill or torn writes
without any plaintext marker.  Entries larger than one record chain
over consecutive sequence numbers.  ``kind`` is an entry part, a
commit marker, or a checkpoint whose ``aux`` is the *kill sequence*:
every record with ``seq <= aux`` is dead.  Checkpoints never advance
the kill sequence past a recorded-but-uncommitted entry, which is the
invariant that makes slot reuse safe.

An entry's payload is::

    label_len (2) || label || step_count (4) || step*
    || undo_count (4) || ( index (8) || image_len (4) || before-image )*

:meth:`JournalBackend.record` writes the label NUL-padded to
``_LABEL_WIDTH`` bytes and ``step_count = 0``.  Sidecars written before
entries dropped their steps carry a variable-width label and the plan's
steps.  They decode and recover the same way; their steps only fill the
in-memory mirror, :attr:`~repro.core.plan.PlanJournal.entries`.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import BinaryIO, Sequence

from repro.core.plan import (
    CycleStep,
    IoPlan,
    JournalEntry,
    PlanJournal,
    ReadStep,
    ResealStep,
    Step,
    WriteStep,
    write_targets,
)
from repro.crypto import FastFieldCipher, Sha256Prng
from repro.errors import JournalError
from repro.storage.backend import BlockBackend

_IV_SIZE = 16
_DIGEST_SIZE = 32
#: seq(8) + kind(1) + entry_id(8) + aux(8) + part_index(4) + part_count(4) + frag_len(4)
_BODY_HEADER_SIZE = 37
_HEADER_SIZE = _IV_SIZE + _DIGEST_SIZE + _BODY_HEADER_SIZE

_KIND_ENTRY = 0
_KIND_COMMIT = 1
_KIND_CHECKPOINT = 2

_STEP_READ = 0
_STEP_WRITE = 1
_STEP_CYCLE = 2
_STEP_RESEAL = 3

#: Every label ``record`` persists is padded to this many UTF-8 bytes, so
#: an entry's length never depends on which plan it journals.
_LABEL_WIDTH = 64
#: label_len(2) + label + step_count(4) + undo_count(4): an entry's fixed bytes.
_ENTRY_FIXED_SIZE = 2 + _LABEL_WIDTH + 4 + 4
#: index(8) + image_len(4): the bytes each before-image adds besides itself.
_UNDO_FIXED_SIZE = 12

DEFAULT_NUM_SLOTS = 256
DEFAULT_RECORD_SIZE = 4096


def journal_sidecar_path(volume_path: str | os.PathLike) -> str:
    """The canonical journal location for a volume file: ``<volume>.journal``."""
    return f"{os.fspath(volume_path)}.journal"


def _derive_iv(key: bytes, seq: int) -> bytes:
    return hashlib.sha256(key + b"/journal-iv/" + seq.to_bytes(8, "big")).digest()[:_IV_SIZE]


def _digest(iv: bytes, body: bytes) -> bytes:
    return hashlib.sha256(b"plan-journal" + iv + body).digest()


# -- entry payload serialisation ----------------------------------------------------


def _pack_bytes(out: bytearray, data: bytes) -> None:
    out += len(data).to_bytes(4, "big")
    out += data


class _Reader:
    """Bounds-checked cursor over an entry payload."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def take(self, n: int) -> bytes:
        if self._pos + n > len(self._data):
            raise JournalError("truncated journal entry payload")
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return int.from_bytes(self.take(2), "big")

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "big")

    def u64(self) -> int:
        return int.from_bytes(self.take(8), "big")

    def raw(self) -> bytes:
        return self.take(self.u32())

    def text(self) -> str:
        return self.take(self.u16()).decode("utf-8")


def _decode_step(reader: _Reader) -> Step:
    # Only sidecars written before entries dropped their steps carry any.
    tag = reader.u8()
    if tag == _STEP_READ:
        index = reader.u64()
        keep = reader.u8() != 0
        reader.u8()  # had a cipher; the object itself is not persistable
        return ReadStep(index, stream=reader.text(), cipher=None, keep=keep)
    if tag == _STEP_WRITE:
        index = reader.u64()
        stream = reader.text()
        return WriteStep(index, data=reader.raw(), stream=stream)
    if tag == _STEP_CYCLE:
        read_index = reader.u64()
        write_index = reader.u64()
        stream = reader.text()
        return CycleStep(read_index, write_index, data=reader.raw(), stream=stream)
    if tag == _STEP_RESEAL:
        index = reader.u64()
        batched = reader.u8() != 0
        stream = reader.text()
        key = reader.raw()
        return ResealStep(index, key=key, new_iv=reader.raw(), stream=stream, batched=batched)
    raise JournalError(f"unknown journal step tag {tag}")


def _encode_entry(label: str, undo: Sequence[tuple[int, bytes]]) -> bytes:
    encoded = label.encode("utf-8")
    if len(encoded) > _LABEL_WIDTH:
        raise JournalError(
            f"plan label {label!r} is longer than the {_LABEL_WIDTH}-byte journal label field"
        )
    out = bytearray()
    out += _LABEL_WIDTH.to_bytes(2, "big")
    out += encoded.ljust(_LABEL_WIDTH, b"\0")
    out += bytes(4)  # step_count: entries persist no steps
    out += len(undo).to_bytes(4, "big")
    for index, raw in undo:
        out += index.to_bytes(8, "big")
        _pack_bytes(out, raw)
    return bytes(out)


def _decode_entry(payload: bytes) -> tuple[str, tuple[Step, ...], list[tuple[int, bytes]]]:
    reader = _Reader(payload)
    label = reader.text().rstrip("\0")
    steps = tuple(_decode_step(reader) for _ in range(reader.u32()))
    undo = [(reader.u64(), reader.raw()) for _ in range(reader.u32())]
    return label, steps, undo


@dataclass(frozen=True)
class _ParsedRecord:
    seq: int
    kind: int
    entry_id: int
    aux: int
    part_index: int
    part_count: int
    fragment: bytes


@dataclass(frozen=True)
class _UncommittedEntry:
    entry_id: int
    label: str
    undo: tuple[tuple[int, bytes], ...]


@dataclass(frozen=True)
class RecoveryReport:
    """What :meth:`JournalBackend.recover` found and did."""

    scanned_slots: int
    valid_records: int
    live_entries: int
    committed_entries: int
    incomplete_entries: int
    rolled_back: tuple[str, ...]
    restored_blocks: int


class JournalBackend(PlanJournal):
    """A :class:`PlanJournal` persisted to a sealed, fixed-size sidecar file.

    Build one with :meth:`create` (format a fresh sidecar) or
    :meth:`open` (scan an existing one, e.g. after a crash), then
    :meth:`bind` it to the volume's block backend so :meth:`record` can
    capture before-images.  The in-memory entry list mirrors the live
    (since the last checkpoint) window for introspection; durability
    comes from the file.

    Lifecycle per plan: ``record`` (before any device I/O) →
    ``mark_committed`` (after all of it).  A plan whose error surfaces
    *without* killing the process stays uncommitted and is rolled back
    on the next open — the partial-progress bytes it managed to write
    are undone along with the tear they might contain.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        file: BinaryIO,
        key: bytes,
        num_slots: int,
        record_size: int,
    ):
        super().__init__()
        self._path = os.fspath(path)
        self._file: BinaryIO | None = file
        self._key = key
        self._cipher = FastFieldCipher(key)
        self._num_slots = num_slots
        self._record_size = record_size
        self._backend: BlockBackend | None = None
        self._budget: int | None = None
        self._next_seq = 0
        self._kill_seq = -1
        self._pending: list[int] = []
        self._uncommitted: list[_UncommittedEntry] = []
        self._scan_stats = (num_slots, 0, 0, 0, 0)

    # -- construction ------------------------------------------------------

    @classmethod
    def create(
        cls,
        path: str | os.PathLike,
        key: bytes,
        *,
        num_slots: int = DEFAULT_NUM_SLOTS,
        record_size: int = DEFAULT_RECORD_SIZE,
    ) -> "JournalBackend":
        """Format a fresh journal sidecar of ``num_slots * record_size`` bytes.

        The file is filled with a deterministic pseudo-random stream
        derived from ``key`` so that empty slots are indistinguishable
        from sealed records.  Refuses to clobber an existing file for
        the same reason the volume backend does.
        """
        if num_slots < 2:
            raise ValueError(f"num_slots must be at least 2, got {num_slots}")
        if record_size < _HEADER_SIZE + 64:
            raise ValueError(f"record_size must be at least {_HEADER_SIZE + 64} bytes")
        fill = Sha256Prng(key).spawn("journal-format").random_bytes(num_slots * record_size)
        fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_RDWR, 0o600)
        try:
            view = memoryview(fill)
            while view:
                view = view[os.write(fd, view) :]
            file = os.fdopen(fd, "r+b")
        except BaseException:
            os.close(fd)
            os.unlink(path)
            raise
        return cls(path, file, key, num_slots, record_size)

    @classmethod
    def open(
        cls,
        path: str | os.PathLike,
        key: bytes,
        *,
        record_size: int = DEFAULT_RECORD_SIZE,
    ) -> "JournalBackend":
        """Scan an existing sidecar and reconstruct its live window.

        Validates every slot cryptographically (digest + IV binding):
        format fill and torn record writes simply fail validation and
        are treated as empty.  Complete, uncommitted entries become the
        rollback set that :meth:`recover` consumes.
        """
        file = open(path, "r+b")
        try:
            data = file.read()
            if len(data) == 0 or len(data) % record_size != 0:
                raise JournalError(
                    f"{os.fspath(path)!r} is {len(data)} bytes, not a positive "
                    f"multiple of the {record_size}-byte record size"
                )
            num_slots = len(data) // record_size
            if num_slots < 2:
                raise JournalError(f"{os.fspath(path)!r} holds fewer than 2 journal slots")
            self = cls(path, file, key, num_slots, record_size)
        except BaseException:
            file.close()
            raise
        self._scan(data)
        return self

    def _parse_record(self, slot_bytes: bytes) -> _ParsedRecord | None:
        iv = slot_bytes[:_IV_SIZE]
        plaintext = self._cipher.decrypt(iv, slot_bytes[_IV_SIZE:])
        digest, body = plaintext[:_DIGEST_SIZE], plaintext[_DIGEST_SIZE:]
        if _digest(iv, body) != digest:
            return None
        seq = int.from_bytes(body[0:8], "big")
        kind = body[8]
        entry_id = int.from_bytes(body[9:17], "big")
        aux = int.from_bytes(body[17:25], "big", signed=True)
        part_index = int.from_bytes(body[25:29], "big")
        part_count = int.from_bytes(body[29:33], "big")
        frag_len = int.from_bytes(body[33:37], "big")
        if kind not in (_KIND_ENTRY, _KIND_COMMIT, _KIND_CHECKPOINT):
            return None
        if iv != _derive_iv(self._key, seq):
            return None
        if frag_len > len(body) - _BODY_HEADER_SIZE:
            return None
        fragment = body[_BODY_HEADER_SIZE : _BODY_HEADER_SIZE + frag_len]
        return _ParsedRecord(seq, kind, entry_id, aux, part_index, part_count, fragment)

    def _scan(self, data: bytes) -> None:
        records: list[_ParsedRecord] = []
        size = self._record_size
        for slot in range(self._num_slots):
            parsed = self._parse_record(data[slot * size : (slot + 1) * size])
            if parsed is not None and parsed.seq % self._num_slots == slot:
                records.append(parsed)
        self._next_seq = max((r.seq for r in records), default=-1) + 1
        self._kill_seq = max(
            (r.aux for r in records if r.kind == _KIND_CHECKPOINT), default=-1
        )
        live = [r for r in records if r.seq > self._kill_seq]
        committed = {r.entry_id for r in live if r.kind == _KIND_COMMIT}
        parts: dict[int, dict[int, _ParsedRecord]] = {}
        for record in live:
            if record.kind == _KIND_ENTRY:
                parts.setdefault(record.entry_id, {})[record.part_index] = record
        incomplete = 0
        mirror: list[JournalEntry] = []
        uncommitted: list[_UncommittedEntry] = []
        for entry_id in sorted(parts):
            by_index = parts[entry_id]
            first = by_index.get(0)
            if first is None or set(by_index) != set(range(first.part_count)):
                # The journal write itself was torn: the plan's first
                # device request never happened, so there is nothing to
                # roll back.
                incomplete += 1
                continue
            payload = b"".join(by_index[i].fragment for i in range(first.part_count))
            label, steps, undo = _decode_entry(payload)
            mirror.append(JournalEntry(label, steps))
            if entry_id not in committed:
                uncommitted.append(_UncommittedEntry(entry_id, label, tuple(undo)))
        self._entries[:] = mirror
        self._uncommitted = uncommitted
        self._pending = [entry.entry_id for entry in uncommitted]
        self._scan_stats = (
            self._num_slots,
            len(records),
            len(parts) - incomplete,
            len(committed & set(parts)),
            incomplete,
        )

    # -- journal protocol --------------------------------------------------

    @property
    def path(self) -> str:
        """Filesystem location of the journal sidecar."""
        return self._path

    @property
    def closed(self) -> bool:
        return self._file is None

    @property
    def num_slots(self) -> int:
        return self._num_slots

    @property
    def record_size(self) -> int:
        return self._record_size

    @property
    def pending_count(self) -> int:
        """Entries recorded but not yet marked committed."""
        return len(self._pending)

    @property
    def entry_budget(self) -> int:
        """Most distinct blocks one entry may write; larger plans run as slices.

        The largest before-image count whose entry, commit marker and
        one checkpoint fit in half the ring (at least 1), derived from
        the ring's geometry and the bound backend's block size: 123
        blocks for the default 256 x 4 KiB ring over 4 KiB blocks.  So
        a plan within the budget can never fill the ring, and the other
        half absorbs the extra records of a group of entries that
        commit together (see :func:`~repro.core.plan.execute_journalled`).
        """
        self._require_open()
        if self._budget is None:
            raise JournalError("bind() a block backend before recording plans")
        return self._budget

    def bind(self, backend: BlockBackend) -> None:
        """Attach the volume backend whose before-images :meth:`record` captures."""
        self._backend = backend
        room = (self._num_slots // 2 - 2) * self._payload_capacity - _ENTRY_FIXED_SIZE
        self._budget = max(1, room // (_UNDO_FIXED_SIZE + backend.block_size))

    def _require_open(self) -> BinaryIO:
        if self._file is None:
            raise JournalError("journal is closed")
        return self._file

    def _checkpoint_floor(self) -> int:
        # Never kill a recorded-but-uncommitted entry: its records are
        # exactly what recovery needs if the process dies mid-plan.
        if self._pending:
            return min(self._pending) - 1
        return self._next_seq - 1

    def _write_record(
        self,
        kind: int,
        entry_id: int,
        aux: int,
        fragment: bytes,
        part_index: int,
        part_count: int,
        *,
        auto_checkpoint: bool = True,
    ) -> None:
        file = self._require_open()
        seq = self._next_seq
        occupant = seq - self._num_slots
        if occupant >= 0 and occupant > self._kill_seq:
            if auto_checkpoint:
                # The live window filled the ring.  Make every committed
                # entry's effects durable, then checkpoint them away.
                if self._backend is not None and not self._backend.closed:
                    self._backend.flush()
                self.checkpoint()
                seq = self._next_seq
                occupant = seq - self._num_slots
            if occupant >= 0 and occupant > self._kill_seq:
                raise JournalError(
                    f"journal ring full: {len(self._pending)} uncommitted entries span "
                    f"all {self._num_slots} slots; commit more often or enlarge the journal"
                )
        iv = _derive_iv(self._key, seq)
        body = bytearray()
        body += seq.to_bytes(8, "big")
        body += bytes([kind])
        body += entry_id.to_bytes(8, "big")
        body += aux.to_bytes(8, "big", signed=True)
        body += part_index.to_bytes(4, "big")
        body += part_count.to_bytes(4, "big")
        body += len(fragment).to_bytes(4, "big")
        body += fragment
        body += bytes(self._record_size - _IV_SIZE - _DIGEST_SIZE - len(body))
        body = bytes(body)
        sealed = self._cipher.encrypt(iv, _digest(iv, body) + body)
        file.seek((seq % self._num_slots) * self._record_size)
        file.write(iv + sealed)
        self._next_seq = seq + 1

    @property
    def _payload_capacity(self) -> int:
        return self._record_size - _HEADER_SIZE

    def record(self, plan: IoPlan) -> None:
        """Persist what rollback reads: the plan's label and its before-images.

        One before-image per distinct block the plan writes, captured
        strictly before the plan's first device request (the
        write-ahead contract), so they are the pre-plan bytes rollback
        must restore.  The label is padded to a fixed width (a wider
        one raises :class:`JournalError` before any record is written)
        and no step is persisted, so the records appended depend only
        on how many blocks the plan writes.  A plan with no write
        target has nothing to roll back, so it is not journalled at
        all: no entry, no commit marker, no place in :attr:`entries`.
        """
        self._require_open()
        if self._backend is None:
            raise JournalError("bind() a block backend before recording plans")
        targets = dict.fromkeys(index for step in plan.steps for index in write_targets(step))
        if not targets:
            return
        undo = [(index, self._backend.read(index)) for index in targets]
        payload = _encode_entry(plan.label, undo)
        capacity = self._payload_capacity
        fragments = [payload[i : i + capacity] for i in range(0, len(payload), capacity)]
        entry_id = self._next_seq
        # Register before writing parts: an auto-checkpoint triggered by
        # a later part must not kill the earlier ones.
        self._pending.append(entry_id)
        try:
            for part_index, fragment in enumerate(fragments):
                self._write_record(_KIND_ENTRY, entry_id, 0, fragment, part_index, len(fragments))
        except BaseException:
            # The entry is torn: its plan never starts, so nothing may
            # keep its parts alive or commit them later.
            self._pending.remove(entry_id)
            raise
        self._require_open().flush()
        super().record(plan)

    def mark_committed(self) -> None:
        """Write a commit marker for every pending entry (their I/O landed)."""
        self._require_open()
        for entry_id in list(self._pending):
            self._write_record(_KIND_COMMIT, entry_id, 0, b"", 0, 1)
        self._pending.clear()
        self._require_open().flush()

    def checkpoint(self) -> None:
        """Advance the kill sequence over every committed entry and trim.

        Called by the service on ``flush()``/``close()``; also invoked
        automatically when the ring fills.  Never advances past an
        uncommitted entry, and clears the in-memory mirror of the
        entries it retired.
        """
        self._require_open()
        self._kill_seq = max(self._kill_seq, self._checkpoint_floor())
        self._write_record(_KIND_CHECKPOINT, 0, self._kill_seq, b"", 0, 1, auto_checkpoint=False)
        self.clear()
        self._require_open().flush()

    def recover(self, backend: BlockBackend) -> RecoveryReport:
        """Roll every complete, uncommitted entry back to its before-images.

        Newest first, so overlapping writes unwind to the oldest
        pre-image.  The restores are plain sealed-ciphertext block
        writes issued directly against the backend — no accounting, no
        trace, no PRNG draws — so recovery is invisible to both the
        trace adversary and the PRNG-twin check.  Idempotent: a crash
        during recovery leaves the entries uncommitted and the next
        open simply rolls them back again.
        """
        self._require_open()
        restored = 0
        labels: list[str] = []
        for entry in sorted(self._uncommitted, key=lambda e: e.entry_id, reverse=True):
            for index, raw in reversed(entry.undo):
                backend.write(index, raw)
                restored += 1
            labels.append(entry.label)
        if restored:
            backend.flush()
        scanned, valid, complete, committed, incomplete = self._scan_stats
        report = RecoveryReport(
            scanned_slots=scanned,
            valid_records=valid,
            live_entries=complete,
            committed_entries=committed,
            incomplete_entries=incomplete,
            rolled_back=tuple(labels),
            restored_blocks=restored,
        )
        self._uncommitted = []
        self._pending = []
        # Only now is it safe to retire the rolled-back entries.
        self.checkpoint()
        return report

    def flush(self) -> None:
        """Push buffered records to the file."""
        self._require_open().flush()

    def close(self) -> None:
        """Flush and release the sidecar; idempotent."""
        file, self._file = self._file, None
        if file is not None:
            file.flush()
            file.close()
