"""The three workloads: their shapes, seeded inputs, closed-loop drivers and checks.

Every workload drives the public serving API — ``HiddenVolumeService``,
``Session`` and ``ConcurrentVolumeService`` — in a closed loop: each
client issues its next operation when the previous one returns.  All
operations and payloads are generated from the seed before any clock
starts; a client replays its stream from the start when it runs out.
Every read is checked against an in-benchmark byte model of its file.

The shapes differ in op size, concurrency, durability, construction and
volume utilisation, so that each serving layer dominates one workload
and sits nearly idle in another (see ``perfbench/README.md``).
"""

from __future__ import annotations

import gc
import hashlib
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from repro import HiddenVolumeService, KeyRing
from repro.errors import InjectedCrashError
from repro.storage.backend import FaultInjectingBackend, TornWrite
from repro.storage.block import BLOCK_IV_SIZE

KIB = 1024
MIB = 1024 * KIB


@dataclass(frozen=True)
class Shape:
    """Everything that defines one workload except its seed and duration.

    Why each workload exists is recorded in ``BENCHMARK.json``.
    """

    name: str
    construction: str
    volume_mib: int
    block_size: int
    users: int
    files_per_user: int
    file_bytes: int
    decoy_bytes: int
    #: 0 drives one ``Session`` per user from the calling thread; n > 0
    #: drives ``service.concurrent()`` from n client threads, each owning
    #: ``users // n`` sessions that it serves round-robin.
    clients: int
    read_share: float
    max_span: int
    warmup_ops: int
    #: Operations generated per client before the clock starts.
    pool_ops: int
    durable: bool = False
    flush_every: int = 0
    crash_cycles: int = 0
    #: Volumes built per plain run; ``setup_s`` is their median.  Cheap
    #: builds get more of them: the shorter a build, the noisier it times.
    setups: int = 5

    @property
    def deterministic(self) -> bool:
        """Whether one seed gives one device trace (no thread interleaving)."""
        return self.clients == 0

    @property
    def payload_bytes(self) -> int:
        return self.block_size - BLOCK_IV_SIZE


SHAPES: dict[str, Shape] = {
    shape.name: shape
    for shape in (
        Shape(
            name="engine-mixed",
            construction="volatile",
            volume_mib=2,
            block_size=512,
            users=8,
            files_per_user=1,
            file_bytes=16_000,
            decoy_bytes=16_000,
            clients=2,
            read_share=0.8,
            max_span=1024,
            warmup_ops=400,
            pool_ops=20_000,
            setups=15,
        ),
        Shape(
            name="session-bulk",
            construction="nonvolatile",
            volume_mib=64,
            block_size=4096,
            users=1,
            files_per_user=4,
            file_bytes=MIB,
            decoy_bytes=MIB,
            clients=0,
            read_share=0.7,
            max_span=64 * KIB,
            warmup_ops=200,
            pool_ops=2048,
        ),
        Shape(
            name="durable-journal",
            construction="nonvolatile",
            volume_mib=8,
            block_size=4096,
            users=1,
            files_per_user=4,
            file_bytes=MIB,
            decoy_bytes=MIB,
            clients=0,
            read_share=0.3,
            max_span=16 * KIB,
            warmup_ops=128,
            pool_ops=2048,
            durable=True,
            flush_every=32,
            crash_cycles=15,
            setups=7,
        ),
    )
}


# -- inputs ----------------------------------------------------------------------------


class Op(NamedTuple):
    """One closed-loop operation: a read (``payload is None``) or a write."""

    session: int
    file: int
    at: int
    size: int
    payload: bytes | None


@dataclass(frozen=True)
class Inputs:
    """Everything a run feeds the program, generated from the seed."""

    contents: list[list[bytes]]  # [user][file] initial file bytes
    streams: list[list[Op]]  # [client] operation stream
    crash_writes: list[Op]  # one doomed write per crash cycle


def file_path(user: int, index: int) -> str:
    return f"/user{user}/file{index}"


def decoy_path(user: int) -> str:
    return f"/user{user}/decoy"


def make_inputs(shape: Shape, seed: int) -> Inputs:
    """Generate file contents, op streams and crash writes for one seed."""
    rng = random.Random(f"perfbench:{shape.name}:{seed}")
    contents = [
        [rng.randbytes(shape.file_bytes) for _ in range(shape.files_per_user)]
        for _ in range(shape.users)
    ]
    clients = max(1, shape.clients)
    per_client = shape.users // clients
    streams = []
    for client in range(clients):
        stream = []
        for position in range(shape.pool_ops):
            session = client * per_client + position % per_client
            size = rng.randint(1, shape.max_span)
            at = rng.randrange(shape.file_bytes - size + 1)
            payload = None if rng.random() < shape.read_share else rng.randbytes(size)
            stream.append(Op(session, rng.randrange(shape.files_per_user), at, size, payload))
        streams.append(stream)
    # A doomed write sits inside one block and starts past its first byte:
    # its boundary read is device call 0, so arm(1) kills the first device
    # call of its single Figure-6 plan, after the journal recorded it.
    crash_writes = []
    payload_bytes = shape.payload_bytes
    for _ in range(shape.crash_cycles):
        block = rng.randrange(shape.file_bytes // payload_bytes)
        offset = rng.randint(1, payload_bytes - 1)
        size = rng.randint(1, payload_bytes - offset)
        index = rng.randrange(shape.files_per_user)
        crash_writes.append(Op(0, index, block * payload_bytes + offset, size, rng.randbytes(size)))
    return Inputs(contents, streams, crash_writes)


# -- a built volume --------------------------------------------------------------------


@dataclass
class Instance:
    """One freshly built volume with every user logged in and every file created."""

    shape: Shape
    seed: int
    service: Any
    engine: Any
    sessions: list[Any]
    models: list[list[bytearray]]
    setup_s: float
    volume_path: Path | None = None
    keyrings: list[str] = field(default_factory=list)
    decoys: list[bytes] = field(default_factory=list)

    def close(self) -> None:
        (self.engine or self.service).close()

    def remove_files(self) -> None:
        if self.volume_path is not None:
            for path in (self.volume_path, Path(f"{self.volume_path}.journal")):
                if path.exists():
                    path.unlink()


def build(shape: Shape, seed: int, inputs: Inputs, workdir: Path, label: str) -> Instance:
    """Create, format, log in and create every file; time it as ``setup_s``."""
    volume_path = workdir / f"{label}.img" if shape.durable else None
    started = time.perf_counter()
    service = HiddenVolumeService.create(
        shape.construction,
        volume_mib=shape.volume_mib,
        seed=seed,
        block_size=shape.block_size,
        path=volume_path,
    )
    engine = service.concurrent() if shape.clients else None
    front = engine or service
    sessions = []
    for user in range(shape.users):
        session = front.login(service.new_keyring(f"user{user}"))
        for index, content in enumerate(inputs.contents[user]):
            session.create(file_path(user, index), content)
        if shape.decoy_bytes:
            session.create_decoy(decoy_path(user), shape.decoy_bytes)
        sessions.append(session)
    if shape.durable:
        service.flush()
    setup_s = time.perf_counter() - started
    instance = Instance(
        shape=shape,
        seed=seed,
        service=service,
        engine=engine,
        sessions=sessions,
        models=[[bytearray(content) for content in files] for files in inputs.contents],
        setup_s=setup_s,
        volume_path=volume_path,
    )
    if shape.durable:
        instance.keyrings = [session.keyring.to_json() for session in sessions]
        instance.decoys = [session.read(decoy_path(user)) for user, session in enumerate(sessions)]
    return instance


def device_digest(instance: Instance) -> str:
    """SHA-256 over the (op, index, stream) trace rows and the volume bytes."""
    storage = instance.service.storage
    trace = storage.trace
    digest = hashlib.sha256()
    digest.update(trace.op_column().tobytes())
    digest.update(trace.index_column().tobytes())
    names = trace.stream_names
    digest.update("\0".join(names[code] for code in trace.stream_codes().tolist()).encode())
    digest.update(storage.raw_bytes())
    return digest.hexdigest()


# -- closed-loop driving ---------------------------------------------------------------


@dataclass
class Tally:
    """What one client saw: when each op returned, its latency, and every failure."""

    ended: list[float] = field(default_factory=list)  # clock when each op returned
    latency: list[float] = field(default_factory=list)  # call to return, s; nan if it raised
    is_read: list[bool] = field(default_factory=list)
    cpu: list[float] = field(default_factory=list)  # process CPU clock at each return
    flushes: list[float] = field(default_factory=list)
    done: int = 0
    raised: int = 0
    wrong: int = 0
    bytes_written: int = 0
    finished: float = 0.0
    probed: tuple[float, int] | None = None  # (probe value, ops done when taken)

    @property
    def failed(self) -> int:
        return self.raised + self.wrong


def _drive(
    instance: Instance,
    ops: list[Op],
    start: int,
    count: int | None,
    deadline: list[float],
    ready: threading.Event,
    tally: Tally,
    probe: tuple[int, Callable[[], float]] | None = None,
) -> None:
    """Issue ``ops[start:]`` (repeating) until ``count`` ops or ``deadline[0]``.

    ``probe = (n, read)`` calls ``read()`` once, after the ``n``-th op.
    """
    shape = instance.shape
    sessions = instance.sessions
    models = instance.models
    paths = [
        [file_path(user, index) for index in range(shape.files_per_user)]
        for user in range(shape.users)
    ]
    flush = instance.service.flush if shape.flush_every else None
    clock = time.perf_counter
    cpu_clock = time.process_time
    pool = len(ops)
    probe_at, read_probe = probe if probe is not None else (-1, None)
    ready.wait()
    stop = deadline[0]
    position = start
    while count is None or tally.done < count:
        session, index, at, size, payload = ops[position % pool]
        position += 1
        model = models[session][index]
        began = clock()
        try:
            if payload is None:
                data = sessions[session].read(paths[session][index], at, size)
                ended = clock()
                if data != model[at : at + size]:
                    tally.wrong += 1
            else:
                sessions[session].write(paths[session][index], payload, at)
                ended = clock()
                model[at : at + size] = payload
                tally.bytes_written += size
            latency = ended - began
        except Exception:
            ended = clock()
            latency = float("nan")
            tally.raised += 1
        tally.ended.append(ended)
        tally.latency.append(latency)
        tally.is_read.append(payload is None)
        tally.cpu.append(cpu_clock())
        tally.done += 1
        if tally.done == probe_at:
            tally.probed = (read_probe(), probe_at)
        if flush is not None and position % shape.flush_every == 0:
            began = clock()
            try:
                flush()
            except Exception:
                tally.raised += 1
            ended = clock()
            tally.flushes.append(ended - began)
        if ended >= stop:
            break
    tally.finished = clock()


@dataclass
class Phase:
    """One driven phase: per-client tallies plus wall and process CPU time."""

    tallies: list[Tally]
    started: float
    ended: float
    cpu_started: float  # process CPU clock when the phase started
    cpu_ended: float  # ... and when it ended

    @property
    def wall_s(self) -> float:
        return max(tally.finished for tally in self.tallies) - self.started

    @property
    def done(self) -> int:
        return sum(tally.done for tally in self.tallies)

    @property
    def failed(self) -> int:
        return sum(tally.failed for tally in self.tallies)

    @property
    def counts(self) -> list[int]:
        return [tally.done for tally in self.tallies]

    @property
    def bytes_written(self) -> int:
        return sum(tally.bytes_written for tally in self.tallies)

    @property
    def probed(self) -> tuple[float, int] | None:
        """The first client's probe reading, if it got that far."""
        return self.tallies[0].probed

    def column(self, name: str) -> np.ndarray:
        """One per-op column of every client, concatenated."""
        columns = [np.asarray(getattr(tally, name), dtype=float) for tally in self.tallies]
        return np.concatenate(columns)


def run_phase(
    instance: Instance,
    inputs: Inputs,
    start: int,
    *,
    seconds: float | None = None,
    counts: list[int] | None = None,
    probe: tuple[int, Callable[[], float]] | None = None,
) -> Phase:
    """Drive every client from stream position ``start``.

    Stops after ``seconds`` of wall time, or after exactly ``counts[c]``
    operations of client ``c`` (for a traced replay of a timed phase).
    ``probe`` is handed to the first client (see :func:`_drive`).
    Engine phases end with ``idle(0)``, the engine's barrier, so the
    trailing dummy burst of the last batch belongs to the phase.
    """
    gc.collect()
    shape = instance.shape
    clients = len(inputs.streams)
    tallies = [Tally() for _ in range(clients)]
    deadline = [float("inf")]
    ready = threading.Event()

    def args(client: int) -> tuple[Any, ...]:
        count = None if counts is None else counts[client]
        return (instance, inputs.streams[client], start, count, deadline, ready, tallies[client],
                probe if client == 0 else None)

    cpu_started = time.process_time()
    if shape.clients == 0:
        started = time.perf_counter()
        if seconds is not None:
            deadline[0] = started + seconds
        ready.set()
        _drive(*args(0))
        ended = time.perf_counter()
    else:
        threads = [
            threading.Thread(target=_drive, args=args(client), name=f"perfbench-client-{client}")
            for client in range(clients)
        ]
        for thread in threads:
            thread.start()
        started = time.perf_counter()
        if seconds is not None:
            deadline[0] = started + seconds
        ready.set()
        limit = (seconds or 0.0) + 120.0
        for thread in threads:
            thread.join(timeout=limit)
            if thread.is_alive():
                raise RuntimeError(f"{thread.name} did not finish within {limit:.0f} s")
        instance.engine.idle(0)
        ended = time.perf_counter()
    return Phase(tallies, started, ended, cpu_started, time.process_time())


# -- end-of-run checks -----------------------------------------------------------------


def dummy_ratio_holds(instance: Instance) -> bool:
    """The engine issued ``dummy_to_real_ratio`` dummies per real op, within one credit."""
    engine = instance.engine
    engine.idle(0)
    stats = engine.stats
    return abs(stats.dummy_updates - engine.dummy_to_real_ratio * stats.real_ops) <= 1


@dataclass
class CrashCycles:
    """Recovery timings and check outcomes of the crash cycles."""

    recovery_s: list[float] = field(default_factory=list)
    windows: list[tuple[float, float]] = field(default_factory=list)
    failed: int = 0


def crash_cycles(instance: Instance, inputs: Inputs) -> CrashCycles:
    """Kill a write mid-plan, then time ``open()`` + ``login()``, once per crash write.

    The instance must be closed.  Every cycle reopens the volume behind a
    ``FaultInjectingBackend`` armed to tear device call 1, issues its
    doomed write, abandons the service the way a dead process would,
    and reopens it — which rolls the torn plan back.  Afterwards every
    file must equal the byte model, so the doomed range reads its old
    bytes.
    """
    shape = instance.shape
    out = CrashCycles()
    expected = {file_path(0, index): bytes(model) for index, model in enumerate(instance.models[0])}
    expected[decoy_path(0)] = instance.decoys[0]
    for cycle, (_, index, at, _, payload) in enumerate(inputs.crash_writes):
        injectors: list[FaultInjectingBackend] = []

        def wrap(backend: Any, injectors: list[FaultInjectingBackend] = injectors) -> Any:
            injectors.append(FaultInjectingBackend(backend))
            return injectors[-1]

        try:
            doomed = HiddenVolumeService.open(
                instance.volume_path,
                shape.construction,
                seed=instance.seed,
                block_size=shape.block_size,
                session_nonce=f"crash-{cycle}",
                wrap_backend=wrap,
            )
            session = doomed.login(KeyRing.from_json(instance.keyrings[0]))
            injectors[0].arm(1, TornWrite())
            died = False
            try:
                session.write(file_path(0, index), payload, at)
            except InjectedCrashError:
                died = True
            doomed.storage.close()
            doomed.journal.close()

            began = time.perf_counter()
            recovered = HiddenVolumeService.open(
                instance.volume_path,
                shape.construction,
                seed=instance.seed,
                block_size=shape.block_size,
                session_nonce=f"recover-{cycle}",
            )
            session = recovered.login(KeyRing.from_json(instance.keyrings[0]))
            ended = time.perf_counter()
            intact = all(session.read(path) == content for path, content in expected.items())
            recovered.close()
        except Exception:
            out.failed += 1
            continue
        out.recovery_s.append(ended - began)
        out.windows.append((began, ended))
        if not (died and intact):
            out.failed += 1
    return out
