"""Declarative experiments: one entrypoint for systems, workloads and attackers.

Every evaluation in the paper is the same sentence: *build one of the
Table-3 systems, run a workload against it (alone or with N concurrent
users), and measure time and/or let an attacker watch*.  A
:class:`Scenario` states that sentence declaratively and
:func:`run_experiment` executes it, unifying
:func:`repro.sim.builders.build_system`, the workload generators, the
:class:`~repro.sim.engine.RoundRobinSimulator` and the attacker classes
behind one call::

    result = run_experiment(
        Scenario(
            system="StegHide",
            volume_mib=16,
            files=(FileSpec("/bench/target", 512 * 1024),),
            utilisation=0.25,
            workload=Updates(count=20, range_blocks=(1, 2, 3, 4, 5)),
        )
    )
    result.series(["range=1", "range=5"])   # -> [ms, ms]

Each benchmark module then shrinks to a scenario declaration plus shape
assertions on the returned measurements.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Union

from repro.attacks.observer import SnapshotObserver, TraceObserver
from repro.attacks.traffic_analysis import TrafficAnalysisAttacker
from repro.attacks.update_analysis import UpdateAnalysisAttacker
from repro.crypto.prng import Sha256Prng
from repro.errors import WorkloadError
from repro.sim.builders import SYSTEM_LABELS, SystemUnderTest, build_system
from repro.sim.engine import (
    ClientJob,
    ConcurrencyScenario,
    CrashScenario,
    RoundRobinSimulator,
    SimulationResult,
)
from repro.storage.latency import DiskLatencyModel
from repro.workloads.filegen import FileSpec
from repro.workloads.retrieval import file_read_job, measure_file_read
from repro.workloads.tableupdate import SalaryTable, TableUpdateWorkload
from repro.workloads.update import (
    block_update_job,
    measure_range_update,
    random_update_requests,
)

# -- workload declarations ---------------------------------------------------------


@dataclass(frozen=True)
class Retrieval:
    """Whole-file reads (the Figure-10 workload).

    With a single user each target is read once and measured separately
    (keyed by its path).  With a concurrency sweep, user ``i`` reads
    ``targets[i]`` and the disk serves everyone round-robin (keyed
    ``"users=N"``).
    """

    targets: tuple[str, ...] | None = None


@dataclass(frozen=True)
class Updates:
    """Random block updates (the Figure-11 workload).

    With a single user, ``count`` updates of ``range_blocks`` consecutive
    blocks are issued at random starting positions and their mean cost is
    recorded; ``range_blocks`` may be a tuple to sweep the update range
    against one built system (keyed ``"range=N"``).  With a concurrency
    sweep, each user issues one ``range_blocks``-block update against his
    own target file (keyed ``"users=N"``).
    """

    count: int = 1
    range_blocks: int | tuple[int, ...] = 1
    targets: tuple[str, ...] | None = None
    seed: str = "updates"


@dataclass(frozen=True)
class TableUpdates:
    """The Figure-1 salary-table scenario: row updates observed in intervals.

    A fixed-width table is stored through the system's adapter; each
    interval issues ``updates_per_interval`` random row updates (plus
    optional idle dummy updates when the system has an agent) and then
    lets any attached attacker observe.  The byte-to-block translation
    is the workload's job — callers never do block math.
    """

    rows: int = 500
    intervals: int = 8
    updates_per_interval: int = 3
    idle_dummy_updates: int = 0
    path: str = "/db/sal_table"
    seed: str = "table"


Workload = Union[Retrieval, Updates, TableUpdates]


# -- attacker probes ---------------------------------------------------------------


class UpdateAnalysisProbe:
    """Snapshot-diffing attacker attached to a scenario (Section 4.1.4).

    Takes a snapshot before the workload and after every interval, then
    renders an :class:`~repro.attacks.update_analysis.UpdateAnalysisAttacker`
    verdict.
    """

    name = "update-analysis"

    def __init__(self) -> None:
        self._observer: SnapshotObserver | None = None

    def start(self, system: SystemUnderTest) -> None:
        self._observer = SnapshotObserver(system.storage)
        self._observer.observe()

    def interval(self, system: SystemUnderTest) -> None:
        assert self._observer is not None
        self._observer.observe()

    def finish(self, system: SystemUnderTest) -> Any:
        assert self._observer is not None
        attacker = UpdateAnalysisAttacker(num_blocks=system.storage.geometry.num_blocks)
        return attacker.analyse(self._observer.changed_blocks_per_interval())


class TrafficAnalysisProbe:
    """Request-trace attacker attached to a scenario (Section 3.2.2)."""

    name = "traffic-analysis"

    def __init__(self) -> None:
        self._observer: TraceObserver | None = None

    def start(self, system: SystemUnderTest) -> None:
        self._observer = TraceObserver(system.storage)
        self._observer.start()

    def interval(self, system: SystemUnderTest) -> None:
        return None

    def finish(self, system: SystemUnderTest) -> Any:
        assert self._observer is not None
        attacker = TrafficAnalysisAttacker(num_blocks=system.storage.geometry.num_blocks)
        return attacker.analyse(self._observer.capture())


_PROBES = {
    UpdateAnalysisProbe.name: UpdateAnalysisProbe,
    TrafficAnalysisProbe.name: TrafficAnalysisProbe,
}


def _make_probes(specs: tuple) -> list:
    probes = []
    for spec in specs:
        if isinstance(spec, str):
            try:
                probes.append(_PROBES[spec]())
            except KeyError:
                raise WorkloadError(
                    f"unknown attacker {spec!r}; expected one of {sorted(_PROBES)}"
                ) from None
        else:
            probes.append(spec)
    return probes


# -- the scenario and its result ---------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """One declaratively specified experiment.

    Attributes
    ----------
    system:
        A Table-3 label (``repro.sim.builders.SYSTEM_LABELS``).
    files:
        Files created at build time; empty means the builder's default.
    utilisation:
        Target space utilisation for the steganographic systems.
    users:
        A single user count (measured directly) or a tuple of counts (a
        concurrency sweep through the round-robin simulator).
    workload:
        A :class:`Retrieval`, :class:`Updates` or :class:`TableUpdates`.
    attackers:
        Probe names (``"update-analysis"``, ``"traffic-analysis"``) or
        probe instances observing the run.
    """

    system: str
    volume_mib: int = 32
    block_size: int = 4096
    files: tuple[FileSpec, ...] = ()
    utilisation: float | None = None
    seed: int = 0
    users: int | tuple[int, ...] = 1
    workload: Workload | None = None
    attackers: tuple = ()
    latency: DiskLatencyModel | None = None

    def __post_init__(self) -> None:
        if self.system not in SYSTEM_LABELS:
            raise ValueError(
                f"unknown system label {self.system!r}; expected one of {SYSTEM_LABELS}"
            )


@dataclass
class ExperimentResult:
    """Everything one scenario run produced.

    ``measurements`` maps point labels (a target path, ``"users=N"`` or
    ``"range=N"``) to simulated milliseconds; ``verdicts`` maps attacker
    names to their verdict objects; ``simulations`` keeps the raw
    round-robin results of a concurrency sweep.  For a
    :class:`~repro.sim.engine.ConcurrencyScenario`, ``system`` is the
    :class:`~repro.service.HiddenVolumeService` that served the run and
    the measurements are wall-clock (``ops``, ``ops_per_sec``,
    ``dummy_updates``).  For a
    :class:`~repro.sim.engine.CrashScenario`, ``system`` is the (closed)
    service of the final verification run, the measurements count
    ``ops``, ``crashes``, ``mean_change_fraction``, ``advantage`` and
    ``recovered_bytes``, and ``verdicts["snapshot-diff"]`` holds the
    adversary's :class:`~repro.attacks.SnapshotDiffVerdict`.
    """

    scenario: Scenario | ConcurrencyScenario | CrashScenario
    system: SystemUnderTest | Any
    measurements: dict[str, float] = field(default_factory=dict)
    verdicts: dict[str, Any] = field(default_factory=dict)
    simulations: dict[int, SimulationResult] = field(default_factory=dict)

    @property
    def mean_ms(self) -> float:
        """Mean over all measurement points (the value of a one-point run)."""
        if not self.measurements:
            return 0.0
        return sum(self.measurements.values()) / len(self.measurements)

    def series(self, keys: list) -> list[float]:
        """Measurements for ``keys``, in order (for sweep tables)."""
        return [self.measurements[str(key)] for key in keys]

    def verdict(self, name: str) -> Any:
        """The verdict of one attached attacker."""
        return self.verdicts[name]


# -- the runner --------------------------------------------------------------------


def _user_levels(users: int | tuple[int, ...]) -> tuple[tuple[int, ...], bool]:
    """Normalise the ``users`` field; the bool says whether to simulate."""
    if isinstance(users, tuple):
        return users, True
    if users != 1:
        return (users,), True
    return (1,), False


def _per_user_targets(
    system: SystemUnderTest, targets: tuple[str, ...] | None, needed: int
) -> list[str]:
    names = list(targets) if targets is not None else list(system.handles)
    if len(names) < needed:
        raise WorkloadError(
            f"{needed} users need {needed} target files but only {len(names)} are available"
        )
    return names


def _run_retrieval(
    scenario: Scenario,
    system: SystemUnderTest,
    workload: Retrieval,
    result: ExperimentResult,
    probes,
) -> None:
    levels, simulate = _user_levels(scenario.users)
    if not simulate:
        targets = workload.targets or tuple(system.handles)
        for target in targets:
            elapsed = measure_file_read(system.adapter, system.handle(target))
            result.measurements[target] = elapsed
            for probe in probes:
                probe.interval(system)
        return
    names = _per_user_targets(system, workload.targets, max(levels))
    for level in levels:
        system.storage.reset_counters()
        jobs = [
            ClientJob(
                f"user{i}",
                file_read_job(system.adapter, system.handle(names[i]), f"user{i}"),
            )
            for i in range(level)
        ]
        sim = RoundRobinSimulator(system.storage).run(jobs)
        result.simulations[level] = sim
        result.measurements[f"users={level}"] = sim.mean_elapsed_ms
        for probe in probes:
            probe.interval(system)


def _run_updates(
    scenario: Scenario, system: SystemUnderTest, workload: Updates, result: ExperimentResult, probes
) -> None:
    levels, simulate = _user_levels(scenario.users)
    label = scenario.system
    if not simulate:
        ranges = (
            workload.range_blocks
            if isinstance(workload.range_blocks, tuple)
            else (workload.range_blocks,)
        )
        sweep_ranges = len(ranges) > 1
        targets = workload.targets or (next(iter(system.handles)),)
        for target in targets:
            handle = system.handle(target)
            for range_blocks in ranges:
                prng = Sha256Prng(f"{workload.seed}:{label}:{target}:{range_blocks}")
                starts = random_update_requests(handle, workload.count, prng, range_blocks)
                total = 0.0
                for request_index, start in enumerate(starts):
                    total += measure_range_update(
                        system.adapter, handle, start, range_blocks, seed=request_index
                    )
                if not sweep_ranges:
                    key = target
                elif len(targets) > 1:
                    key = f"{target}|range={range_blocks}"
                else:
                    key = f"range={range_blocks}"
                result.measurements[key] = total / max(1, workload.count)
                for probe in probes:
                    probe.interval(system)
        return
    if isinstance(workload.range_blocks, tuple):
        raise WorkloadError("a concurrency sweep needs a single update range per scenario")
    range_blocks = workload.range_blocks
    names = _per_user_targets(system, workload.targets, max(levels))
    for level in levels:
        system.storage.reset_counters()
        jobs = []
        for user in range(level):
            handle = system.handle(names[user])
            upper = handle.num_blocks - range_blocks + 1
            if upper <= 0:
                raise WorkloadError(
                    f"file {names[user]!r} too small for a {range_blocks}-block update"
                )
            start = Sha256Prng(f"{workload.seed}:{label}:{level}:{user}").randrange(upper)
            jobs.append(
                ClientJob(
                    f"user{user}",
                    block_update_job(
                        system.adapter,
                        handle,
                        start,
                        range_blocks,
                        seed=user,
                        stream=f"user{user}",
                    ),
                )
            )
        sim = RoundRobinSimulator(system.storage).run(jobs)
        result.simulations[level] = sim
        result.measurements[f"users={level}"] = sim.mean_elapsed_ms
        for probe in probes:
            probe.interval(system)


def _run_table_updates(
    scenario: Scenario,
    system: SystemUnderTest,
    workload: TableUpdates,
    result: ExperimentResult,
    probes,
) -> None:
    prng = Sha256Prng(f"{workload.seed}:{scenario.system}")
    table = SalaryTable.generate(workload.rows, prng.spawn("rows"))
    runner = TableUpdateWorkload(system.adapter, table, name=workload.path)
    # Attackers observe steady-state update activity, not the initial load.
    for probe in probes:
        probe.start(system)
    update_prng = prng.spawn("updates")
    touched = 0
    for _ in range(workload.intervals):
        touched += len(runner.run_random_updates(workload.updates_per_interval, update_prng))
        if workload.idle_dummy_updates and system.agent is not None:
            system.agent.idle(workload.idle_dummy_updates)
        for probe in probes:
            probe.interval(system)
    result.measurements["blocks-touched"] = float(touched)


def _concurrency_ops(
    scenario: ConcurrencyScenario, user: str, file_size: int
) -> list[tuple[str, int, int]]:
    """The deterministic mixed op stream of one user: (kind, at, size)."""
    prng = Sha256Prng(f"concurrency:{scenario.seed}:{user}")
    ops: list[tuple[str, int, int]] = []
    for _ in range(scenario.ops_per_user):
        size = 1 + prng.randrange(max(1, min(file_size, 3 * scenario.block_size)))
        at = prng.randrange(max(1, file_size - size + 1))
        kind = "read" if prng.random() < scenario.read_fraction else "write"
        ops.append((kind, at, size))
    return ops


def _run_concurrency_scenario(scenario: ConcurrencyScenario) -> ExperimentResult:
    """Drive the thread-safe serving engine with real worker threads.

    Lives here (not in :mod:`repro.sim.engine`) because it needs the
    service facade; the declarative shape stays with the simulation
    layer.  Latency defaults to the facade's paper-era disk model; the
    reported ``ops_per_sec`` is wall-clock engine throughput, not
    simulated milliseconds.
    """
    from repro.service.facade import HiddenVolumeService

    service = HiddenVolumeService.create(
        scenario.construction,
        volume_mib=scenario.volume_mib,
        seed=scenario.seed,
        block_size=scenario.block_size,
        latency=scenario.latency,
    )
    engine = service.concurrent(
        dummy_to_real_ratio=scenario.dummy_to_real_ratio,
        quantum=scenario.quantum,
    )
    result = ExperimentResult(scenario=scenario, system=service)
    probes = _make_probes(scenario.attackers)

    content_prng = Sha256Prng(f"concurrency-content:{scenario.seed}")
    file_size = scenario.file_blocks * service.volume.data_field_bytes
    sessions = []
    streams: dict[str, list[tuple[str, int, int]]] = {}
    for index in range(scenario.users):
        user = f"user{index}"
        session = engine.login(service.new_keyring(user))
        session.create(f"/{user}/data", content_prng.spawn(user).random_bytes(file_size))
        session.create_decoy(f"/{user}/decoy", size_bytes=file_size)
        sessions.append(session)
        streams[user] = _concurrency_ops(scenario, user, file_size)

    # Attackers observe steady-state serving, not the enrolment burst.
    engine.idle(0)  # quiesce the enrolment ops' trailing dummy bursts
    for probe in probes:
        probe.start(service)

    write_prng = Sha256Prng(f"concurrency-writes:{scenario.seed}")
    errors: list[BaseException] = []
    executed = 0
    elapsed = 0.0
    try:
        per_interval = -(-scenario.ops_per_user // scenario.intervals)
        for interval in range(scenario.intervals):
            lo = interval * per_interval
            hi = min(scenario.ops_per_user, lo + per_interval)
            tasks = [
                (session, streams[session.user][position])
                for position in range(lo, hi)
                for session in sessions
            ]
            task_iter = iter(tasks)
            task_lock = threading.Lock()

            def worker() -> None:
                while True:
                    with task_lock:
                        try:
                            session, (kind, at, size) = next(task_iter)
                        except StopIteration:
                            return
                    try:
                        if kind == "read":
                            session.read(f"/{session.user}/data", at=at, size=size)
                        else:
                            payload = write_prng.spawn(f"{session.user}:{at}").random_bytes(size)
                            session.write(f"/{session.user}/data", payload, at=at)
                    except BaseException as error:  # pragma: no cover - surfaced below
                        errors.append(error)
                        return

            threads = [threading.Thread(target=worker) for _ in range(scenario.workers)]
            began = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            elapsed += time.perf_counter() - began
            executed += len(tasks)
            if errors:
                raise errors[0]
            # Quiesce before observing: an op's dummy burst runs after
            # its fulfilment, so without this barrier a snapshot could
            # race the scheduler's trailing device writes.
            engine.idle(0)
            for probe in probes:
                probe.interval(service)

        result.measurements["ops"] = float(executed)
        result.measurements["ops_per_sec"] = executed / elapsed if elapsed > 0 else float("inf")
        result.measurements["dummy_updates"] = float(engine.stats.dummy_updates)
        for probe in probes:
            result.verdicts[probe.name] = probe.finish(service)
        return result
    finally:
        # The engine owns a scheduler thread; never leak it (the trace
        # and counters stay readable on the closed service).
        engine.close()


def _run_crash_scenario(scenario: CrashScenario) -> ExperimentResult:
    """Serve a durable volume across process runs, killing some mid-plan.

    Each interval is one "process": open the volume file, log the owner
    in, issue deterministic byte-range writes interleaved with the dummy
    stream, and exit.  Crash intervals die inside their final write via
    an armed :class:`~repro.storage.backend.FaultInjectingBackend`
    (optionally tearing the doomed block), after which the volume and
    journal handles are simply dropped — no flush, no logout — exactly
    as a killed process leaves them.  The snapshot-diff adversary images
    the volume file between runs; a final clean run proves the file is
    still readable after recovery.
    """
    import pathlib
    import shutil
    import tempfile

    from repro.attacks.snapshot_diff import SnapshotDiffAttacker
    from repro.crypto.keys import KeyRing
    from repro.errors import InjectedCrashError
    from repro.service.facade import HiddenVolumeService
    from repro.storage.backend import BlockBackend, FaultInjectingBackend, TornWrite
    from repro.storage.snapshot import Snapshot

    workdir = tempfile.mkdtemp(prefix="crash-scenario-")
    volume_path = f"{workdir}/volume.img"
    try:
        service = HiddenVolumeService.create(
            scenario.construction,
            volume_mib=scenario.volume_mib,
            seed=scenario.seed,
            block_size=scenario.block_size,
            latency=scenario.latency,
            path=volume_path,
        )
        try:
            session = service.login(service.new_keyring("owner"))
            file_size = scenario.file_blocks * service.volume.data_field_bytes
            content_prng = Sha256Prng(f"crash-content:{scenario.seed}")
            session.create("/crash/data", content_prng.random_bytes(file_size))
            ring_json = session.keyring.to_json()
            service.flush()
        finally:
            service.close()

        def image(label: str) -> Snapshot:
            return Snapshot.of_bytes(
                pathlib.Path(volume_path).read_bytes(), scenario.block_size, label=label
            )

        snapshots = [image("format")]
        crash_flags: list[bool] = []
        ops = 0
        crashes = 0
        for interval in range(scenario.intervals):
            crash_here = interval in scenario.crash_intervals
            injector: FaultInjectingBackend | None = None

            def wrap(backend: BlockBackend) -> BlockBackend:
                nonlocal injector
                injector = FaultInjectingBackend(backend)
                return injector

            op_prng = Sha256Prng(f"crash-ops:{scenario.seed}:{interval}")
            dummy_credit = 0.0
            crashed = False
            svc = HiddenVolumeService.open(
                volume_path,
                scenario.construction,
                seed=scenario.seed,
                block_size=scenario.block_size,
                latency=scenario.latency,
                session_nonce=f"crash:{interval}",
                wrap_backend=wrap if crash_here else None,
            )
            try:
                sess = svc.login(KeyRing.from_json(ring_json))
                payload_bytes = svc.volume.data_field_bytes
                for op in range(scenario.ops_per_interval):
                    size = 1 + op_prng.randrange(payload_bytes)
                    at = op_prng.randrange(file_size - size + 1)
                    data = op_prng.random_bytes(size)
                    doomed = crash_here and op == scenario.ops_per_interval - 1
                    if doomed and injector is not None:
                        injector.arm(
                            scenario.crash_call_index,
                            TornWrite() if scenario.torn_write else None,
                        )
                    sess.write("/crash/data", data, at=at)
                    ops += 1
                    dummy_credit += scenario.dummy_to_real_ratio
                    if dummy_credit >= 1.0:
                        burst = int(dummy_credit)
                        dummy_credit -= burst
                        svc.idle(burst)
                if injector is not None:
                    injector.disarm()
                svc.flush()
                svc.close()
            except InjectedCrashError:
                # The crash may land in the doomed write itself or in
                # the dummy burst / flush that follows it — whichever
                # device call the index falls on.  Either way the
                # process is dead: drop the mapping and the journal
                # handle without flushing or saving.
                crashed = True
                crashes += 1
                svc.storage.close()
                if svc.journal is not None:
                    svc.journal.close()
            except BaseException:
                # An unexpected error is a harness bug, not a simulated
                # crash: release the raw handles, then let it propagate.
                svc.storage.close()
                if svc.journal is not None:
                    svc.journal.close()
                raise
            crash_flags.append(crashed)
            snapshots.append(image(f"interval:{interval}"))

        # Final clean run: recovery must have left the file readable.
        final = HiddenVolumeService.open(
            volume_path,
            scenario.construction,
            seed=scenario.seed,
            block_size=scenario.block_size,
            latency=scenario.latency,
            session_nonce="crash:final",
        )
        final_session = final.login(KeyRing.from_json(ring_json))
        recovered = final_session.read("/crash/data")
        final.close()

        attacker = SnapshotDiffAttacker(num_blocks=snapshots[0].num_blocks)
        verdict = attacker.analyse(snapshots, crash_flags=crash_flags)
        result = ExperimentResult(scenario=scenario, system=final)
        result.measurements["ops"] = float(ops)
        result.measurements["crashes"] = float(crashes)
        result.measurements["mean_change_fraction"] = verdict.mean_change_fraction
        result.measurements["advantage"] = verdict.advantage
        result.measurements["recovered_bytes"] = float(len(recovered))
        result.verdicts["snapshot-diff"] = verdict
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_experiment(
    scenario: Scenario | ConcurrencyScenario | CrashScenario,
) -> ExperimentResult:
    """Build the system, run the workload, collect measurements and verdicts."""
    if isinstance(scenario, CrashScenario):
        return _run_crash_scenario(scenario)
    if isinstance(scenario, ConcurrencyScenario):
        return _run_concurrency_scenario(scenario)
    system = build_system(
        scenario.system,
        volume_mib=scenario.volume_mib,
        block_size=scenario.block_size,
        file_specs=list(scenario.files) if scenario.files else None,
        target_utilisation=scenario.utilisation,
        seed=scenario.seed,
        latency=scenario.latency,
    )
    result = ExperimentResult(scenario=scenario, system=system)
    probes = _make_probes(scenario.attackers)
    workload = scenario.workload

    # TableUpdates manages its own probe start (after the table is loaded).
    if not isinstance(workload, TableUpdates):
        for probe in probes:
            probe.start(system)

    if workload is None:
        pass
    elif isinstance(workload, Retrieval):
        _run_retrieval(scenario, system, workload, result, probes)
    elif isinstance(workload, Updates):
        _run_updates(scenario, system, workload, result, probes)
    elif isinstance(workload, TableUpdates):
        _run_table_updates(scenario, system, workload, result, probes)
    else:
        raise WorkloadError(f"unsupported workload type {type(workload).__name__}")

    for probe in probes:
        result.verdicts[probe.name] = probe.finish(system)
    return result
