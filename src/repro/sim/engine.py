"""Round-robin multi-user simulation and the concurrent-serving scenario.

The paper's concurrency experiments run 1–32 users against one disk.
The essential effect is that the disk head services one block request
per user in turn, so each user's logically sequential file is physically
interleaved with everyone else's — random I/O for everybody once the
user count is non-trivial.

Jobs are generators that perform one block operation per ``next()``.
The simulator advances them round-robin and records, per job, the
simulated time between its first and last operation.

:class:`ConcurrencyScenario` is the declarative description of the
*threaded* analogue: real OS worker threads driving the serving engine
(:class:`repro.service.ConcurrentVolumeService`) instead of generator
jobs driving the disk model.  It lives here (not in ``repro.service``)
so that the simulation layer owns every experiment-shape declaration;
``repro.service.run_experiment`` executes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import SimulationError
from repro.storage.disk import RawStorage
from repro.storage.latency import DiskLatencyModel


@dataclass
class ClientJob:
    """One simulated client: a name plus a generator of block operations."""

    name: str
    steps: Iterator[None]
    start_ms: float | None = None
    end_ms: float | None = None
    operations: int = 0
    finished: bool = False

    @property
    def elapsed_ms(self) -> float:
        """Simulated time between the job's first and last operation."""
        if self.start_ms is None or self.end_ms is None:
            raise SimulationError(f"job {self.name!r} has not completed")
        return self.end_ms - self.start_ms


@dataclass
class SimulationResult:
    """Outcome of one round-robin run."""

    jobs: list[ClientJob] = field(default_factory=list)
    total_elapsed_ms: float = 0.0

    @property
    def per_job_elapsed_ms(self) -> dict[str, float]:
        return {job.name: job.elapsed_ms for job in self.jobs}

    @property
    def mean_elapsed_ms(self) -> float:
        if not self.jobs:
            return 0.0
        return sum(job.elapsed_ms for job in self.jobs) / len(self.jobs)

    @property
    def max_elapsed_ms(self) -> float:
        if not self.jobs:
            return 0.0
        return max(job.elapsed_ms for job in self.jobs)


@dataclass(frozen=True)
class ConcurrencyScenario:
    """One declaratively specified concurrent-serving experiment.

    Where :class:`repro.service.Scenario` replays the paper's figures on
    the round-robin disk simulator, a ``ConcurrencyScenario`` drives the
    thread-safe serving engine with real worker threads:  ``users``
    sessions are enrolled (one hidden file plus one decoy each),
    ``workers`` threads submit each user's mixed read/write traffic, and
    the engine interleaves the agent's dummy stream at
    ``dummy_to_real_ratio`` dummies per real operation while batching
    adjacent block I/O per scheduling quantum.
    ``repro.service.run_experiment`` accepts it exactly like a
    :class:`~repro.service.Scenario` and reports wall-clock ``ops``,
    ``ops_per_sec`` and ``dummy_updates`` measurements plus any attacker
    verdicts.

    Attributes
    ----------
    construction:
        ``"volatile"`` or ``"nonvolatile"`` (Constructions 2 and 1).
    workers:
        Number of OS threads submitting operations concurrently.
    users:
        Number of enrolled sessions whose traffic the workers carry.
    ops_per_user:
        Real operations issued per user across the whole run.
    file_blocks:
        Size of each user's hidden file (and decoy), in data blocks.
    read_fraction:
        Probability that one operation is a byte-range read; the rest
        are byte-range writes through the Figure-6 path.
    dummy_to_real_ratio:
        The engine's dummy-to-real interleave ratio (Section 4.1.3).
    quantum:
        The engine's scheduling quantum (max requests per drain round).
    intervals:
        Number of equal slices the run is cut into; attached attacker
        probes observe after each slice (snapshot intervals).
    attackers:
        Probe names or instances, as in :class:`~repro.service.Scenario`.
    """

    construction: str = "nonvolatile"
    volume_mib: int = 8
    block_size: int = 4096
    seed: int = 0
    workers: int = 4
    users: int = 4
    ops_per_user: int = 32
    file_blocks: int = 16
    read_fraction: float = 0.7
    dummy_to_real_ratio: float = 1.0
    quantum: int = 16
    intervals: int = 4
    attackers: tuple = ()
    latency: DiskLatencyModel | None = None

    def __post_init__(self) -> None:
        if self.construction not in ("volatile", "nonvolatile"):
            raise ValueError(
                f"unknown construction {self.construction!r}; "
                "expected 'volatile' or 'nonvolatile'"
            )
        if self.workers < 1 or self.users < 1:
            raise ValueError("workers and users must both be at least 1")
        if not 0.0 <= self.read_fraction <= 1.0:
            raise ValueError("read_fraction must lie in [0, 1]")
        if self.intervals < 1:
            raise ValueError("intervals must be at least 1")


@dataclass(frozen=True)
class CrashScenario:
    """One declaratively specified crash-recovery / snapshot-diff experiment.

    A file-backed volume is served over ``intervals`` runs of the owning
    process.  Each run opens the volume, performs ``ops_per_interval``
    deterministic byte-range writes mixed with the agent's dummy stream
    at ``dummy_to_real_ratio``, and exits; runs listed in
    ``crash_intervals`` are instead killed mid-plan by a
    :class:`~repro.storage.backend.FaultInjectingBackend` (optionally
    tearing the doomed write).  A snapshot-diff adversary images the
    volume file after every run and
    ``repro.service.run_experiment`` reports the change-rate series,
    the adversary's best-threshold advantage against its crash
    hypothesis, and whether every crashed run recovered to readable
    old-or-new file contents.

    Attributes
    ----------
    construction:
        ``"volatile"`` or ``"nonvolatile"`` (Constructions 2 and 1).
    intervals:
        Number of process runs (one volume image after each, plus the
        post-format baseline image).
    ops_per_interval:
        Byte-range writes issued per run.
    file_blocks:
        Size of the hidden file the writes target, in data blocks.
    dummy_to_real_ratio:
        Dummy updates accrued per real write (Section 4.1.3).
    crash_intervals:
        Which runs (0-based) are killed mid-plan.
    crash_call_index:
        Device-call index within the final write at which the armed
        injector fires (0 = the write's first device call).
    torn_write:
        Whether the doomed call additionally tears its block
        (:class:`~repro.storage.backend.TornWrite`) instead of dying
        cleanly between calls.
    """

    construction: str = "nonvolatile"
    volume_mib: int = 1
    block_size: int = 512
    seed: int = 0
    intervals: int = 6
    ops_per_interval: int = 4
    file_blocks: int = 8
    dummy_to_real_ratio: float = 1.0
    crash_intervals: tuple = (2, 4)
    crash_call_index: int = 0
    torn_write: bool = True
    latency: DiskLatencyModel | None = None

    def __post_init__(self) -> None:
        if self.construction not in ("volatile", "nonvolatile"):
            raise ValueError(
                f"unknown construction {self.construction!r}; "
                "expected 'volatile' or 'nonvolatile'"
            )
        if self.intervals < 1:
            raise ValueError("intervals must be at least 1")
        if self.ops_per_interval < 1 or self.file_blocks < 1:
            raise ValueError("ops_per_interval and file_blocks must be at least 1")
        if self.dummy_to_real_ratio < 0:
            raise ValueError("dummy_to_real_ratio must be non-negative")
        if self.crash_call_index < 0:
            raise ValueError("crash_call_index must be non-negative")
        for interval in self.crash_intervals:
            if not 0 <= interval < self.intervals:
                raise ValueError(
                    f"crash interval {interval} outside the {self.intervals} runs"
                )


class RoundRobinSimulator:
    """Interleaves client jobs one block operation at a time on a shared disk."""

    def __init__(self, storage: RawStorage):
        self.storage = storage

    def run(self, jobs: list[ClientJob]) -> SimulationResult:
        """Drive all jobs to completion, one step per job per round."""
        if not jobs:
            return SimulationResult(jobs=[], total_elapsed_ms=0.0)
        storage = self.storage
        started = storage.clock_ms
        active = list(jobs)
        while active:
            anyone_finished = False
            for job in active:
                if job.start_ms is None:
                    job.start_ms = storage.clock_ms
                try:
                    next(job.steps)
                    job.operations += 1
                    job.end_ms = storage.clock_ms
                except StopIteration:
                    if job.end_ms is None:
                        job.end_ms = storage.clock_ms
                    job.finished = True
                    anyone_finished = True
            # The round-robin order is stable, so the active list only needs
            # rebuilding on the (rare) rounds where some job completed.
            if anyone_finished:
                active = [job for job in active if not job.finished]
        return SimulationResult(jobs=list(jobs), total_elapsed_ms=storage.clock_ms - started)
