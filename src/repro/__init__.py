"""repro: a reproduction of "Hiding Data Accesses in Steganographic File System".

Zhou, Pang and Tan (ICDE 2004) extend a steganographic file system with
two mechanisms that hide *data accesses*: an update-hiding agent that
relocates blocks and mixes in dummy updates (defeating snapshot/update
analysis), and a hierarchical oblivious storage that hides read traffic
(defeating traffic analysis).  This package implements both mechanisms,
the StegFS substrate they build on, the baselines and attackers of the
paper's evaluation, and the workloads and benchmarks that regenerate the
paper's tables and figures on a simulated block device.

Quickstart
----------
>>> from repro import HiddenVolumeService
>>> service = HiddenVolumeService.create("volatile", volume_mib=16, seed=7)
>>> session = service.login(service.new_keyring("alice"))
>>> session.create("/secret/report.txt", b"top secret")  # doctest: +ELLIPSIS
FileStat(...)
>>> session.read("/secret/report.txt")
b'top secret'

Experiments are declared, not hand-wired:

>>> from repro import Scenario, Retrieval, run_experiment  # doctest: +SKIP
>>> run_experiment(Scenario(system="StegHide", workload=Retrieval()))  # doctest: +SKIP
"""

from __future__ import annotations

from repro.core.agent import StegAgent, UpdateResult
from repro.core.journal import JournalBackend
from repro.core.nonvolatile import NonVolatileAgent
from repro.core.oblivious import (
    ObliviousCostModel,
    ObliviousReader,
    ObliviousStore,
    ObliviousStoreConfig,
    oblivious_height,
    overhead_factor,
)
from repro.core.plan import IoPlan, PlanJournal, PlannedOp
from repro.core.volatile import VolatileAgent
from repro.crypto import AES, CbcCipher, FastFieldCipher, FileAccessKey, KeyRing, Sha256Prng
from repro.errors import HiddenFileExistsError, HiddenFileNotFoundError
from repro.service import (
    ConcurrencyScenario,
    ConcurrentSession,
    ConcurrentVolumeService,
    CrashScenario,
    EngineStats,
    ExperimentResult,
    FileStat,
    HiddenVolumeService,
    ObliviousConfig,
    Retrieval,
    Scenario,
    Session,
    TableUpdates,
    TrafficAnalysisProbe,
    UpdateAnalysisProbe,
    Updates,
    run_experiment,
)
from repro.stegfs import StegFsVolume, VolumeConfig, create_dummy_file
from repro.storage import (
    BlockBackend,
    DiskLatencyModel,
    FaultInjectingBackend,
    IoTrace,
    MemoryBackend,
    MmapFileBackend,
    Partition,
    RawDevice,
    RawStorage,
    StorageGeometry,
    TornWrite,
    ZeroLatencyModel,
    diff_snapshots,
    take_snapshot,
)
from repro.workloads.filegen import FileSpec

__version__ = "4.0.0"

__all__ = [
    # -- session-oriented service facade (the primary public surface)
    "HiddenVolumeService",
    "Session",
    "FileStat",
    "ObliviousConfig",
    # -- concurrent serving engine
    "ConcurrentVolumeService",
    "ConcurrentSession",
    "EngineStats",
    # -- declarative experiments
    "Scenario",
    "ConcurrencyScenario",
    "CrashScenario",
    "Retrieval",
    "Updates",
    "TableUpdates",
    "UpdateAnalysisProbe",
    "TrafficAnalysisProbe",
    "ExperimentResult",
    "run_experiment",
    "FileSpec",
    # -- declarative I/O-plan kernel (plan -> fuse -> execute)
    "IoPlan",
    "PlannedOp",
    "PlanJournal",
    "JournalBackend",
    # -- constructions and substrate (advanced / internal-facing surface)
    "StegAgent",
    "UpdateResult",
    "NonVolatileAgent",
    "VolatileAgent",
    "ObliviousStore",
    "ObliviousStoreConfig",
    "ObliviousReader",
    "ObliviousCostModel",
    "oblivious_height",
    "overhead_factor",
    "AES",
    "CbcCipher",
    "FastFieldCipher",
    "FileAccessKey",
    "KeyRing",
    "Sha256Prng",
    "StegFsVolume",
    "VolumeConfig",
    "create_dummy_file",
    "RawStorage",
    "RawDevice",
    "Partition",
    "BlockBackend",
    "MemoryBackend",
    "MmapFileBackend",
    "FaultInjectingBackend",
    "TornWrite",
    "HiddenFileNotFoundError",
    "HiddenFileExistsError",
    "StorageGeometry",
    "DiskLatencyModel",
    "ZeroLatencyModel",
    "IoTrace",
    "take_snapshot",
    "diff_snapshots",
]
