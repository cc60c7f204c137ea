"""API-surface snapshot: accidental exports and plumbing leaks fail CI.

Two guarantees:

* ``repro.__all__`` (and the service package's surface) is pinned
  exactly — adding or removing a public name is a deliberate,
  reviewed change to this file, never an accident;
* the examples and the Figure-10/11 benchmarks stay on the public
  session/scenario API — no ``_faks``, ``data_field_bytes`` or manual
  ``FileAccessKey`` wiring outside ``src/repro/``.
"""

from __future__ import annotations

import pathlib

import pytest

import repro
import repro.service

REPO_ROOT = pathlib.Path(__file__).parent.parent

EXPECTED_TOP_LEVEL = [
    "AES",
    "BlockBackend",
    "CbcCipher",
    "ConcurrencyScenario",
    "ConcurrentSession",
    "ConcurrentVolumeService",
    "CrashScenario",
    "DiskLatencyModel",
    "EngineStats",
    "ExperimentResult",
    "FastFieldCipher",
    "FaultInjectingBackend",
    "FileAccessKey",
    "FileSpec",
    "FileStat",
    "HiddenFileExistsError",
    "HiddenFileNotFoundError",
    "HiddenVolumeService",
    "IoPlan",
    "IoTrace",
    "JournalBackend",
    "KeyRing",
    "MemoryBackend",
    "MmapFileBackend",
    "NonVolatileAgent",
    "ObliviousConfig",
    "ObliviousCostModel",
    "ObliviousReader",
    "ObliviousStore",
    "ObliviousStoreConfig",
    "Partition",
    "PlanJournal",
    "PlannedOp",
    "RawDevice",
    "RawStorage",
    "Retrieval",
    "Scenario",
    "Session",
    "Sha256Prng",
    "StegAgent",
    "StegFsVolume",
    "StorageGeometry",
    "TableUpdates",
    "TornWrite",
    "TrafficAnalysisProbe",
    "UpdateAnalysisProbe",
    "UpdateResult",
    "Updates",
    "VolatileAgent",
    "VolumeConfig",
    "ZeroLatencyModel",
    "create_dummy_file",
    "diff_snapshots",
    "oblivious_height",
    "overhead_factor",
    "run_experiment",
    "take_snapshot",
]

EXPECTED_SERVICE = [
    "CONSTRUCTIONS",
    "ConcurrencyScenario",
    "ConcurrentSession",
    "ConcurrentVolumeService",
    "CrashScenario",
    "EngineStats",
    "ExperimentResult",
    "FileStat",
    "HiddenVolumeService",
    "ObliviousConfig",
    "Retrieval",
    "Scenario",
    "Session",
    "TableUpdates",
    "TrafficAnalysisProbe",
    "UpdateAnalysisProbe",
    "Updates",
    "run_experiment",
]


class TestExportSnapshot:
    def test_top_level_all_is_pinned(self):
        assert sorted(repro.__all__) == EXPECTED_TOP_LEVEL

    def test_service_all_is_pinned(self):
        assert sorted(repro.service.__all__) == EXPECTED_SERVICE

    def test_every_export_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None
        for name in repro.service.__all__:
            assert getattr(repro.service, name) is not None

    def test_no_duplicate_exports(self):
        assert len(repro.__all__) == len(set(repro.__all__))


class TestDeprecatedErrorAliases:
    """The pre-2.0 alias names are gone; unknown names raise as usual."""

    def test_unknown_attribute_still_raises(self):
        import repro.errors

        with pytest.raises(AttributeError):
            repro.errors.NoSuchError  # noqa: B018


# The examples and the Figure-10/11 benchmarks must speak the public
# session/scenario API only.
BANNED_TOKENS = ("_faks", "data_field_bytes", "FileAccessKey")
CLEAN_FILES = [
    "examples/quickstart.py",
    "examples/durable_volume.py",
    "examples/multiuser_agent.py",
    "examples/oblivious_reads.py",
    "examples/salary_database.py",
    "examples/concurrent_server.py",
    "examples/crash_recovery.py",
    "benchmarks/test_concurrent_throughput.py",
    "benchmarks/test_crash_recovery_bench.py",
    "benchmarks/test_fig10a_retrieval_filesize.py",
    "benchmarks/test_fig10b_retrieval_concurrency.py",
    "benchmarks/test_fig11a_update_utilisation.py",
    "benchmarks/test_fig11b_update_range.py",
    "benchmarks/test_fig11c_update_concurrency.py",
]


class TestNoPlumbingOutsideCore:
    @pytest.mark.parametrize("relative", CLEAN_FILES)
    def test_file_uses_public_api_only(self, relative):
        source = (REPO_ROOT / relative).read_text(encoding="utf-8")
        for token in BANNED_TOKENS:
            assert token not in source, f"{relative} references internal plumbing {token!r}"
