"""Integration tests: end-to-end scenarios spanning several subsystems.

These tests exercise the claims of the paper rather than individual
modules: the update-analysis attacker wins against the unprotected
systems and loses against StegHide; the traffic-analysis attacker wins
against plain StegFS reads and loses against the oblivious store; a
coerced user can produce a deniable view of his keys.
"""

from __future__ import annotations

import pytest

from repro import HiddenVolumeService
from repro.attacks.observer import SnapshotObserver, TraceObserver
from repro.attacks.traffic_analysis import TrafficAnalysisAttacker
from repro.attacks.update_analysis import UpdateAnalysisAttacker
from repro.baselines.cleandisk import CleanDiskFileSystem
from repro.core.nonvolatile import NonVolatileAgent
from repro.core.oblivious.reader import ObliviousReader
from repro.core.oblivious.store import ObliviousStore, ObliviousStoreConfig
from repro.crypto.keys import FileAccessKey
from repro.crypto.prng import Sha256Prng
from repro.errors import HiddenFileNotFoundError
from repro.stegfs.filesystem import StegFsVolume
from repro.storage.device import RawDevice, split_volume
from repro.storage.trace import IoTrace
from repro.workloads.tableupdate import SalaryTable, TableUpdateWorkload

from conftest import make_storage


class TestUpdateAnalysisEndToEnd:
    """The Figure-1 scenario: snapshots betray a conventional system, not StegHide."""

    def _run_salary_updates(self, adapter, storage, updates=12, intervals=6):
        prng = Sha256Prng("salary-run")
        workload = TableUpdateWorkload(adapter, SalaryTable.generate(400, prng.spawn("table")))
        observer = SnapshotObserver(storage)
        observer.observe("t0")
        for interval in range(intervals):
            workload.run_random_updates(updates // intervals or 1, prng.spawn(f"i{interval}"))
            observer.observe(f"t{interval + 1}")
        return observer.changed_blocks_per_interval()

    def test_cleandisk_updates_are_detected(self):
        storage = make_storage(num_blocks=2048)
        adapter = CleanDiskFileSystem(storage)
        changed = self._run_salary_updates(adapter, storage)
        attacker = UpdateAnalysisAttacker(num_blocks=storage.geometry.num_blocks)
        assert attacker.analyse(changed).suspects_hidden_activity

    def test_steghide_updates_with_dummies_are_not_detected(self):
        prng = Sha256Prng("steghide-e2e")
        storage = make_storage(num_blocks=2048)
        volume = StegFsVolume(RawDevice(storage), prng.spawn("volume"))
        agent = NonVolatileAgent(volume, prng.spawn("agent"))
        fak = FileAccessKey.generate(prng.spawn("fak"))
        table = SalaryTable.generate(400, prng.spawn("table"))
        handle = agent.create_file(fak, "/db/sal_table", table.serialise())

        observer = SnapshotObserver(storage)
        observer.observe("t0")
        workload_prng = prng.spawn("updates")
        for interval in range(6):
            # Two real row updates mixed with dummy updates, as the agent does.
            for _ in range(2):
                name, _ = table.rows[workload_prng.randrange(len(table.rows))]
                table.set_salary(name, 30_000 + workload_prng.randrange(200_000))
                serialised = table.serialise()
                offset = table.row_offset(name)
                first = offset // volume.data_field_bytes
                last = (offset + 63) // volume.data_field_bytes
                for logical in range(first, last + 1):
                    start = logical * volume.data_field_bytes
                    agent.update_block(
                        handle, logical, serialised[start : start + volume.data_field_bytes]
                    )
            agent.idle(6)
            observer.observe(f"t{interval + 1}")

        attacker = UpdateAnalysisAttacker(num_blocks=storage.geometry.num_blocks)
        verdict = attacker.analyse(observer.changed_blocks_per_interval())
        assert not verdict.suspects_hidden_activity
        # And the table still reads back correctly.
        assert SalaryTable.deserialise(agent.read_file(handle)).rows == table.rows

    def test_dummy_only_intervals_look_like_busy_intervals(self):
        """Idle periods with dummy updates are indistinguishable from busy periods."""
        service = HiddenVolumeService.create("nonvolatile", volume_mib=4, seed=11)
        session = service.login(service.new_keyring("dba"))
        session.create("/f", b"d" * service.volume.data_field_bytes * 8)
        observer = SnapshotObserver(service.storage)

        busy_counts, idle_counts = [], []
        observer.observe()
        for interval in range(8):
            if interval % 2 == 0:
                session.write("/f", b"real update", at=0)
                service.idle(3)
            else:
                service.idle(4)
            observer.observe()
            diff = observer.diffs()[-1]
            (busy_counts if interval % 2 == 0 else idle_counts).append(diff.change_count)

        attacker = UpdateAnalysisAttacker(num_blocks=service.storage.geometry.num_blocks)
        assert attacker.activity_correlation(busy_counts, idle_counts) < 0.2


class TestTrafficAnalysisEndToEnd:
    def test_plain_stegfs_sequential_reads_are_detected(self):
        prng = Sha256Prng("traffic-plain")
        storage = make_storage(num_blocks=2048)
        volume = StegFsVolume(RawDevice(storage), prng.spawn("volume"))
        fak = FileAccessKey.generate(prng.spawn("fak"))
        handle = volume.create_file(fak, "/f", b"x" * volume.data_field_bytes * 64)
        observer = TraceObserver(storage)
        observer.start()
        for _ in range(5):
            volume.read_file(handle)
        attacker = TrafficAnalysisAttacker(num_blocks=storage.geometry.num_blocks)
        verdict = attacker.analyse(observer.capture())
        # Re-reading the same scattered blocks five times gives repeated
        # addresses and a skewed distribution: the attacker wins.
        assert verdict.suspects_hidden_activity

    def test_oblivious_store_reads_are_not_detected(self):
        prng = Sha256Prng("traffic-oblivious")
        storage = make_storage(num_blocks=4096)
        steg_part, obli_part = split_volume(storage, 2048)
        volume = StegFsVolume(steg_part, prng.spawn("volume"))
        fak = FileAccessKey.generate(prng.spawn("fak"))
        handle = volume.create_file(fak, "/f", b"x" * volume.data_field_bytes * 48)
        store = ObliviousStore(
            obli_part,
            ObliviousStoreConfig(buffer_blocks=8, last_level_blocks=256),
            prng.spawn("store"),
        )
        reader = ObliviousReader(volume, store, prng.spawn("reader"))

        # Warm the cache, then observe repeated reads of the same file.
        reader.read_file(handle)
        observer = TraceObserver(storage)
        observer.start()
        for _ in range(3):
            reader.read_file(handle)
        observed = observer.capture()
        # The attacker's reference: dummy reads through the same store.
        observer.start()
        for _ in range(3 * handle.num_blocks):
            reader.dummy_oblivious_read()
        reference = observer.capture()

        # The re-order (sort) traffic is request-independent bulk I/O; the
        # distinguishing question is whether the *probe* pattern of real
        # reads differs from that of dummy reads (Definition 1).
        def probes(trace):
            return IoTrace([e for e in trace.reads() if not e.stream.endswith("-sort")])

        attacker = TrafficAnalysisAttacker(num_blocks=storage.geometry.num_blocks)
        observed_verdict = attacker.analyse(probes(observed), probes(reference))
        reference_verdict = attacker.analyse(probes(reference))
        assert observed_verdict.advantage_vs_reference < 0.25
        assert observed_verdict.sequential_run_fraction < 0.2
        assert abs(
            observed_verdict.sequential_run_fraction
            - reference_verdict.sequential_run_fraction
        ) < 0.1


class TestPlausibleDeniability:
    def test_disclosed_dummy_view_cannot_open_real_file_content(self):
        service = HiddenVolumeService.create("volatile", volume_mib=4, seed=21)
        secret_content = b"the real secret" * 100
        alice = service.login(service.new_keyring("alice"))
        alice.create("/alice/secret", secret_content)
        alice.create_decoy("/alice/decoy", size_bytes=len(secret_content))
        keyring = alice.keyring

        # Under coercion Alice reveals only the deniable view and walks away.
        disclosed = alice.deniable_view()
        assert all(k.content_key is None for k in disclosed.all_keys().values())
        alice.logout()

        # The coercer can log in and open the files as dummies but never
        # sees the plaintext.
        coercer = service.login(disclosed)
        leaked = coercer.read("/alice/secret")
        assert secret_content not in leaked
        coercer.logout()

        # Alice herself can still recover everything with the true keys.
        alice = service.login(keyring)
        assert alice.read("/alice/secret") == secret_content

    def test_without_any_key_files_are_undiscoverable(self):
        service = HiddenVolumeService.create("volatile", volume_mib=4, seed=22)
        session = service.login(service.new_keyring("alice"))
        session.create("/alice/secret", b"hidden")
        stranger_key = FileAccessKey.generate(service.prng.spawn("stranger"))
        with pytest.raises(HiddenFileNotFoundError):
            service.volume.open_file(stranger_key, "/alice/secret")
