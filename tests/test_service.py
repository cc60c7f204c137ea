"""Tests for the session-oriented service facade and the scenario runner.

The heart of this module is the trace-equivalence property: a
``Session.write`` over any byte range must issue a device trace
bit-identical to the equivalent hand-wired sequence of raw
``agent.read_block`` boundary fetches plus one ``agent.update_range``
call — the facade adds expressiveness, never observable behaviour.
"""

from __future__ import annotations

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.errors import (
    ByteRangeError,
    ServiceError,
    SessionClosedError,
    SessionConflictError,
    WorkloadError,
)
from repro.service import (
    HiddenVolumeService,
    ObliviousConfig,
    Retrieval,
    Scenario,
    TableUpdates,
    Updates,
    run_experiment,
)
from repro.storage.latency import ZeroLatencyModel
from repro.workloads.filegen import FileSpec

SECRET = b"the merger closes on friday; tell no one.\n" * 120  # ~5 KiB


def make_service(seed: int = 7, construction: str = "volatile") -> HiddenVolumeService:
    """A small, zero-latency service for fast tests."""
    return HiddenVolumeService.create(
        construction, volume_mib=1, seed=seed, block_size=512, latency=ZeroLatencyModel()
    )


def enrolled_session(service: HiddenVolumeService, user: str = "alice"):
    session = service.login(service.new_keyring(user))
    session.create(f"/{user}/secret", SECRET)
    session.create_decoy(f"/{user}/decoy", size_bytes=len(SECRET))
    return session


class TestSessionLifecycle:
    def test_login_opens_all_keyring_files(self):
        service = make_service()
        session = enrolled_session(service)
        keyring = session.keyring
        session.logout()
        again = service.login(keyring)
        assert again.paths == ["/alice/decoy", "/alice/secret"]
        assert again.read("/alice/secret") == SECRET

    def test_logout_forgets_keys_and_blocks(self):
        service = make_service()
        session = enrolled_session(service)
        assert service.disclosed_block_count() > 0
        assert service.logged_in_users == ["alice"]
        session.logout()
        assert not session.active
        assert service.logged_in_users == []
        # The agent retains nothing: no known blocks, no selection space.
        assert len(service.agent.known_blocks) == 0
        assert service.disclosed_block_count() == 0

    def test_operations_after_logout_raise(self):
        service = make_service()
        session = enrolled_session(service)
        session.logout()
        with pytest.raises(SessionClosedError):
            session.read("/alice/secret")
        with pytest.raises(SessionClosedError):
            session.write("/alice/secret", b"x")
        with pytest.raises(SessionClosedError):
            session.logout()

    def test_double_login_conflicts(self):
        service = make_service()
        session = enrolled_session(service)
        with pytest.raises(SessionConflictError):
            service.login(session.keyring)

    def test_unknown_path_raises(self):
        service = make_service()
        session = service.login(service.new_keyring("alice"))
        with pytest.raises(ServiceError):
            session.read("/nope")

    def test_concurrent_sessions_widen_dummy_selection_space(self):
        service = make_service()
        alice = enrolled_session(service, "alice")
        after_alice_blocks = service.disclosed_block_count()
        after_alice_dummies = service.disclosed_dummy_block_count()
        assert after_alice_dummies > 0

        bob = enrolled_session(service, "bob")
        assert service.disclosed_block_count() > after_alice_blocks
        assert service.disclosed_dummy_block_count() > after_alice_dummies
        assert service.logged_in_users == ["alice", "bob"]

        bob.logout()
        assert service.disclosed_block_count() == after_alice_blocks
        assert service.disclosed_dummy_block_count() == after_alice_dummies
        alice.logout()
        assert service.disclosed_block_count() == 0


class TestDelete:
    def test_delete_frees_bitmap_blocks_without_device_io(self):
        service = make_service()
        session = enrolled_session(service)
        stat = session.stat("/alice/secret")
        allocator = service.volume.allocator
        occupied = allocator.used_blocks
        trace_before = len(service.storage.trace)
        counters_before = service.storage.counters.snapshot()

        session.delete("/alice/secret")

        # Freed: every data block plus the header chain (>= 1 block).
        freed = occupied - allocator.used_blocks
        assert freed >= stat.num_blocks + 1
        # The paper's guarantee: deletion is invisible on the device —
        # zero I/O events, zero counter movement.
        assert len(service.storage.trace) == trace_before
        assert service.storage.counters.delta(counters_before).total_ops == 0

    def test_delete_removes_path_and_key(self):
        service = make_service()
        session = enrolled_session(service)
        session.delete("/alice/secret")
        assert session.paths == ["/alice/decoy"]
        assert "/alice/secret" not in session.keyring.all_keys()
        with pytest.raises(ServiceError):
            session.read("/alice/secret")
        # The ring no longer locates the file after a fresh login either.
        keyring = session.keyring
        session.logout()
        again = service.login(keyring)
        assert again.paths == ["/alice/decoy"]

    def test_delete_decoy_shrinks_dummy_selection_space(self):
        service = make_service()
        session = enrolled_session(service)
        dummies_before = service.disclosed_dummy_block_count()
        assert dummies_before > 0
        session.delete("/alice/decoy")
        assert service.disclosed_dummy_block_count() < dummies_before
        assert "/alice/decoy" not in session.keyring.all_keys()

    def test_deleted_blocks_are_reusable(self):
        service = make_service()
        session = service.login(service.new_keyring("alice"))
        session.create("/alice/a", SECRET)
        free_before_delete = service.volume.allocator.free_blocks
        session.delete("/alice/a")
        assert service.volume.allocator.free_blocks > free_before_delete
        # The freed space accommodates a new file of the same size.
        session.create("/alice/b", SECRET)
        assert session.read("/alice/b") == SECRET

    def test_delete_unknown_path_raises(self):
        service = make_service()
        session = enrolled_session(service)
        with pytest.raises(ServiceError):
            session.delete("/alice/never-created")


class TestByteGranularIo:
    def test_write_and_read_roundtrip_across_blocks(self):
        service = make_service()
        session = enrolled_session(service)
        oracle = bytearray(SECRET)
        # A write that straddles several 496-byte payload blocks.
        session.write("/alice/secret", b"X" * 1500, at=100)
        oracle[100:1600] = b"X" * 1500
        assert session.read("/alice/secret") == bytes(oracle)
        assert session.read("/alice/secret", at=99, size=3) == bytes(oracle[99:102])

    def test_write_beyond_extent_rejected(self):
        service = make_service()
        session = enrolled_session(service)
        with pytest.raises(ByteRangeError):
            session.write("/alice/secret", b"x", at=len(SECRET))
        with pytest.raises(ByteRangeError):
            session.read("/alice/secret", at=0, size=len(SECRET) + 1)
        with pytest.raises(ByteRangeError):
            session.write("/alice/secret", b"x", at=-1)

    def test_append_grows_file_byte_granularly(self):
        service = make_service()
        session = service.login(service.new_keyring("alice"))
        session.create("/alice/log", b"day one\n")
        session.create_decoy("/alice/decoy", size_bytes=4096)
        oracle = bytearray(b"day one\n")
        for i in range(4):
            chunk = (b"day %d: nothing happened\n" % (i + 2)) * (30 * i + 1)
            session.append("/alice/log", chunk)
            oracle += chunk
        assert session.stat("/alice/log").size_bytes == len(oracle)
        assert session.read("/alice/log") == bytes(oracle)
        # The grown file survives a logout/login cycle (header was saved).
        keyring = session.keyring
        session.logout()
        session = service.login(keyring)
        assert session.read("/alice/log") == bytes(oracle)

    def test_nonvolatile_construction_supports_sessions_too(self):
        service = make_service(construction="nonvolatile")
        session = enrolled_session(service)
        session.write("/alice/secret", b"REDACTED", at=0)
        assert session.read("/alice/secret", size=8) == b"REDACTED"
        session.logout()
        assert service.logged_in_users == []


class TestCoercion:
    def test_deniable_view_marks_everything_dummy(self):
        service = make_service()
        session = enrolled_session(service)
        disclosed = session.deniable_view()
        assert set(disclosed.all_keys()) == {"/alice/secret", "/alice/decoy"}
        assert all(fak.is_dummy for fak in disclosed.all_keys().values())
        assert all(fak.content_key is None for fak in disclosed.all_keys().values())

    def test_coercer_login_never_sees_plaintext(self):
        service = make_service()
        session = enrolled_session(service)
        disclosed = session.deniable_view()
        session.logout()
        coerced = service.login(disclosed)
        leaked = coerced.read("/alice/secret")
        assert len(leaked) == len(SECRET)
        assert b"merger" not in leaked


class TestObliviousReadPath:
    def test_oblivious_reads_return_identical_content(self):
        service = HiddenVolumeService.create(
            "volatile",
            volume_mib=2,
            seed=3,
            block_size=512,
            latency=ZeroLatencyModel(),
            oblivious=ObliviousConfig(buffer_blocks=4, last_level_blocks=64),
        )
        session = service.login(service.new_keyring("bob"))
        session.create("/bob/data", SECRET)
        assert session.read("/bob/data", oblivious=True) == SECRET
        assert session.read("/bob/data", at=500, size=100, oblivious=True) == SECRET[500:600]
        service.dummy_oblivious_read()

    def test_oblivious_read_requires_config(self):
        service = make_service()
        session = enrolled_session(service)
        with pytest.raises(ServiceError):
            session.read("/alice/secret", oblivious=True)


class TestTraceEquivalence:
    """Session.write == boundary read_block fetches + one update_range."""

    @staticmethod
    def _twin(seed: int):
        service = make_service(seed=seed)
        session = service.login(service.new_keyring("u"))
        session.create("/u/f", SECRET)
        session.create_decoy("/u/d", size_bytes=len(SECRET))
        return service, session

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_session_write_trace_identical_to_raw_update_range(self, data):
        at = data.draw(st.integers(min_value=0, max_value=len(SECRET) - 1), label="at")
        length = data.draw(
            st.integers(min_value=1, max_value=len(SECRET) - at), label="length"
        )
        payload = bytes((at + i * 37) % 256 for i in range(length))

        service_a, session_a = self._twin(seed=1234)
        service_b, session_b = self._twin(seed=1234)

        mark_a = len(service_a.storage.trace)
        mark_b = len(service_b.storage.trace)

        # Facade path.
        session_a.write("/u/f", payload, at=at)

        # Equivalent hand-wired path on the bit-identical twin.
        agent = service_b.agent
        handle = session_b._handles["/u/f"]
        payload_bytes = service_b.volume.data_field_bytes
        end = at + length
        first = at // payload_bytes
        last = (end - 1) // payload_bytes
        head_pad = at - first * payload_bytes
        tail_pad = (last + 1) * payload_bytes - end
        region = bytearray()
        first_current = None
        if head_pad:
            first_current = agent.read_block(handle, first)
            region += first_current[:head_pad]
        region += payload
        if tail_pad:
            if last == first and first_current is not None:
                last_current = first_current
            else:
                last_current = agent.read_block(handle, last)
            region += last_current[payload_bytes - tail_pad :]
        payloads = [
            bytes(region[offset : offset + payload_bytes])
            for offset in range(0, len(region), payload_bytes)
        ]
        agent.update_range(handle, first, payloads)

        events_a = [
            (e.op, e.index, e.time_ms, e.stream)
            for e in service_a.storage.trace.since(mark_a)
        ]
        events_b = [
            (e.op, e.index, e.time_ms, e.stream)
            for e in service_b.storage.trace.since(mark_b)
        ]
        assert events_a == events_b
        assert events_a, "a write must issue device I/O"
        # And the resulting plaintext matches the oracle on both systems.
        oracle = SECRET[:at] + payload + SECRET[end:]
        assert session_a.read("/u/f") == oracle
        assert session_b.read("/u/f") == oracle

    @settings(max_examples=30, deadline=None)
    @given(at=st.integers(0, len(SECRET)), size=st.none() | st.integers(0, len(SECRET)))
    @example(at=0, size=None)  # the whole file
    @example(at=0, size=len(SECRET))  # the whole file, sized
    @example(at=700, size=0)
    @example(at=len(SECRET), size=None)  # empty, at the end
    def test_session_read_trace_identical_to_read_file_or_block_loop(self, at, size):
        assume(size is None or at + size <= len(SECRET))
        end = len(SECRET) if size is None else at + size
        service_a, session_a = self._twin(seed=1234)
        service_b, session_b = self._twin(seed=1234)
        mark_a = len(service_a.storage.trace)
        mark_b = len(service_b.storage.trace)

        got = session_a.read("/u/f", at=at, size=size)

        handle = session_b._handles["/u/f"]
        if at == 0 and end == len(SECRET):
            expected = service_b.volume.read_file(handle, session_b.stream)
        elif at == end:
            expected = b""
        else:
            payload_bytes = service_b.volume.data_field_bytes
            first, last = at // payload_bytes, (end - 1) // payload_bytes
            pieces = [
                service_b.agent.read_block(handle, logical, session_b.stream)
                for logical in range(first, last + 1)
            ]
            expected = b"".join(pieces)[at - first * payload_bytes : end - first * payload_bytes]

        assert got == expected == SECRET[at:end]
        events_a = [
            (e.op, e.index, e.time_ms, e.stream) for e in service_a.storage.trace.since(mark_a)
        ]
        events_b = [
            (e.op, e.index, e.time_ms, e.stream) for e in service_b.storage.trace.since(mark_b)
        ]
        assert events_a == events_b
        assert bool(events_a) == (at < end)


class TestScenarioRunner:
    def test_measured_retrieval_keys_by_target(self):
        result = run_experiment(
            Scenario(
                system="CleanDisk",
                volume_mib=4,
                files=(FileSpec("/a", 64 * 1024), FileSpec("/b", 128 * 1024)),
                workload=Retrieval(),
            )
        )
        assert set(result.measurements) == {"/a", "/b"}
        assert result.measurements["/b"] > result.measurements["/a"] > 0

    def test_concurrency_sweep_keys_by_user_count(self):
        result = run_experiment(
            Scenario(
                system="FragDisk",
                volume_mib=4,
                files=(FileSpec("/u0", 64 * 1024), FileSpec("/u1", 64 * 1024)),
                users=(1, 2),
                workload=Retrieval(),
            )
        )
        assert set(result.measurements) == {"users=1", "users=2"}
        assert result.simulations[2].total_elapsed_ms > 0
        assert result.series(["users=1", "users=2"]) == [
            result.measurements["users=1"],
            result.measurements["users=2"],
        ]

    def test_update_range_sweep(self):
        result = run_experiment(
            Scenario(
                system="StegFS",
                volume_mib=4,
                files=(FileSpec("/t", 64 * 1024),),
                workload=Updates(count=3, range_blocks=(1, 2)),
            )
        )
        assert set(result.measurements) == {"range=1", "range=2"}
        assert result.measurements["range=2"] > result.measurements["range=1"]

    def test_table_updates_with_attacker(self):
        result = run_experiment(
            Scenario(
                system="CleanDisk",
                volume_mib=4,
                files=(FileSpec("/seed", 4096),),
                latency=ZeroLatencyModel(),
                workload=TableUpdates(rows=100, intervals=3, updates_per_interval=2),
                attackers=("update-analysis",),
            )
        )
        verdict = result.verdict("update-analysis")
        assert verdict.suspects_hidden_activity is True
        assert result.measurements["blocks-touched"] >= 6

    def test_unknown_system_and_attacker_rejected(self):
        with pytest.raises(ValueError):
            Scenario(system="BogusDisk")
        with pytest.raises(WorkloadError):
            run_experiment(
                Scenario(system="CleanDisk", volume_mib=4, attackers=("psychic",))
            )

    def test_concurrency_sweep_rejects_range_tuple(self):
        with pytest.raises(WorkloadError):
            run_experiment(
                Scenario(
                    system="CleanDisk",
                    volume_mib=4,
                    files=(FileSpec("/u0", 64 * 1024),),
                    users=(1,),
                    workload=Updates(range_blocks=(1, 2)),
                )
            )
