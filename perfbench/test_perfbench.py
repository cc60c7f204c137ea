"""Tests of the benchmark's own code: tracer arithmetic, clean unwrapping, smoke runs."""

from __future__ import annotations

import dataclasses
import threading

import pytest

from perfbench import bench, layers
from perfbench.compare import verdict
from perfbench.metrics import declared
from perfbench.tracer import Target, Tracer
from perfbench.workloads import KIB, SHAPES, Shape

_MISSING = object()


class _Clock:
    """A clock that only moves when the code under trace says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


_clock = _Clock()


class _Toy:
    """``outer`` runs 1 + leaf + leaf + (another thread's leaf) + 2 time units."""

    def leaf(self) -> None:
        _clock.now += 3.0

    def outer(self, helper: threading.Thread) -> None:
        _clock.now += 1.0
        self.leaf()
        self.leaf()
        helper.start()
        helper.join(timeout=10)
        _clock.now += 2.0


def test_self_time_subtracts_only_same_thread_children():
    _clock.now = 0.0
    tracer = Tracer([Target(_Toy, "outer", "x"), Target(_Toy, "leaf", "y")], clock=_clock)
    toy = _Toy()
    with tracer:
        toy.outer(threading.Thread(target=toy.leaf, name="helper"))
    table = tracer.spans()
    names = [table.names[function] for function in table.function]
    rows = {(name, table.thread_names[int(thread)]): row
            for row, (name, thread) in enumerate(zip(names, table.thread, strict=True))}
    outer = rows[("_Toy.outer", threading.current_thread().name)]
    helper_leaf = rows[("_Toy.leaf", "helper")]
    self_time = table.self_time()

    assert table.function.size == 4
    assert table.duration[outer] == 12.0
    # The helper thread's 3 units ran inside outer's interval but on
    # another thread, so they stay in outer's self time.
    assert self_time[outer] == 12.0 - 6.0
    assert table.parent[helper_leaf] == -1
    assert self_time[helper_leaf] == 3.0
    main_leaves = [row for row, name in enumerate(names)
                   if name == "_Toy.leaf" and row != helper_leaf]
    assert [int(table.parent[row]) for row in main_leaves] == [outer, outer]
    assert list(self_time[main_leaves]) == [3.0, 3.0]
    assert "outer" in _Toy.__dict__ and not hasattr(_Toy.outer, "__wrapped__")


def _tiny(name: str) -> Shape:
    shape = SHAPES[name]
    if shape.clients:
        return dataclasses.replace(shape, volume_mib=1, users=4, file_bytes=4000,
                                   decoy_bytes=4000, warmup_ops=16, pool_ops=200, setups=2)
    return dataclasses.replace(
        shape, volume_mib=2 if shape.durable else 4, file_bytes=128 * KIB, decoy_bytes=128 * KIB,
        max_span=8 * KIB, warmup_ops=16, pool_ops=200, setups=2,
        crash_cycles=min(shape.crash_cycles, 3),
    )


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_tiny_runs_finish_without_failures(name, tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "RSS_AT_OP", 16)
    shape = _tiny(name)
    plain = bench.run_plain(shape, seed=5, seconds=0.3, workdir=tmp_path)
    traced = bench.run_traced(shape, seed=5, seconds=0.3, workdir=tmp_path, spans_dir=tmp_path)
    for record in (plain, traced):
        assert record["correct"], record["checks"]
        assert record["failed"] == 0 and record["attempted"] > 0
    benchmark = declared()
    for record, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        printed = bench.headline(record)["metrics"]
        assert {name: metric["unit"] for name, metric in printed.items()} == {
            metric["name"]: metric["unit"] for metric in benchmark[kind]
        }
    assert plain["metrics"]["ops_per_s"]["value"] > 0
    assert plain["metrics"]["peak_rss_mb"]["at_op"] == 16
    assert (tmp_path / "spans.npz").is_file()
    assert not list(tmp_path.glob("*.img"))


def test_traced_run_puts_every_wrapped_attribute_back(tmp_path):
    stored = [
        (target.owner, target.name, target.owner.__dict__.get(target.name, _MISSING))
        for target in layers.targets()
    ]
    bench.run_traced(_tiny("durable-journal"), seed=2, seconds=0.2, workdir=tmp_path,
                     spans_dir=tmp_path)
    for owner, name, original in stored:
        assert owner.__dict__.get(name, _MISSING) is original, f"{owner}.{name}"


def test_compare_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9]
    faster = [value * 1.2 for value in parent]
    assert verdict(parent, faster, "higher", 0.1)["verdict"] == "improved"
    assert verdict(parent, [value * 0.95 for value in parent], "higher", 0.1)["verdict"] == (
        "no worse"
    )
    assert verdict(parent, [value * 0.7 for value in parent], "higher", 0.1)["verdict"] == "worse"
    noisy = [50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert verdict(noisy, [value * 0.9 for value in noisy], "higher", 0.1)["verdict"] == (
        "unresolved"
    )
    row = verdict(parent, faster, "lower", 0.1)
    assert row["wins"] == 0 and row["verdict"] == "worse"


@pytest.mark.parametrize(
    ("name", "missed", "check"),
    [
        (
            "session-bulk",
            "RawStorage.read_blocks",
            "disk-layer device ops equal the IoCounters delta",
        ),
        ("durable-journal", "JournalBackend.", "every layer the workload uses recorded spans"),
    ],
)
def test_a_function_that_escapes_the_wrappers_fails_the_run(name, missed, check, tmp_path,
                                                             monkeypatch):
    everything = layers.targets
    monkeypatch.setattr(
        layers, "targets", lambda: [t for t in everything() if not t.label.startswith(missed)]
    )
    record = bench.run_traced(_tiny(name), seed=3, seconds=0.2, workdir=tmp_path,
                              spans_dir=tmp_path)
    failed = [label.split(" (")[0] for label, passed in record["checks"].items() if not passed]
    assert not record["correct"]
    assert failed == [check]


def test_every_declared_workload_has_a_shape():
    benchmark = declared()
    assert [workload["name"] for workload in benchmark["workloads"]] == list(SHAPES)
    setup = next(m for m in benchmark["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in benchmark["end_to_end"])

