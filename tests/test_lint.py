"""Self-tests for the repro.lint invariant linter.

Every rule gets the same four-way fixture treatment: a violating
snippet is flagged, a compliant snippet is clean, a pragma *with* a
justification suppresses the finding, and a pragma *without* one is
itself a finding.  On top of that the suite pins the acceptance
criteria: the registry carries all six project rules, the real tree
lints clean, and a seeded violation in ``core/agent.py`` is caught.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.lint import lint_source, registered_rules
from repro.lint.cli import main
from repro.lint.core import PRAGMA_CODE, SYNTAX_CODE
from repro.lint.rules.closedguards import GUARD_SPECS, static_inventory

SRC_ROOT = Path(__file__).resolve().parent.parent / "src"

ENT_BAD = "import random\n"
ENT_GOOD = "from repro.crypto.prng import Sha256Prng\n\nprng = Sha256Prng('seed')\n"

PLN_BAD = """\
class Thing:
    def plan_write(self, storage):
        return storage.read_block(0)
"""
PLN_GOOD = """\
class Thing:
    def plan_write(self):
        return [("write", 0)]

    def execute(self, storage, steps):
        return storage.read_block(0)
"""

CLS_BAD = """\
class RawStorage:
    def read_block(self, index):
        return self.backend.read(index)
"""
CLS_GOOD = """\
class RawStorage:
    def _check_open(self):
        pass

    def read_block(self, index):
        self._check_open()
        return self.backend.read(index)

    def close(self):
        pass
"""

CON_METHODS = (
    "dummy_update",
    "dummy_update_batch",
    "update_block",
    "update_range",
    "plan_update_range",
    "append_blocks",
    "plan_append_blocks",
)
CON_BAD = """\
class VolatileAgent:
    def dummy_update(self):
        self._relocate()
"""
CON_GOOD = "class StegAgent:\n" + "".join(
    f"    def {name}(self):\n        with self._exclusive('{name}'):\n            pass\n"
    for name in CON_METHODS
)

EXC_BAD = """\
def run(workload):
    try:
        workload()
    except Exception:
        return None
"""
EXC_GOOD = """\
def run(workload, future):
    try:
        workload()
    except ValueError:
        return None
    except BaseException as error:
        future.fail(error)
        raise
"""

TRC_BAD = """\
def replay(trace, events):
    for op, index, time_ms in events:
        trace.record(op, index, time_ms)
"""
TRC_GOOD = """\
def replay(trace, ops, indices, times):
    trace.record_many(ops, indices, times)
"""

TYP_USE_BAD = """\
class RawStorage:
    def read_block(self, index):
        return bytes(16)

    def close(self):
        self._closed = True


def drain(path, stale):
    store = RawStorage(path)
    if stale:
        store.close()
    return store.read_block(0)
"""
TYP_USE_GOOD = """\
class RawStorage:
    def read_block(self, index):
        return bytes(16)

    def close(self):
        self._closed = True


def drain(path, stale):
    store = RawStorage(path)
    try:
        return store.read_block(0)
    finally:
        store.close()
"""

TYP_LEAK_BAD = """\
class MmapFileBackend:
    @classmethod
    def open(cls, path):
        return cls()

    def write(self, index, data):
        pass

    def close(self):
        pass


def rewrite(path, blocks):
    backend = MmapFileBackend.open(path)
    for index, data in blocks:
        backend.write(index, data)
    backend.close()
"""
TYP_LEAK_GOOD = """\
class MmapFileBackend:
    @classmethod
    def open(cls, path):
        return cls()

    def write(self, index, data):
        pass

    def close(self):
        pass


def rewrite(path, blocks):
    backend = MmapFileBackend.open(path)
    try:
        for index, data in blocks:
            backend.write(index, data)
    finally:
        backend.close()
"""

OBL_BAD = """\
def refresh(device, key, probe, payload):
    if key == probe:
        device.write_block(0, payload)
"""
OBL_GOOD = """\
def refresh(device, key, probe, payload):
    matched = key == probe
    credit = 1 if matched else 0
    device.write_block(0, payload)
    return credit
"""

OBL_SHAPE_BAD = """\
class WriteStep:
    def __init__(self, index):
        self.index = index


def plan_update(key, probe, index):
    steps = [WriteStep(index)]
    if key == probe:
        steps.append(WriteStep(index + 1))
    return steps
"""
OBL_SHAPE_GOOD = """\
class WriteStep:
    def __init__(self, index):
        self.index = index


def plan_update(key, probe, index, decoy):
    target = index if key == probe else decoy
    return [WriteStep(target), WriteStep(target + 1)]
"""

CASES = {
    "ENT001": (ENT_BAD, ENT_GOOD, 1),
    "PLN001": (PLN_BAD, PLN_GOOD, 3),
    "CLS001": (CLS_BAD, CLS_GOOD, 2),
    "CON001": (CON_BAD, CON_GOOD, 2),
    "EXC001": (EXC_BAD, EXC_GOOD, 4),
    "TRC001": (TRC_BAD, TRC_GOOD, 3),
    "TYP001": (TYP_USE_BAD, TYP_USE_GOOD, 13),
    "TYP002": (TYP_LEAK_BAD, TYP_LEAK_GOOD, 16),
    "OBL001": (OBL_BAD, OBL_GOOD, 3),
    "OBL002": (OBL_SHAPE_BAD, OBL_SHAPE_GOOD, 8),
}

#: Paths that put the fixture inside each rule's scope.
FIXTURE_PATHS = {
    "CLS001": "src/repro/storage/disk.py",
    "CON001": "src/repro/core/agent.py",
}


def _codes(findings):
    return [finding.code for finding in findings]


@pytest.mark.parametrize("code", sorted(CASES))
def test_violating_fixture_is_flagged(code):
    bad, _, _ = CASES[code]
    path = FIXTURE_PATHS.get(code, "src/repro/fixture.py")
    assert code in _codes(lint_source(bad, path))


@pytest.mark.parametrize("code", sorted(CASES))
def test_compliant_fixture_is_clean(code):
    _, good, _ = CASES[code]
    path = FIXTURE_PATHS.get(code, "src/repro/fixture.py")
    assert lint_source(good, path) == []


@pytest.mark.parametrize("code", sorted(CASES))
def test_pragma_with_justification_suppresses(code):
    bad, _, line = CASES[code]
    path = FIXTURE_PATHS.get(code, "src/repro/fixture.py")
    lines = bad.splitlines()
    indent = " " * (len(lines[line - 1]) - len(lines[line - 1].lstrip()))
    pragma = f"{indent}# repro-lint: ignore[{code}] -- fixture-approved exception"
    suppressed = "\n".join(lines[: line - 1] + [pragma] + lines[line - 1 :]) + "\n"
    assert code not in _codes(lint_source(suppressed, path))


@pytest.mark.parametrize("code", sorted(CASES))
def test_pragma_without_justification_is_a_finding(code):
    bad, _, line = CASES[code]
    path = FIXTURE_PATHS.get(code, "src/repro/fixture.py")
    lines = bad.splitlines()
    indent = " " * (len(lines[line - 1]) - len(lines[line - 1].lstrip()))
    pragma = f"{indent}# repro-lint: ignore[{code}]"
    unsuppressed = "\n".join(lines[: line - 1] + [pragma] + lines[line - 1 :]) + "\n"
    codes = _codes(lint_source(unsuppressed, path))
    assert PRAGMA_CODE in codes, "a justification-less pragma must itself be reported"
    assert code in codes, "a justification-less pragma must not suppress"


class TestFrameworkBehaviour:
    def test_registry_has_all_fifteen_rules(self):
        assert set(registered_rules()) >= set(CASES)
        assert len(registered_rules()) == 15

    def test_trailing_pragma_suppresses_same_line(self):
        source = "import random  # repro-lint: ignore[ENT001] -- fixture\n"
        assert lint_source(source, "src/repro/fixture.py") == []

    def test_pragma_only_suppresses_listed_codes(self):
        source = "# repro-lint: ignore[TRC001] -- wrong code\nimport random\n"
        assert "ENT001" in _codes(lint_source(source, "src/repro/fixture.py"))

    def test_syntax_error_is_reported_not_raised(self):
        assert _codes(lint_source("def broken(:\n")) == [SYNTAX_CODE]

    def test_entropy_rule_resolves_aliases(self):
        source = "import numpy as np\n\nvalue = np.random.default_rng(0)\n"
        findings = lint_source(source, "src/repro/fixture.py")
        assert [(f.code, f.line) for f in findings] == [("ENT001", 3)]

    def test_entropy_rule_allows_prng_seam_file(self):
        assert lint_source(ENT_BAD, "src/repro/crypto/prng.py") == []

    def test_entropy_rule_allows_monotonic_clock(self):
        source = "import time\n\nstart = time.monotonic()\n"
        assert lint_source(source, "src/repro/fixture.py") == []

    def test_plan_purity_follows_transitive_calls(self):
        source = (
            "class Thing:\n"
            "    def plan_write(self):\n"
            "        return self._helper()\n"
            "\n"
            "    def _helper(self):\n"
            "        return self.storage.write_blocks([], [])\n"
        )
        findings = lint_source(source, "src/repro/fixture.py")
        assert any(
            f.code == "PLN001" and "Thing.plan_write -> Thing._helper" in f.message
            for f in findings
        )

    def test_closed_guard_rule_flags_missing_class(self):
        source = "class SomethingElse:\n    pass\n"
        findings = lint_source(source, "src/repro/storage/disk.py")
        assert any(f.code == "CLS001" and "RawStorage" in f.message for f in findings)

    def test_concurrency_rule_flags_missing_primitive(self):
        source = "class StegAgent:\n    def dummy_update(self):\n        pass\n"
        findings = lint_source(source, "src/repro/core/agent.py")
        messages = [f.message for f in findings if f.code == "CON001"]
        assert any(
            "plan_update_range" in message and "not found" in message for message in messages
        )

    def test_broad_except_with_bare_reraise_is_clean(self):
        source = "try:\n    pass\nexcept BaseException:\n    raise\n"
        assert lint_source(source, "src/repro/fixture.py") == []


class TestAnchoring:
    """Findings on continuation lines anchor to the statement's first line."""

    MULTILINE = "import numpy as np\n\nvalue = (\n    np.random.default_rng(0)\n)\n"

    def test_finding_on_continuation_line_is_anchored_to_statement(self):
        findings = lint_source(self.MULTILINE, "src/repro/fixture.py")
        assert [(f.code, f.line) for f in findings] == [("ENT001", 3)]

    def test_pragma_on_opening_line_covers_the_whole_statement(self):
        source = self.MULTILINE.replace(
            "value = (", "value = (  # repro-lint: ignore[ENT001] -- fixture"
        )
        assert lint_source(source, "src/repro/fixture.py") == []

    def test_compound_body_is_not_anchored_to_the_header(self):
        source = (
            "def build():  # repro-lint: ignore[ENT001] -- fixture: wrong line\n"
            "    import random\n"
        )
        assert "ENT001" in _codes(lint_source(source, "src/repro/fixture.py"))


class TestRealTree:
    def test_src_tree_is_clean(self):
        assert main([str(SRC_ROOT)]) == 0

    def test_seeded_violation_in_agent_is_caught(self):
        """The acceptance scenario: a stray ``import random`` in core/agent.py."""
        agent_path = SRC_ROOT / "repro" / "core" / "agent.py"
        source = agent_path.read_text()
        assert lint_source(source, str(agent_path)) == []
        seeded = source.replace(
            "from __future__ import annotations",
            "from __future__ import annotations\nimport random",
            1,
        )
        assert seeded != source
        findings = lint_source(seeded, str(agent_path))
        assert [f.code for f in findings] == ["ENT001"]

    def test_static_inventory_covers_all_specs(self):
        inventory = static_inventory(SRC_ROOT)
        assert set(inventory) == {spec.class_name for spec in GUARD_SPECS}
        assert all(inventory.values()), "every guarded class has at least one guarded method"


class TestCli:
    def _violating_tree(self, tmp_path):
        package = tmp_path / "src" / "repro"
        package.mkdir(parents=True)
        (package / "bad.py").write_text("import random\n")
        return tmp_path / "src"

    def test_exit_one_and_github_annotation(self, tmp_path, capsys):
        root = self._violating_tree(tmp_path)
        assert main([str(root), "--format=github"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("::error file=")
        assert "title=ENT001" in out

    def test_json_format_is_parseable(self, tmp_path, capsys):
        root = self._violating_tree(tmp_path)
        assert main([str(root), "--format=json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["code"] == "ENT001"
        assert payload[0]["line"] == 1

    def test_explain_prints_contract_for_every_code(self, capsys):
        codes = [*registered_rules(), PRAGMA_CODE, SYNTAX_CODE]
        for code in codes:
            assert main(["--explain", code]) == 0
            out = capsys.readouterr().out
            assert out.startswith(f"{code}:")
            assert "contract:" in out and "rationale:" in out and "dynamic:" in out

    def test_explain_unknown_code_exits_two(self, capsys):
        assert main(["--explain", "ZZZ999"]) == 2
        assert "known codes" in capsys.readouterr().out

    def test_sarif_format_carries_rule_metadata(self, tmp_path, capsys):
        root = self._violating_tree(tmp_path)
        assert main([str(root), "--format=sarif"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == "2.1.0"
        run = document["runs"][0]
        rule_ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
        assert set(rule_ids) >= {"ENT001", "TYP001", "OBL001", PRAGMA_CODE}
        (result,) = run["results"]
        assert result["ruleId"] == "ENT001"
        assert rule_ids[result["ruleIndex"]] == "ENT001"
        assert result["locations"][0]["physicalLocation"]["region"]["startLine"] == 1

    def test_sarif_witness_chain_becomes_related_locations(self, tmp_path, capsys):
        package = tmp_path / "src" / "repro"
        package.mkdir(parents=True)
        (package / "leak.py").write_text(OBL_BAD)
        assert main([str(tmp_path / "src"), "--format=sarif"]) == 1
        document = json.loads(capsys.readouterr().out)
        (result,) = document["runs"][0]["results"]
        steps = [
            (
                location["physicalLocation"]["region"]["startLine"],
                location["message"]["text"],
            )
            for location in result["relatedLocations"]
        ]
        assert steps == [(2, "witness step 1"), (3, "witness step 2")]

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        package = tmp_path / "src" / "repro"
        package.mkdir(parents=True)
        (package / "good.py").write_text("VALUE = 1\n")
        assert main([str(tmp_path / "src")]) == 0
        assert "0 findings" in capsys.readouterr().out
