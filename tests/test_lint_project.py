"""Tests for the whole-program lint phase: FRM009/FRM011.

The positive and negative cases live as tiny committed packages under
``tests/lint_fixtures/`` (see its README).  Each test copies a fixture
to ``tmp_path`` before linting: inside the repository tree the fixtures
sit under ``tests/`` and are therefore filtered as test modules, which
``test_fixtures_silent_in_repo_tree`` pins explicitly.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.analysis import Engine
from repro.analysis.cache import LintCache
from repro.analysis.engine import iter_python_files
from repro.analysis.reporters import render_json, render_sarif
from repro.analysis.rules.purity import HotPathPurityRule
from repro.analysis.rules.taint import NondeterminismTaintRule
from repro.cli import main

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"


def copy_fixture(name, tmp_path):
    """Copy a fixture package out of the test tree and return its root."""
    dest = tmp_path / name
    shutil.copytree(FIXTURES / name, dest)
    return dest


def lint_fixture(name, tmp_path, rules=None):
    """Lint a copied fixture with the given rules (default: all)."""
    root = copy_fixture(name, tmp_path)
    engine = Engine(rules=rules, root=root)
    return engine.lint_paths(sorted(iter_python_files([root])))


class TestTaintRule:
    def test_flow_fixture_yields_witness_paths(self, tmp_path):
        result = lint_fixture(
            "taint_flow", tmp_path, rules=[NondeterminismTaintRule()]
        )
        assert len(result.findings) == 2
        by_sink = {f.message.split(";")[0] for f in result.findings}
        assert any("save_rule_groups" in m for m in by_sink)
        assert any("merge_counters" in m for m in by_sink)
        for finding in result.findings:
            assert finding.rule_id == "FRM009"
            # Findings anchor at the *source* expression, not the sink.
            assert finding.path == "repro/core/helpers.py"
            assert "witness:" in finding.message
            assert "time.monotonic()" in finding.message
            # The witness walks through the intermediate helper call.
            assert "core/pipeline.py::" in finding.message
            assert " -> " in finding.message

    def test_clean_fixture_is_silent(self, tmp_path):
        result = lint_fixture(
            "taint_clean", tmp_path, rules=[NondeterminismTaintRule()]
        )
        assert result.findings == []
        assert result.n_suppressed == 0

    def test_suppression_comment_silences_project_finding(self, tmp_path):
        """``# farmer-lint: disable=FRM009`` works on project-phase rules."""
        result = lint_fixture(
            "taint_suppressed", tmp_path, rules=[NondeterminismTaintRule()]
        )
        assert result.findings == []
        assert result.n_suppressed == 1

    def test_field_confined_taint_not_reported(self, tmp_path):
        """A tainted constructor field that never reaches the sink is clean.

        ``taint_flow``'s ``project_clean`` stores a clock in
        ``Envelope.elapsed`` but only ``Envelope.groups`` flows onward;
        only the two genuine flows may be reported.
        """
        result = lint_fixture(
            "taint_flow", tmp_path, rules=[NondeterminismTaintRule()]
        )
        assert all("project_clean" not in f.message for f in result.findings)


class TestPurityRule:
    def test_impure_fixture_reports_call_chain(self, tmp_path):
        result = lint_fixture(
            "purity_impure", tmp_path, rules=[HotPathPurityRule()]
        )
        assert {f.rule_id for f in result.findings} == {"FRM011"}
        messages = "\n".join(f.message for f in result.findings)
        assert "print()" in messages
        assert "mutates module-level _SEEN" in messages
        for finding in result.findings:
            assert finding.path == "repro/core/kernel.py"
            assert "call chain:" in finding.message
            assert "core/helpers.py::fold" in finding.message
            assert "core/helpers.py::trace" in finding.message

    def test_pure_fixture_is_silent(self, tmp_path):
        """Parameter mutation and unknown callbacks stay pure."""
        result = lint_fixture(
            "purity_pure", tmp_path, rules=[HotPathPurityRule()]
        )
        assert result.findings == []

    def test_stale_root_is_reported(self, tmp_path):
        """A pinned root whose module survives but whose function is gone
        is a finding, not a silently smaller gate."""
        result = lint_fixture(
            "purity_stale", tmp_path, rules=[HotPathPurityRule()]
        )
        assert len(result.findings) == 1
        (finding,) = result.findings
        assert finding.rule_id == "FRM011"
        assert finding.path == "repro/core/farmer.py"
        assert "core/farmer.py::enumerate_frontier" in finding.message
        assert "no longer resolves" in finding.message


class TestFixtureHygiene:
    @pytest.mark.parametrize(
        "name, n_expected",
        [
            ("taint_flow", 2),
            ("taint_clean", 0),
            ("taint_suppressed", 0),
            ("purity_impure", 2),
            ("purity_pure", 0),
            ("purity_stale", 1),
        ],
    )
    def test_fixtures_clean_under_full_rule_set(self, tmp_path, name, n_expected):
        """Fixtures trigger only their intended rule — no FRM001-008 noise."""
        result = lint_fixture(name, tmp_path)
        assert len(result.findings) == n_expected

    def test_fixtures_silent_in_repo_tree(self):
        """In place under tests/, the corpus is filtered as test modules."""
        repo_root = FIXTURES.parent.parent
        engine = Engine(root=repo_root)
        result = engine.lint_paths(sorted(iter_python_files([FIXTURES])))
        assert result.findings == []


class TestCliIntegration:
    def test_injected_taint_exits_one_with_witness(self, tmp_path, capsys):
        """The acceptance check: a taint path fails the lint gate loudly."""
        root = copy_fixture("taint_flow", tmp_path)
        assert main(["lint", str(root), "--no-cache"]) == 1
        out = capsys.readouterr().out
        assert "FRM009" in out
        assert "witness:" in out
        assert "time.monotonic()" in out


class TestSarifReporter:
    def test_sarif_shape_and_round_trip(self, tmp_path):
        """SARIF carries the same findings as JSON in 2.1.0 shape."""
        result = lint_fixture("taint_flow", tmp_path)
        sarif = json.loads(render_sarif(result))
        plain = json.loads(render_json(result))

        assert sarif["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in sarif["$schema"]
        run = sarif["runs"][0]
        driver = run["tool"]["driver"]
        assert driver["name"] == "farmer-lint"
        rule_ids = [rule["id"] for rule in driver["rules"]]
        assert rule_ids == [f"FRM{i:03d}" for i in range(1, 13) if i != 10]

        assert len(run["results"]) == len(plain["findings"])
        for sarif_result, finding in zip(run["results"], plain["findings"]):
            assert sarif_result["ruleId"] == finding["rule"]
            assert sarif_result["level"] == "error"
            assert sarif_result["message"]["text"] == finding["message"]
            location = sarif_result["locations"][0]["physicalLocation"]
            assert location["artifactLocation"]["uri"] == finding["path"]
            region = location["region"]
            assert region["startLine"] == finding["line"]
            assert region["startColumn"] == finding["col"] + 1
            index = sarif_result["ruleIndex"]
            assert driver["rules"][index]["id"] == sarif_result["ruleId"]

    def test_sarif_cli_format(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        root = copy_fixture("taint_flow", tmp_path)
        assert main(["lint", str(root), "--format", "sarif"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"
        assert len(payload["runs"][0]["results"]) == 2


class TestLintCache:
    def test_warm_run_matches_cold_and_skips_parses(self, tmp_path):
        root = copy_fixture("taint_flow", tmp_path)
        cache_path = tmp_path / "cache.bin"
        engine = Engine(root=root)
        paths = sorted(iter_python_files([root]))

        cache = LintCache(cache_path, engine.cache_signature())
        cold = engine.lint_paths(paths, cache=cache)
        assert cache.misses == len(paths) and cache.hits == 0
        cache.save()
        assert cache_path.is_file()

        warm_cache = LintCache(cache_path, engine.cache_signature())
        warm = engine.lint_paths(paths, cache=warm_cache)
        assert warm_cache.hits == len(paths) and warm_cache.misses == 0
        assert [f.sort_key for f in warm.findings] == [
            f.sort_key for f in cold.findings
        ]
        assert warm.n_suppressed == cold.n_suppressed

    def test_modified_file_invalidates_entry(self, tmp_path):
        root = copy_fixture("taint_flow", tmp_path)
        cache_path = tmp_path / "cache.bin"
        engine = Engine(root=root)
        paths = sorted(iter_python_files([root]))

        cache = LintCache(cache_path, engine.cache_signature())
        engine.lint_paths(paths, cache=cache)
        cache.save()

        helper = root / "repro" / "core" / "helpers.py"
        source = helper.read_text()
        helper.write_text(source + "\n# touched\n")

        stale = LintCache(cache_path, engine.cache_signature())
        engine.lint_paths(paths, cache=stale)
        assert stale.misses == 1
        assert stale.hits == len(paths) - 1

    def test_signature_change_drops_cache(self, tmp_path):
        root = copy_fixture("taint_clean", tmp_path)
        cache_path = tmp_path / "cache.bin"
        engine = Engine(root=root)
        paths = sorted(iter_python_files([root]))

        cache = LintCache(cache_path, engine.cache_signature())
        engine.lint_paths(paths, cache=cache)
        cache.save()

        other = LintCache(cache_path, "different-signature")
        engine.lint_paths(paths, cache=other)
        assert other.hits == 0

    def test_corrupt_cache_file_ignored(self, tmp_path):
        root = copy_fixture("taint_clean", tmp_path)
        cache_path = tmp_path / "cache.bin"
        cache_path.write_bytes(b"not a pickle")
        engine = Engine(root=root)
        cache = LintCache(cache_path, engine.cache_signature())
        result = engine.lint_paths(
            sorted(iter_python_files([root])), cache=cache
        )
        assert result.findings == []
        assert cache.hits == 0
