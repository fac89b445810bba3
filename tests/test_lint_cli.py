"""Tests for the farmer-lint engine plumbing, reporters, baseline and CLI."""

import json

import pytest

from repro.analysis import Engine, load_baseline, save_baseline
from repro.analysis.base import parse_suppressions
from repro.analysis.baseline import BASELINE_VERSION, partition
from repro.analysis.engine import iter_python_files
from repro.analysis.reporters import JSON_REPORT_VERSION, render_json, render_text
from repro.cli import main
from repro.errors import DataError

BAD_CORE = (
    '"""Doc."""\n'
    '__all__ = ["check"]\n'
    "def check(x):\n"
    '    """Doc."""\n'
    '    raise ValueError("bad")\n'
)


@pytest.fixture
def bad_tree(tmp_path):
    """A fixture package with one FRM006 violation in core/."""
    target = tmp_path / "repro" / "core" / "mod.py"
    target.parent.mkdir(parents=True)
    target.write_text(BAD_CORE)
    return tmp_path


class TestSuppressionParsing:
    def test_single_and_multiple_ids(self):
        lines = [
            "x = 1  # farmer-lint: disable=FRM001",
            "y = 2  # farmer-lint: disable=FRM002, FRM006",
            "z = 3  # farmer-lint: disable",
            "w = 4",
        ]
        parsed = parse_suppressions(lines)
        assert parsed[1] == frozenset({"FRM001"})
        assert parsed[2] == frozenset({"FRM002", "FRM006"})
        assert parsed[3] == frozenset({"*"})
        assert 4 not in parsed


class TestEngine:
    def test_missing_path_raises_data_error(self, tmp_path):
        with pytest.raises(DataError):
            list(iter_python_files([tmp_path / "nope"]))

    def test_discovery_is_sorted_and_skips_pycache(self, tmp_path):
        (tmp_path / "b.py").write_text("")
        (tmp_path / "a.py").write_text("")
        cache = tmp_path / "__pycache__"
        cache.mkdir()
        (cache / "a.cpython-312.pyc.py").write_text("")
        names = [p.name for p in iter_python_files([tmp_path])]
        assert names == ["a.py", "b.py"]

    def test_syntax_error_reported_as_data_error(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def broken(:\n")
        with pytest.raises(DataError, match="syntax error"):
            Engine(root=tmp_path).lint_paths([tmp_path])

    def test_findings_are_sorted(self, bad_tree):
        target = bad_tree / "repro" / "core" / "mod2.py"
        target.write_text(BAD_CORE + 'def more(x):\n    raise TypeError("x")\n')
        result = Engine(root=bad_tree).lint_paths([bad_tree])
        keys = [f.sort_key for f in result.findings]
        assert keys == sorted(keys)
        assert result.n_files == 2


class TestReporters:
    def test_text_report_lines(self, bad_tree):
        result = Engine(root=bad_tree).lint_paths([bad_tree])
        text = render_text(result)
        assert "repro/core/mod.py:5:4: FRM006" in text
        assert text.endswith("1 finding in 1 file")

    def test_json_schema(self, bad_tree):
        result = Engine(root=bad_tree).lint_paths([bad_tree])
        payload = json.loads(render_json(result))
        assert payload["version"] == JSON_REPORT_VERSION
        assert payload["summary"] == {
            "files": 1,
            "findings": 1,
            "baselined": 0,
            "suppressed": 0,
        }
        (finding,) = payload["findings"]
        assert sorted(finding) == ["col", "line", "message", "name", "path", "rule"]
        assert finding["rule"] == "FRM006"
        assert finding["path"] == "repro/core/mod.py"
        assert finding["line"] == 5


class TestBaseline:
    def test_round_trip(self, bad_tree, tmp_path):
        result = Engine(root=bad_tree).lint_paths([bad_tree])
        baseline_file = tmp_path / "baseline.json"
        save_baseline(baseline_file, result.findings)
        payload = json.loads(baseline_file.read_text())
        assert payload["version"] == BASELINE_VERSION
        baseline = load_baseline(baseline_file)
        new, grandfathered = partition(result.findings, baseline)
        assert new == []
        assert len(grandfathered) == 1

    def test_multiplicity_matters(self, bad_tree, tmp_path):
        result = Engine(root=bad_tree).lint_paths([bad_tree])
        (finding,) = result.findings
        baseline_file = tmp_path / "baseline.json"
        save_baseline(baseline_file, [finding])
        baseline = load_baseline(baseline_file)
        # Two identical violations against one baselined occurrence: one
        # is grandfathered, the duplicate is new.
        new, grandfathered = partition([finding, finding], baseline)
        assert len(new) == 1
        assert len(grandfathered) == 1

    def test_malformed_baseline_rejected(self, tmp_path):
        target = tmp_path / "baseline.json"
        target.write_text("[]")
        with pytest.raises(DataError):
            load_baseline(target)
        target.write_text("{not json")
        with pytest.raises(DataError):
            load_baseline(target)
        with pytest.raises(DataError):
            load_baseline(tmp_path / "missing.json")


class TestCli:
    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for index in range(1, 13):
            assert (f"FRM{index:03d}" in out) == (index != 10)

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "repro" / "ok.py"
        target.parent.mkdir()
        target.write_text('"""Doc."""\n')
        assert main(["lint", str(target)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_one(self, bad_tree, capsys):
        assert main(["lint", str(bad_tree)]) == 1
        assert "FRM006" in capsys.readouterr().out

    def test_bad_path_one_line_error(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "missing")]) == 2
        out = capsys.readouterr().out.strip()
        assert out.startswith("error:")
        assert len(out.splitlines()) == 1

    def test_json_format(self, bad_tree, capsys):
        assert main(["lint", str(bad_tree), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["findings"] == 1

    def test_update_baseline_then_clean(self, bad_tree, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        assert (
            main(
                [
                    "lint",
                    str(bad_tree),
                    "--baseline",
                    str(baseline),
                    "--update-baseline",
                ]
            )
            == 0
        )
        assert "wrote 1 finding" in capsys.readouterr().out
        assert (
            main(["lint", str(bad_tree), "--baseline", str(baseline)]) == 0
        )
        out = capsys.readouterr().out
        assert "0 findings" in out and "1 baselined" in out

    def test_new_finding_beyond_baseline_fails(self, bad_tree, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        main(["lint", str(bad_tree), "--baseline", str(baseline),
              "--update-baseline"])
        capsys.readouterr()
        extra = bad_tree / "repro" / "core" / "extra.py"
        extra.write_text("def check(x):\n    assert x\n")
        assert main(["lint", str(bad_tree), "--baseline", str(baseline)]) == 1
        assert "FRM006" in capsys.readouterr().out

    def test_unreadable_baseline_one_line_error(self, bad_tree, tmp_path, capsys):
        baseline = tmp_path / "broken.json"
        baseline.write_text("{")
        assert main(["lint", str(bad_tree), "--baseline", str(baseline)]) == 2
        assert capsys.readouterr().out.startswith("error:")

    def test_repo_gate_matches_ci_invocation(self, capsys, monkeypatch):
        """The exact CI gate: ``farmer lint <package>`` exits 0."""
        import repro
        from pathlib import Path

        package_root = Path(repro.__file__).resolve().parent
        assert main(["lint", str(package_root)]) == 0
        capsys.readouterr()
