"""Unit tests for the farmer CLI."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main

#: The ``--engine`` spellings the three-way interaction matrix passes.
#: ``kernel`` and ``numpy`` name the production engine.
CLI_ENGINES = ("kernel", "reference", "numpy")


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
        capsys.readouterr()

    def test_mine_defaults(self):
        args = build_parser().parse_args(["mine", "--dataset", "CT"])
        assert args.minsup == 5
        assert args.buckets == 10

    def test_mutually_exclusive_source(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["mine", "--dataset", "CT", "--tsv", "x.tsv"]
            )
        capsys.readouterr()


class TestMine:
    def test_mine_registry(self, capsys):
        code = main(
            [
                "mine",
                "--dataset",
                "CT",
                "--scale",
                "0.01",
                "--minsup",
                "5",
                "--top",
                "2",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "interesting rule groups" in out

    def test_mine_with_lower_bounds(self, capsys):
        code = main(
            [
                "mine",
                "--dataset",
                "CT",
                "--scale",
                "0.01",
                "--minsup",
                "6",
                "--minconf",
                "0.9",
                "--lower-bounds",
                "--top",
                "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "lower" in out or "0 interesting" in out


class TestGenerateAndRoundTrip:
    def test_generate_then_mine_tsv(self, tmp_path, capsys):
        tsv = tmp_path / "ct.tsv"
        assert (
            main(
                [
                    "generate",
                    "--dataset",
                    "CT",
                    "--scale",
                    "0.01",
                    "--out",
                    str(tsv),
                ]
            )
            == 0
        )
        assert tsv.exists()
        capsys.readouterr()
        code = main(
            ["mine", "--tsv", str(tsv), "--minsup", "5", "--top", "1"]
        )
        assert code == 0
        assert "interesting rule groups" in capsys.readouterr().out


class TestClassify:
    def test_classify_svm(self, capsys):
        code = main(
            ["classify", "--dataset", "CT", "--scale", "0.01", "--classifier", "svm"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "test accuracy" in out


class TestExperiment:
    def test_table1(self, capsys):
        code = main(["experiment", "table1", "--scale", "0.01"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Table 1" in out
        assert "24481" in out  # the paper's BC column count

    def test_fig10_tiny(self, capsys):
        code = main(
            [
                "experiment",
                "fig10",
                "--datasets",
                "CT",
                "--scale",
                "0.01",
                "--timeout",
                "20",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "FARMER" in out and "CHARM" in out


class TestWorkersEngine:
    """The ``--workers`` x ``--steal`` x ``--engine`` interaction.

    Each scenario mines sharded under a worker count — optionally under
    ``--steal`` — and asserts the saved ``.irgs`` bytes equal a serial
    kernel run's, so both table representations and the reference
    engine cross the process boundary byte-identically whatever the
    schedule.
    """

    MINE = [
        "mine",
        "--dataset",
        "CT",
        "--scale",
        "0.01",
        "--minsup",
        "5",
        "--top",
        "0",
    ]

    @pytest.fixture(scope="class")
    def serial_irgs(self, tmp_path_factory) -> bytes:
        """The serial kernel run's bytes, the oracle for every scenario."""
        path = tmp_path_factory.mktemp("cli-serial") / "serial.irgs"
        assert main([*self.MINE, "--save", str(path)]) == 0
        return path.read_bytes()

    @pytest.mark.parametrize("engine", CLI_ENGINES)
    @pytest.mark.parametrize(
        ("workers", "steal"),
        [(1, False), (4, False), (4, True)],
        ids=["w1-static", "w4-static", "w4-steal"],
    )
    def test_sharded_matrix(
        self, engine, workers, steal, serial_irgs, tmp_path, capsys
    ):
        saved = tmp_path / "sharded.irgs"
        argv = [
            *self.MINE,
            "--workers",
            str(workers),
            "--engine",
            engine,
            "--save",
            str(saved),
        ]
        if steal:
            argv.append("--steal")
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert f"sharded across {workers} workers" in out
        assert ("work stealing:" in out) == (steal and workers > 1)
        assert saved.read_bytes() == serial_irgs


class TestErrors:
    def test_repro_error_is_reported(self, tmp_path, capsys):
        missing = tmp_path / "nope.tsv"
        missing.write_text("bad\t1\n")
        code = main(["mine", "--tsv", str(missing), "--minsup", "1"])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err


class TestKnobValidation:
    """Non-positive numeric knobs fail up front with the flag's name.

    Regression guard for the coordinator-deep failures these used to
    produce: the CLI now rejects them before loading any data, so the
    message names the flag the user actually typed.
    """

    MINE = ["mine", "--dataset", "CT", "--scale", "0.01", "--minsup", "5"]

    @pytest.mark.parametrize(
        ("flag", "value"),
        [
            ("--workers", "0"),
            ("--workers", "-2"),
            ("--steal-quantum", "0"),
            ("--steal-quantum", "-1"),
        ],
    )
    def test_non_positive_knob_is_usage_error(self, capsys, flag, value):
        code = main([*self.MINE, flag, value])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err
        assert flag in captured.err
        assert value in captured.err

    def test_remine_validates_workers_too(self, tmp_path, capsys):
        code = main(
            [
                "remine",
                "--dataset",
                "CT",
                "--scale",
                "0.01",
                "--minsup",
                "5",
                "--warm-cache",
                str(tmp_path / "cache"),
                "--workers",
                "0",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert "--workers" in captured.err

    def test_steal_quantum_without_steal_is_usage_error(self, capsys):
        """A quantum only paces stealing: without ``--steal`` it would be
        silently ignored, so ``farmer mine`` refuses it up front, as it
        refuses a non-positive knob."""
        code = main([*self.MINE, "--workers", "2", "--steal-quantum", "5"])
        assert code == 1
        assert (
            "error: --steal-quantum requires --steal"
            in capsys.readouterr().err
        )

    def test_remine_ignores_steal_quantum(self, tmp_path, capsys):
        """``farmer remine`` takes every sharding flag so ``mine``
        command lines work unchanged, and ignores them."""
        code = main(
            [
                "remine", "--dataset", "CT", "--scale", "0.01", "--minsup",
                "5", "--top", "0", "--warm-cache", str(tmp_path / "cache"),
                "--steal-quantum", "5",
            ]
        )
        assert code == 0
        assert "interesting rule groups" in capsys.readouterr().out

    def test_positive_knobs_still_mine(self, capsys):
        code = main(
            [*self.MINE, "--top", "0", "--workers", "1", "--steal",
             "--steal-quantum", "512"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "interesting rule groups" in captured.out


class TestRemine:
    def test_remine_matches_cold_mine(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        base = [
            "--dataset",
            "CT",
            "--scale",
            "0.01",
            "--top",
            "0",
        ]
        cold_save = str(tmp_path / "cold.irgs")
        warm_save = str(tmp_path / "warm.irgs")
        assert main(["mine", *base, "--minsup", "8", "--warm-cache", cache]) == 0
        assert (
            main(
                [
                    "remine",
                    *base,
                    "--minsup",
                    "5",
                    "--warm-cache",
                    cache,
                    "--save",
                    warm_save,
                ]
            )
            == 0
        )
        assert main(["mine", *base, "--minsup", "5", "--save", cold_save]) == 0
        capsys.readouterr()
        assert Path(warm_save).read_bytes() == Path(cold_save).read_bytes()

    def test_remine_requires_warm_cache(self, capsys):
        with pytest.raises(SystemExit):
            main(["remine", "--dataset", "CT", "--minsup", "5"])
        captured = capsys.readouterr()
        assert "--warm-cache" in captured.err


class TestServeKnobValidation:
    """Bad ``farmer serve`` knobs fail before a socket is bound.

    Mirrors :class:`TestKnobValidation`: the error names the flag the
    user actually typed and carries the offending value.
    """

    @pytest.mark.parametrize(
        ("flag", "value"),
        [
            ("--port", "-1"),
            ("--port", "65536"),
            ("--workers", "0"),
            ("--workers", "-2"),
            ("--queue-depth", "0"),
            ("--queue-depth", "-1"),
            ("--job-timeout", "0"),
            ("--job-timeout", "-3"),
        ],
    )
    def test_bad_serve_knob_is_usage_error(self, capsys, flag, value):
        code = main(["serve", flag, value])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err
        assert flag in captured.err
        assert value in captured.err

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8765
        assert args.workers == 2
        assert args.queue_depth == 16
        assert args.registry_dir == ".farmer-serve"
        assert args.job_timeout == 300.0

    def test_registry_dir_flag_parses(self, tmp_path):
        args = build_parser().parse_args(
            ["serve", "--registry-dir", str(tmp_path / "state"), "--port", "0"]
        )
        assert args.registry_dir == str(tmp_path / "state")
        assert args.port == 0


class TestWarmCacheSummary:
    def test_metrics_summary_includes_frontier_reuse(self, tmp_path, capsys):
        """``--metrics-out`` + ``--warm-cache`` reports the reuse gauge.

        Regression guard: the end-of-run summary used to omit frontier
        metrics, so a warm run's reuse fraction only ever reached the
        JSONL event stream, never the operator-facing summary line.
        """
        from repro.obs import read_runlog

        cache = str(tmp_path / "cache")
        base = [
            "mine",
            "--dataset",
            "CT",
            "--scale",
            "0.01",
            "--minsup",
            "5",
            "--top",
            "0",
            "--warm-cache",
            cache,
        ]
        assert main([*base, "--metrics-out", str(tmp_path / "r1.jsonl")]) == 0
        capsys.readouterr()
        runlog = tmp_path / "r2.jsonl"
        assert main([*base, "--metrics-out", str(runlog)]) == 0
        captured = capsys.readouterr()
        assert "warm cache: frontier reuse 100%" in captured.out
        gauges = {
            name
            for event in read_runlog(runlog)
            if event["kind"] == "metrics"
            for name in event.get("gauges", {})
        }
        assert "frontier.reuse_fraction" in gauges

    def test_loosened_remine_reports_zero_reuse(self, tmp_path, capsys):
        """A loosened re-mine is a fresh capture: the note reads 0% and
        the run log's ``cache_miss`` says the entry was too tight."""
        from repro.obs import read_runlog

        cache = str(tmp_path / "cache")
        base = ["--dataset", "CT", "--scale", "0.01", "--top", "0"]
        assert main(["mine", *base, "--minsup", "6", "--warm-cache", cache]) == 0
        capsys.readouterr()
        runlog = tmp_path / "loosen.jsonl"
        assert main(
            [
                "remine", *base, "--minsup", "5", "--warm-cache", cache,
                "--metrics-out", str(runlog),
            ]
        ) == 0
        assert "warm cache: frontier reuse 0%" in capsys.readouterr().out
        misses = [
            event for event in read_runlog(runlog) if event["kind"] == "cache_miss"
        ]
        assert [event["reason"] for event in misses] == ["loosened"]
