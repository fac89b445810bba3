"""Command-line interface: ``farmer`` (or ``python -m repro``).

Four subcommands cover the library's everyday workflows:

* ``farmer mine``       — mine interesting rule groups from a registry
  dataset or an expression TSV and print the top groups;
* ``farmer remine``     — re-mine under changed constraints through a
  warm frontier cache (byte-identical to a cold mine);
* ``farmer classify``   — run the Table 2 protocol for one classifier on
  one dataset;
* ``farmer experiment`` — regenerate a paper table/figure
  (``table1 fig10 fig11 table2 scaling ablation``);
* ``farmer generate``   — write a synthetic registry dataset to disk;
* ``farmer serve``      — run the mining-as-a-service HTTP daemon
  (submit jobs, poll status, fetch ``.irgs`` results — see
  ``docs/serve.md``);
* ``farmer lint``       — run the farmer-lint static-analysis rules
  (determinism, picklability, bitset/exception discipline) over the
  source tree.

Examples::

    farmer mine --dataset ALL --minsup 5 --minconf 0.9 --top 10
    farmer mine --dataset ALL --minsup 8 --warm-cache .farmer-cache
    farmer remine --dataset ALL --minsup 5 --warm-cache .farmer-cache
    farmer classify --dataset CT --classifier irg
    farmer experiment fig10 --datasets CT ALL --timeout 30
    farmer generate --dataset LC --out lc.tsv
    farmer serve --port 8765 --workers 2 --registry-dir .farmer-serve
    farmer lint src/repro --format json
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from pathlib import Path

from .analysis.options import add_lint_arguments
from .core.constraints import Constraints
from .core.enumeration import SearchBudget
from .core.farmer import ENGINES, Farmer
from .data.discretize import EntropyMDLDiscretizer, EqualDepthDiscretizer
from .data.registry import PAPER_DATASETS, load, train_test_rows
from .data.transpose import TransposedTable
from .errors import ReproError, UsageError

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The ``farmer`` argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="farmer",
        description="FARMER: finding interesting rule groups in microarray "
        "datasets (SIGMOD 2004 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mine = sub.add_parser("mine", help="mine interesting rule groups")
    _add_dataset_arguments(mine)
    mine.add_argument("--consequent", help="class label on the rule RHS "
                      "(default: the dataset's class 1)")
    mine.add_argument("--minsup", type=int, default=5, help="minimum rule support (rows)")
    mine.add_argument("--minconf", type=float, default=0.0, help="minimum confidence [0,1]")
    mine.add_argument("--minchi", type=float, default=0.0, help="minimum chi-square value")
    mine.add_argument("--buckets", type=int, default=10, help="equal-depth buckets")
    mine.add_argument("--top", type=int, default=10, help="groups to print")
    mine.add_argument("--lower-bounds", action="store_true", help="run MineLB on results")
    mine.add_argument("--timeout", type=float, default=300.0, help="mining budget (seconds)")
    mine.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="shard the search across N worker processes "
        "(identical output to serial; default: serial)",
    )
    mine.add_argument("--save", help="persist the groups to this .irgs file")
    mine.add_argument(
        "--steal",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="schedule shards with the work-stealing scheduler: "
        "quantum-expired workers donate their remaining enumeration "
        "frontier and starving queues split it across idle workers; "
        "output stays byte-identical to the static schedule "
        "(default: --no-steal)",
    )
    mine.add_argument(
        "--steal-quantum",
        type=int,
        default=None,
        metavar="NODES",
        help="nodes a stealing worker expands before donating its "
        "frontier (default: 4096)",
    )
    mine.add_argument(
        "--engine",
        choices=sorted(ENGINES),
        default=None,
        metavar="NAME",
        help="'reference' runs the pre-kernel cost model (the "
        "differential oracle); 'kernel' and 'numpy' are accepted "
        "spellings of the default production engine.  Output is "
        "byte-identical either way.",
    )
    mine.add_argument(
        "--profile",
        action="store_true",
        help="run the mine under cProfile and print the top-25 functions "
        "by cumulative time",
    )
    mine.add_argument(
        "--progress",
        action="store_true",
        help="show a live progress line (nodes/sec, pruning ratio, ETA) "
        "on stderr; degrades to periodic plain lines when not a TTY",
    )
    mine.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write a structured JSONL run log (events + final metrics) "
        "to this file; see docs/observability.md for the schema",
    )
    mine.add_argument(
        "--warm-cache",
        metavar="DIR",
        help="answer through the frontier cache in this directory "
        "(filters an entry captured at looser or equal constraints with "
        "no enumeration, otherwise mines serially and adds an entry; "
        "--workers/--steal are ignored; output stays byte-identical to "
        "a cold mine — see docs/performance.md)",
    )

    remine = sub.add_parser(
        "remine",
        help="re-mine under changed constraints through a frontier cache",
        description="Warm re-mine: answer a mine from the frontier cache "
        "written by earlier 'farmer mine --warm-cache DIR' (or 'farmer "
        "remine') runs on the same dataset.  Constraints no looser than "
        "a cached entry's are answered by filtering its recorded "
        "evaluation sequence with zero enumeration; any other query "
        "mines serially once and adds an entry for later filters.  "
        "Output is byte-identical to a cold mine.",
    )
    _add_dataset_arguments(remine)
    remine.add_argument("--consequent", help="class label on the rule RHS "
                        "(default: the dataset's class 1)")
    remine.add_argument("--minsup", type=int, default=5, help="minimum rule support (rows)")
    remine.add_argument("--minconf", type=float, default=0.0, help="minimum confidence [0,1]")
    remine.add_argument("--minchi", type=float, default=0.0, help="minimum chi-square value")
    remine.add_argument("--buckets", type=int, default=10, help="equal-depth buckets")
    remine.add_argument("--top", type=int, default=10, help="groups to print")
    remine.add_argument("--lower-bounds", action="store_true", help="run MineLB on results")
    remine.add_argument("--timeout", type=float, default=300.0, help="mining budget (seconds)")
    remine.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="ignored: warm answers never shard (accepted so 'farmer "
        "mine' command lines work unchanged; must still be positive)",
    )
    remine.add_argument(
        "--steal",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="ignored: warm answers never shard (default: --no-steal)",
    )
    remine.add_argument(
        "--steal-quantum",
        type=int,
        default=None,
        metavar="NODES",
        help="ignored: warm answers never shard",
    )
    remine.add_argument(
        "--engine",
        choices=sorted(ENGINES),
        default=None,
        metavar="NAME",
        help="'reference' captures with the pre-kernel cost model; "
        "'kernel' and 'numpy' are accepted spellings of the default "
        "production engine.  Cache entries are the same bytes either "
        "way.",
    )
    remine.add_argument("--save", help="persist the groups to this .irgs file")
    remine.add_argument(
        "--progress",
        action="store_true",
        help="show a live progress line on stderr",
    )
    remine.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write a structured JSONL run log (events + final metrics) "
        "to this file; see docs/observability.md for the schema",
    )
    remine.add_argument(
        "--warm-cache",
        metavar="DIR",
        required=True,
        help="the frontier cache directory (created on first use)",
    )
    # remine is 'mine' minus cProfile wiring, which stays mine-only.
    remine.set_defaults(profile=False)

    validate = sub.add_parser(
        "validate",
        help="re-check persisted rule groups against their dataset",
    )
    _add_dataset_arguments(validate)
    validate.add_argument("--groups", required=True, help=".irgs file to check")
    validate.add_argument("--buckets", type=int, default=10, help="equal-depth buckets used when mining")

    profile = sub.add_parser(
        "profile", help="pre-mining diagnostics for a dataset"
    )
    _add_dataset_arguments(profile)
    profile.add_argument("--buckets", type=int, default=10, help="equal-depth buckets")

    classify = sub.add_parser("classify", help="run the Table 2 protocol")
    _add_dataset_arguments(classify)
    classify.add_argument(
        "--classifier",
        choices=("irg", "cba", "svm", "tree", "caep"),
        default="irg",
    )
    classify.add_argument("--seed", type=int, default=0, help="split seed")

    experiment = sub.add_parser("experiment", help="regenerate a paper artifact")
    experiment.add_argument(
        "artifact",
        choices=(
            "table1",
            "fig10",
            "fig11",
            "table2",
            "scaling",
            "ablation",
            "crossover",
        ),
    )
    experiment.add_argument(
        "--datasets", nargs="+", metavar="NAME", help="dataset subset (default: all five)"
    )
    experiment.add_argument("--scale", type=float, default=0.08, help="gene-count scale")
    experiment.add_argument("--timeout", type=float, default=60.0, help="per-point budget (s)")

    lint = sub.add_parser(
        "lint", help="run the farmer-lint static-analysis rules"
    )
    add_lint_arguments(lint)

    generate = sub.add_parser("generate", help="write a synthetic dataset to disk")
    generate.add_argument("--dataset", required=True, choices=sorted(PAPER_DATASETS))
    generate.add_argument("--scale", type=float, default=0.08)
    generate.add_argument("--seed", type=int, default=None)
    generate.add_argument("--out", required=True, help="output TSV path")

    serve = sub.add_parser(
        "serve",
        help="run the mining-as-a-service HTTP daemon",
        description="Serve the FARMER HTTP API (docs/serve.md): submit "
        "mining jobs, poll their telemetry-derived status, fetch .irgs "
        "results and cancel runs.  Jobs share a dataset registry and a "
        "warm-frontier cache, so repeat queries answer without a cold "
        "mine; job output is byte-identical to the CLI miner.",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: loopback)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8765,
        help="bind port; 0 picks an ephemeral port and prints it "
        "(default: 8765)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="concurrent mining jobs (default: 2); each job may itself "
        "shard across processes via its own 'workers' knob",
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=16,
        metavar="N",
        help="queued-job cap before submissions get 429 (default: 16)",
    )
    serve.add_argument(
        "--registry-dir",
        default=".farmer-serve",
        metavar="DIR",
        help="state directory: uploaded datasets, the shared "
        "warm-frontier cache and job artifacts (default: .farmer-serve)",
    )
    serve.add_argument(
        "--job-timeout",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="default wall-clock budget per job (default: 300)",
    )
    return parser


def _add_dataset_arguments(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--dataset", choices=sorted(PAPER_DATASETS), help="registry dataset"
    )
    source.add_argument("--tsv", help="expression TSV written by 'farmer generate'")
    parser.add_argument("--scale", type=float, default=0.08, help="gene-count scale")


def _load_matrix(args: argparse.Namespace):
    if getattr(args, "tsv", None):
        from .data.io import load_expression

        return load_expression(args.tsv)
    return load(args.dataset, scale=args.scale)


def _build_telemetry(args: argparse.Namespace):
    """The ``Telemetry`` for a ``mine`` invocation, or ``None``.

    Args:
        args: the parsed ``farmer mine`` namespace.

    Returns:
        A :class:`repro.obs.Telemetry` when ``--progress`` or
        ``--metrics-out`` was given, else ``None`` (telemetry is
        off by default).
    """
    if not (args.progress or args.metrics_out):
        return None
    from .obs import ProgressReporter, RunLog, Telemetry

    return Telemetry(
        runlog=RunLog(args.metrics_out) if args.metrics_out else None,
        progress=ProgressReporter(sys.stderr) if args.progress else None,
    )


def _validate_mine_knobs(args: argparse.Namespace) -> None:
    """Reject bad mining knobs before any work starts.

    Args:
        args: a parsed ``farmer mine``/``farmer remine`` namespace.

    Raises:
        UsageError: a worker count or steal quantum of zero or less —
            caught up front with the flag's own name instead of failing
            deep inside the coordinator — or a ``farmer mine`` with
            ``--steal-quantum`` but no ``--steal``, which would
            otherwise ignore the quantum.  ``farmer remine`` ignores
            every sharding flag (its help says so), the quantum too.
    """
    workers = getattr(args, "workers", None)
    if workers is not None and workers <= 0:
        raise UsageError(
            f"--workers must be a positive worker count, got {workers}"
        )
    quantum = getattr(args, "steal_quantum", None)
    if quantum is not None and quantum <= 0:
        raise UsageError(
            f"--steal-quantum must be a positive node count, got {quantum}"
        )
    if args.command == "mine" and quantum is not None and not args.steal:
        raise UsageError("--steal-quantum requires --steal")


def _validate_serve_knobs(args: argparse.Namespace) -> None:
    """Reject bad ``farmer serve`` knobs before binding a socket.

    Args:
        args: a parsed ``farmer serve`` namespace.

    Raises:
        UsageError: a port outside ``[0, 65535]``, a non-positive
            worker count, queue depth or job timeout — caught up front
            with the flag's own name, mirroring
            :func:`_validate_mine_knobs`.
    """
    if not 0 <= args.port <= 65535:
        raise UsageError(
            f"--port must be a port number in [0, 65535], got {args.port}"
        )
    if args.workers <= 0:
        raise UsageError(
            f"--workers must be a positive worker count, got {args.workers}"
        )
    if args.queue_depth <= 0:
        raise UsageError(
            f"--queue-depth must be a positive job count, "
            f"got {args.queue_depth}"
        )
    if args.job_timeout <= 0:
        raise UsageError(
            f"--job-timeout must be a positive number of seconds, "
            f"got {args.job_timeout}"
        )


def _command_serve(args: argparse.Namespace) -> int:
    _validate_serve_knobs(args)
    from .serve import create_server

    server = create_server(
        host=args.host,
        port=args.port,
        registry_dir=args.registry_dir,
        workers=args.workers,
        queue_depth=args.queue_depth,
        job_timeout=args.job_timeout,
    )
    host, port = server.server_address[:2]
    print(f"serving on http://{host}:{port} (registry: {args.registry_dir})",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        server.shutdown()
        server.app.close()  # type: ignore[attr-defined]
        server.server_close()
    return 0


def _command_mine(args: argparse.Namespace) -> int:
    _validate_mine_knobs(args)
    # Telemetry exists before any work, so a bad --metrics-out path fails
    # up front and the run log covers prep and serialization as phases.
    telemetry = _build_telemetry(args)

    def phase(name: str):
        return nullcontext() if telemetry is None else telemetry.phase(name)

    try:
        miner = Farmer(
            constraints=Constraints(
                minsup=args.minsup, minconf=args.minconf, minchi=args.minchi
            ),
            compute_lower_bounds=args.lower_bounds,
            budget=SearchBudget(max_seconds=args.timeout),
            n_workers=args.workers,
            engine=args.engine,
            steal=args.steal,
            steal_quantum=args.steal_quantum,
            telemetry=telemetry,
            warm_cache=args.warm_cache,
        )
        with phase("load"):
            matrix = _load_matrix(args)
        with phase("discretize"):
            data = EqualDepthDiscretizer(n_buckets=args.buckets).fit_transform(
                matrix
            )
        consequent = args.consequent
        if consequent is None:
            consequent = matrix.class_labels[0]
        with phase("transpose"):
            table = TransposedTable.build(data, consequent)
        if args.profile:
            import cProfile
            import pstats

            profiler = cProfile.Profile()
            profiler.enable()
            try:
                result = miner.mine_table(table)
            finally:
                profiler.disable()
            pstats.Stats(profiler, stream=sys.stdout).sort_stats(
                pstats.SortKey.CUMULATIVE
            ).print_stats(25)
        else:
            result = miner.mine_table(table)
        if args.save:
            from .core.serialize import save_rule_groups

            with phase("serialize"):
                save_rule_groups(
                    args.save,
                    result.groups,
                    constraints=result.constraints,
                    dataset_name=data.name,
                )
    except BaseException:
        if telemetry is not None:
            telemetry.close()
        raise
    frontier_note = None
    if args.warm_cache and telemetry is not None:
        # The warm planner publishes its reuse gauge into the metrics
        # registry; without this read the fraction only reached the
        # JSONL metrics event, never the end-of-run summary.
        reuse = telemetry.registry.snapshot().gauges.get(
            "frontier.reuse_fraction"
        )
        if reuse is not None:
            frontier_note = (
                f"frontier reuse {reuse:.0%} (cache {args.warm_cache})"
            )
    if telemetry is not None:
        summary = (
            f"mined {len(result.groups)} groups in "
            f"{result.elapsed_seconds:.2f}s "
            f"({result.counters.nodes} nodes)"
        )
        if frontier_note is not None:
            summary = f"{summary}; {frontier_note}"
        telemetry.close(summary)
        if args.metrics_out:
            print(f"wrote run log to {args.metrics_out}")
    print(
        f"{len(result.groups)} interesting rule groups "
        f"(consequent={consequent!r}, minsup={args.minsup}, "
        f"minconf={args.minconf}, minchi={args.minchi}; "
        f"{result.elapsed_seconds:.2f}s, {result.counters.nodes} nodes)"
    )
    if frontier_note is not None:
        print(f"warm cache: {frontier_note}")
    if result.parallel is not None:
        print(
            f"sharded across {result.parallel.n_workers} workers "
            f"({result.parallel.n_tasks} subtree tasks)"
        )
        if result.parallel.stealing:
            print(
                f"work stealing: {result.parallel.parts} parts, "
                f"{result.parallel.donations} donations, "
                f"{result.parallel.steals} steals"
            )
    for group in result.sorted_groups()[: args.top]:
        print()
        print(group.format(data))
    if args.save:
        print(f"\nsaved {len(result.groups)} groups to {args.save}")
    return 0


def _command_validate(args: argparse.Namespace) -> int:
    from .core.serialize import load_rule_groups
    from .core.validate import validate_result

    matrix = _load_matrix(args)
    data = EqualDepthDiscretizer(n_buckets=args.buckets).fit_transform(matrix)
    groups, header = load_rule_groups(args.groups)
    problems = validate_result(
        data, groups, consequent=header.get("consequent")
    )
    if problems:
        print(f"{len(problems)} problems:")
        for problem in problems[:20]:
            print(f"  - {problem}")
        return 1
    print(
        f"{len(groups)} rule groups validated against {data.name}: "
        "all invariants hold"
    )
    return 0


def _command_classify(args: argparse.Namespace) -> int:
    # The classifiers (and the baselines CBA mines with) are imported
    # here, not at the top: ``mine`` and ``remine`` never use them.
    from .classify.evaluate import (
        evaluate_matrix_based,
        evaluate_rule_based,
        split_matrix,
    )

    matrix = _load_matrix(args)
    if args.dataset:
        spec = PAPER_DATASETS[args.dataset]
        train_rows, test_rows = train_test_rows(spec, seed=args.seed)
    else:
        split_at = max(1, matrix.n_samples * 2 // 3)
        train_rows = list(range(split_at))
        test_rows = list(range(split_at, matrix.n_samples))
    train, test = split_matrix(matrix, train_rows, test_rows)
    if args.classifier == "svm":
        from .classify.svm import LinearSVM

        accuracy = evaluate_matrix_based(LinearSVM(seed=args.seed), train, test)
    elif args.classifier == "tree":
        from .classify.tree import DecisionTree

        accuracy = evaluate_matrix_based(DecisionTree(), train, test)
    else:
        if args.classifier == "irg":
            from .classify.irg import IRGClassifier

            classifier = IRGClassifier()
        elif args.classifier == "cba":
            from .classify.cba import CBAClassifier

            classifier = CBAClassifier()
        else:  # caep
            from .extensions.emerging import CAEPClassifier

            classifier = CAEPClassifier()
        accuracy = evaluate_rule_based(
            classifier, train, test, discretizer=EntropyMDLDiscretizer()
        )
    print(
        f"{args.classifier.upper()} on {matrix.name}: "
        f"{accuracy:.2%} test accuracy "
        f"({len(train_rows)} train / {len(test_rows)} test samples)"
    )
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    from . import experiments

    datasets = tuple(d.upper() for d in args.datasets) if args.datasets else None
    if args.artifact == "table1":
        rows = experiments.run_table1(
            datasets or experiments.workloads.DATASET_ORDER, scale=args.scale
        )
        print(experiments.table1_report(rows))
    elif args.artifact == "fig10":
        results = experiments.run_fig10(
            datasets or experiments.workloads.DATASET_ORDER,
            scale=args.scale,
            timeout=args.timeout,
        )
        print(experiments.fig10_report(results))
    elif args.artifact == "fig11":
        results = experiments.run_fig11(
            datasets or experiments.workloads.DATASET_ORDER,
            scale=args.scale,
            timeout=args.timeout,
        )
        print(experiments.fig11_report(results))
    elif args.artifact == "table2":
        rows = experiments.run_table2(
            datasets or experiments.workloads.DATASET_ORDER, scale=args.scale
        )
        print(experiments.table2_report(rows))
    elif args.artifact == "scaling":
        name = (datasets or ("CT",))[0]
        series = experiments.run_scaling(
            dataset=name, scale=args.scale, timeout=args.timeout
        )
        print(experiments.scaling_report(series, dataset=name))
    elif args.artifact == "crossover":
        name = (datasets or ("CT",))[0]
        wide = experiments.run_crossover(dataset=name, timeout=args.timeout)
        tall = experiments.run_tall_crossover(dataset=name, timeout=args.timeout)
        print(experiments.crossover_report(wide, tall, dataset=name))
    else:  # ablation
        name = (datasets or ("CT",))[0]
        rows = experiments.run_pruning_ablation(
            dataset=name, scale=min(args.scale, 0.04), timeout=args.timeout
        )
        print(experiments.pruning_ablation_report(rows))
        print()
        result = experiments.run_minelb_ablation(
            dataset=name, scale=min(args.scale, 0.04)
        )
        print(experiments.minelb_ablation_report(result))
    return 0


def _command_profile(args: argparse.Namespace) -> int:
    from .data.profile import profile_dataset, profile_report

    matrix = _load_matrix(args)
    data = EqualDepthDiscretizer(n_buckets=args.buckets).fit_transform(matrix)
    print(profile_report(profile_dataset(data)))
    return 0


def _command_generate(args: argparse.Namespace) -> int:
    from .data.io import save_expression

    matrix = load(args.dataset, scale=args.scale, seed=args.seed)
    save_expression(matrix, args.out)
    print(
        f"wrote {matrix.n_samples} samples x {matrix.n_genes} genes "
        f"({args.dataset}) to {Path(args.out)}"
    )
    return 0


def _command_lint(args: argparse.Namespace) -> int:
    from .analysis.cli import run_lint

    return run_lint(args)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "mine": _command_mine,
        "remine": _command_mine,
        "classify": _command_classify,
        "experiment": _command_experiment,
        "generate": _command_generate,
        "validate": _command_validate,
        "profile": _command_profile,
        "serve": _command_serve,
        "lint": _command_lint,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
