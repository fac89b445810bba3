"""The ``farmer lint`` subcommand.

Mirrors the ``mine`` UX: argparse-validated flags (declared in
:mod:`~repro.analysis.options`), a one-line error on bad arguments, and
plain-text output by default::

    farmer lint src/repro
    farmer lint src/repro --format json
    farmer lint src/repro --format sarif
    farmer lint src/repro --baseline .farmer-lint-baseline.json
    farmer lint src/repro --update-baseline
    farmer lint src/repro --no-cache
    farmer lint --list-rules

Exit codes: ``0`` clean (or everything baselined), ``1`` new findings,
``2`` bad arguments (missing path, unreadable baseline).

Re-runs are accelerated by an mtime-keyed cache of parsed ASTs and
per-module findings (``.farmer-lint-cache``, gitignored); ``--no-cache``
disables both reading and writing it.
"""

from __future__ import annotations

import argparse
from pathlib import Path

from ..errors import ReproError
from .baseline import load_baseline, partition, save_baseline
from .cache import LintCache
from .engine import Engine
from .options import DEFAULT_BASELINE_NAME
from .reporters import render_json, render_sarif, render_text
from .rules import ALL_RULES

__all__ = ["run_lint"]

#: Linted when no paths are given: the installed package tree.
_PACKAGE_ROOT = Path(__file__).resolve().parent.parent


def run_lint(args: argparse.Namespace) -> int:
    """Execute ``farmer lint``; returns the process exit code."""
    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.rule_id} [{rule.name}] {rule.description}")
        return 0

    paths = args.paths or [_PACKAGE_ROOT]
    engine = Engine()
    cache = None
    if not args.no_cache:
        cache = LintCache(Path(args.cache_file), engine.cache_signature())
    try:
        result = engine.lint_paths(paths, cache=cache)
    except ReproError as error:
        print(f"error: {error}")
        return 2
    if cache is not None:
        cache.save()

    baseline_path = args.baseline
    if baseline_path is None and Path(DEFAULT_BASELINE_NAME).is_file():
        baseline_path = DEFAULT_BASELINE_NAME

    if args.update_baseline:
        target = baseline_path or DEFAULT_BASELINE_NAME
        save_baseline(target, result.findings)
        print(
            f"wrote {len(result.findings)} finding"
            f"{'' if len(result.findings) == 1 else 's'} to {target}"
        )
        return 0

    if baseline_path is not None:
        try:
            baseline = load_baseline(baseline_path)
        except ReproError as error:
            print(f"error: {error}")
            return 2
        result.findings, result.baselined = partition(result.findings, baseline)

    renderers = {"text": render_text, "json": render_json, "sarif": render_sarif}
    print(renderers[args.format](result))
    return 1 if result.findings else 0
