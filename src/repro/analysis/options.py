"""The ``farmer lint`` flags and the default file names they name.

A leaf module (it imports only :mod:`argparse`), so building the
``farmer`` parser does not load the lint engine: the rules, the project
index and the reporters load only when ``farmer lint`` runs
(:mod:`repro.analysis.cli`).
"""

from __future__ import annotations

import argparse

__all__ = ["DEFAULT_BASELINE_NAME", "DEFAULT_CACHE_NAME", "add_lint_arguments"]

#: Default cache filename, resolved against the working directory.
DEFAULT_CACHE_NAME = ".farmer-lint-cache"

#: File name probed in the working directory when ``--baseline`` is not
#: given.
DEFAULT_BASELINE_NAME = ".farmer-lint-baseline.json"


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint flags to the ``lint`` subparser."""
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help=f"ignore and do not write the {DEFAULT_CACHE_NAME} cache",
    )
    parser.add_argument(
        "--cache-file",
        metavar="FILE",
        default=DEFAULT_CACHE_NAME,
        help=f"cache file location (default: {DEFAULT_CACHE_NAME})",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        help="baseline file of grandfathered findings "
        f"(default: {DEFAULT_BASELINE_NAME} when it exists)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline with the current findings and exit 0",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
