"""Help-text goldens: the ``farmer`` parser prints exactly what it did.

``cli_help_golden.json`` holds ``farmer --help``, ``farmer <cmd> --help``
for every subcommand and ``farmer lint --list-rules``, captured at 80
columns before the lint flags moved to :mod:`repro.analysis.options` and
the package roots went lazy.  Argparse lays help out differently across
Python minor versions, so the help goldens are compared only on the
version that captured them; the rule list is compared everywhere.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "cli_help_golden.json").read_text(
        encoding="utf-8"
    )
)
SAME_PYTHON = GOLDEN["python"] == "%d.%d" % sys.version_info[:2]


def _output(command: str, capsys, monkeypatch) -> str:
    monkeypatch.setenv("COLUMNS", str(GOLDEN["columns"]))
    try:
        code = main(command.split())
    except SystemExit as exit_:
        code = exit_.code
    assert code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    return captured.out


@pytest.mark.skipif(
    not SAME_PYTHON,
    reason=f"help goldens were captured on Python {GOLDEN['python']}",
)
@pytest.mark.parametrize(
    "command", sorted(c for c in GOLDEN["outputs"] if c.endswith("--help"))
)
def test_help_matches_golden(command, capsys, monkeypatch):
    assert _output(command, capsys, monkeypatch) == GOLDEN["outputs"][command]


def test_list_rules_matches_golden(capsys, monkeypatch):
    command = "lint --list-rules"
    assert _output(command, capsys, monkeypatch) == GOLDEN["outputs"][command]


def test_every_subcommand_has_a_golden():
    from repro.cli import build_parser

    (subparsers,) = build_parser()._subparsers._group_actions
    assert {f"{name} --help" for name in subparsers.choices} | {"--help"} == {
        c for c in GOLDEN["outputs"] if c.endswith("--help")
    }
