"""Baseline files: grandfathered findings that do not fail the build.

A baseline is a committed JSON file listing findings by *fingerprint*
(path + rule + message, no line numbers, so unrelated edits do not
invalidate it).  ``farmer lint --update-baseline`` rewrites it; a lint
run then reports only findings beyond the baselined multiset.  The goal
state is an empty baseline — the shipped one is empty for the whole
tree — but the mechanism lets a new rule land before every legacy
violation is fixed.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Sequence

from ..errors import DataError
from .base import Finding

__all__ = [
    "BASELINE_VERSION",
    "load_baseline",
    "save_baseline",
    "partition",
]

#: Schema version written to and required from baseline files.
BASELINE_VERSION = 1


def _fingerprint(path: str, rule: str, message: str) -> str:
    return f"{path}::{rule}::{message}"


def load_baseline(path: Path | str) -> Counter[str]:
    """Load a baseline file into a fingerprint multiset.

    Raises:
        DataError: when the file is missing, malformed JSON, or has an
            unknown schema version.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise DataError(f"baseline file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict) or payload.get("version") != BASELINE_VERSION:
        raise DataError(
            f"{path}: expected a farmer-lint baseline with "
            f"version={BASELINE_VERSION}"
        )
    counter: Counter[str] = Counter()
    for entry in payload.get("findings", []):
        try:
            counter[
                _fingerprint(entry["path"], entry["rule"], entry["message"])
            ] += 1
        except (TypeError, KeyError) as exc:
            raise DataError(
                f"{path}: baseline entry missing path/rule/message: {entry!r}"
            ) from exc
    return counter


def save_baseline(path: Path | str, findings: Sequence[Finding]) -> None:
    """Write ``findings`` as the new baseline (sorted, stable output)."""
    entries = [
        {"path": f.path, "rule": f.rule_id, "message": f.message}
        for f in sorted(findings, key=lambda f: f.sort_key)
    ]
    payload = {"version": BASELINE_VERSION, "findings": entries}
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def partition(
    findings: Sequence[Finding], baseline: Counter[str]
) -> tuple[list[Finding], list[Finding]]:
    """Split findings into ``(new, baselined)`` against a baseline.

    Matching consumes baseline entries with multiplicity, so two
    identical violations with one baselined occurrence report one new
    finding.
    """
    remaining = Counter(baseline)
    new: list[Finding] = []
    grandfathered: list[Finding] = []
    for finding in findings:
        if remaining[finding.fingerprint] > 0:
            remaining[finding.fingerprint] -= 1
            grandfathered.append(finding)
        else:
            new.append(finding)
    return new, grandfathered
