"""Persistence for mined rule groups and frontier-cache entries.

Mining a low-support sweep can take minutes and produce thousands of
groups; downstream analysis (classification, networks, reports) should
not have to re-mine.  This module round-trips rule groups through a
line-oriented JSON format (``*.irgs``):

* line 1 — a header object with the dataset name, consequent, dataset
  constants ``(n, m)``, the constraints used, and a format version;
* one JSON object per group — upper bound, rows, supports and (when
  computed) lower bounds.

Item ids are written as ints; the dataset's ``item_names`` are *not*
embedded (persist the dataset itself with :mod:`repro.data.io`).

This module is also the *only* place core code touches bytes on disk
(farmer-lint rule FRM007 enforces this): the warm cache's frontier
entries (:mod:`repro.core.frontier`) go through :func:`save_checkpoint`
/ :func:`load_checkpoint`, a two-line envelope hardened for crash
consistency —

* line 1 — ``{"format": "repro-checkpoint/1", "sha256": ...}`` (the
  caller's version tag, ``frontier.FRONTIER_ENVELOPE``);
* line 2 — the canonical-JSON payload the checksum covers.

Writes are atomic and durable (temp file in the target directory,
``fsync``, ``os.replace``, directory ``fsync``), so a reader never sees
a half-written file: it sees the previous complete one until the rename
lands.  A truncated or bit-flipped file fails the checksum and is
rejected with :class:`~repro.errors.DataError`; an envelope written in
another format version, older or newer, is refused with
:class:`~repro.errors.UsageError` instead of being misread.
"""

from __future__ import annotations

import hashlib
import json
import os
import stat
from pathlib import Path
from typing import Hashable

from ..core.constraints import Constraints
from ..core.rulegroup import RuleGroup
from ..errors import DataError, UsageError

__all__ = [
    "save_rule_groups",
    "load_rule_groups",
    "canonical_json",
    "save_checkpoint",
    "load_checkpoint",
]

_FORMAT = "repro-irgs/1"

#: What every envelope version tag starts with: a file carrying another
#: version is refused as such, not as a foreign file.
_CHECKPOINT_PREFIX = "repro-checkpoint/"


def save_rule_groups(
    path: str | Path,
    groups: list[RuleGroup],
    constraints: Constraints | None = None,
    dataset_name: str = "dataset",
) -> None:
    """Write ``groups`` (all sharing one consequent) to ``path``.

    Args:
        path: destination ``.irgs`` file.
        groups: the rule groups of one mining run.
        constraints: the thresholds recorded in the header, if any.
        dataset_name: dataset label recorded in the header.

    An existing file is rewritten in place, not truncated first; a
    rewrite torn by a crash fails :func:`load_rule_groups`'s checks
    (see :func:`_rewrite`).

    Raises:
        DataError: if the groups carry mixed consequents or disagree on
            the dataset constants.
    """
    path = Path(path)
    if groups:
        consequent = groups[0].consequent
        n, m = groups[0].n, groups[0].m
        for group in groups:
            if group.consequent != consequent or (group.n, group.m) != (n, m):
                raise DataError(
                    "save_rule_groups needs groups from one mining run "
                    "(same consequent and dataset constants)"
                )
    else:
        consequent, n, m = None, 0, 0

    header = {
        "format": _FORMAT,
        "dataset": dataset_name,
        "consequent": consequent,
        "n": n,
        "m": m,
        "constraints": (
            {
                "minsup": constraints.minsup,
                "minconf": constraints.minconf,
                "minchi": constraints.minchi,
            }
            if constraints is not None
            else None
        ),
        "count": len(groups),
    }
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(map(_record_line, groups))
    _rewrite(path, ("\n".join(lines) + "\n").encode("utf-8"))


def _rewrite(path: Path, data: bytes) -> None:
    """Make ``data`` the whole content of ``path``, rewriting it in place.

    An existing file is opened without truncation, overwritten and then
    trimmed to ``len(data)``.  Truncating first frees the old blocks,
    which costs a re-query that rewrites one output file far more than
    the write: on ext4 mounted with ``discard``, ~130-170 µs against
    ~12 µs in place.  A new file gets ``open(path, "w")``'s mode.  Only
    a regular file is trimmed, so ``/dev/null``, a FIFO or a pipe still
    work as destinations.

    A crash between the write and the trim leaves the new bytes followed
    by a tail of the old file.  :func:`load_rule_groups` rejects such a
    file: the tail is either a broken record or records past the
    header's ``count``.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view) :]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


#: One group's line: ``json.dumps(record, sort_keys=True)``'s layout.
_RECORD = (
    '{"antecedent_support": %d, "lower_bounds": %s, "rows": [%s], '
    '"support": %d, "upper": [%s]}'
)


def _ids(ids) -> str:
    """Sorted ids as the inside of a JSON list (``json``'s separators)."""
    return ", ".join(map(int.__repr__, sorted(ids)))


def _record_line(group: RuleGroup) -> str:
    """One group's ``.irgs`` line.

    Exactly ``json.dumps(record, sort_keys=True)`` of the record
    ``{"upper", "rows", "support", "antecedent_support",
    "lower_bounds"}`` (ids sorted, ``null`` when MineLB did not run),
    written without building the dict or an encoder per group.
    """
    bounds = group.lower_bounds
    lower = (
        "null"
        if bounds is None
        else "[" + ", ".join(["[%s]" % _ids(bound) for bound in bounds]) + "]"
    )
    return _RECORD % (
        group.antecedent_support,
        lower,
        _ids(group.rows),
        group.support,
        _ids(group.upper),
    )


def _list(value: object, what: str) -> list:
    """``value`` if it is a JSON list, else a :class:`DataError` naming it."""
    if not isinstance(value, list):
        raise DataError(f"{what} must be a list, got {type(value).__name__}")
    return value


def _int(value: object, what: str) -> int:
    """``value`` if it is a JSON integer, else a :class:`DataError`
    naming it (``true``/``false`` are not integers here)."""
    if type(value) is not int:
        raise DataError(f"{what} must be an integer, got {type(value).__name__}")
    return value


def _id_set(value: object, what: str) -> frozenset[int]:
    """A record's id list as a set of integers."""
    return frozenset(_int(item, f"{what} id") for item in _list(value, what))


def load_rule_groups(
    path: str | Path,
) -> tuple[list[RuleGroup], dict]:
    """Read groups written by :func:`save_rule_groups`.

    Returns:
        ``(groups, header)`` where ``header`` is the metadata dict
        (dataset name, consequent, constraints, ...).

    JSON stringifies non-string consequents; mining consequents are
    usually class-label strings, which round-trip exactly.
    """
    path = Path(path)
    lines = [
        line for line in path.read_text(encoding="utf-8").splitlines() if line
    ]
    if not lines:
        raise DataError(f"{path}: empty rule-group file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}:1: bad header ({exc})") from exc
    if not isinstance(header, dict):
        raise DataError(
            f"{path}:1: header must be a JSON object, got "
            f"{type(header).__name__}"
        )
    if header.get("format") != _FORMAT:
        raise DataError(
            f"{path}: expected format {_FORMAT!r}, got {header.get('format')!r}"
        )
    try:
        consequent: Hashable = header["consequent"]
        n, m = header["n"], header["m"]
    except KeyError as exc:
        raise DataError(f"{path}:1: header misses {exc}") from exc
    groups: list[RuleGroup] = []
    for line_number, line in enumerate(lines[1:], start=2):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"{path}:{line_number}: bad record ({exc})") from exc
        try:
            if not isinstance(record, dict):
                raise DataError(
                    f"record must be a JSON object, got {type(record).__name__}"
                )
            bounds = record.get("lower_bounds")
            groups.append(
                RuleGroup(
                    upper=_id_set(record["upper"], "upper"),
                    consequent=consequent,
                    rows=_id_set(record["rows"], "rows"),
                    support=_int(record["support"], "support"),
                    antecedent_support=_int(
                        record["antecedent_support"], "antecedent_support"
                    ),
                    n=n,
                    m=m,
                    lower_bounds=(
                        None
                        if bounds is None
                        else tuple(
                            _id_set(bound, "lower bound")
                            for bound in _list(bounds, "lower_bounds")
                        )
                    ),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{path}:{line_number}: {exc}") from exc
    if header.get("count") != len(groups):
        raise DataError(
            f"{path}: header promises {header.get('count')} groups, "
            f"found {len(groups)}"
        )
    return groups, header


# ----------------------------------------------------------------------
# Checkpoint envelope
# ----------------------------------------------------------------------


#: ``json.dumps(payload, sort_keys=True, separators=(",", ":"))`` as one
#: shared encoder: ``dumps`` builds a new encoder on every call with
#: non-default arguments.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(payload: object) -> str:
    """One canonical text for a JSON-able value (sorted keys, no spaces).

    Used for envelope payloads and cache fingerprints: equal values
    produce equal bytes, so serialize -> deserialize -> serialize is the
    identity on bytes.
    """
    return _CANONICAL.encode(payload)


def _write_durable(path: Path, text: str) -> None:
    """Atomically replace ``path`` with ``text``, surviving a crash.

    The temp file lives in the target directory so ``os.replace`` is a
    same-filesystem rename; data is fsync'd before the rename.  A crash
    at any point leaves either the old complete file or the new complete
    file, never a mix.  The directory entry is fsync'd only when ``path``
    did not exist before: replacing an already-durable entry satisfies
    old-or-new without it (an un-synced rename resolves to the old
    inode, whose contents were fsync'd by the write that created it),
    and skipping it halves the fsync cost of repeated writes.
    """
    existed = path.exists()
    temporary = path.with_name(path.name + ".tmp")
    with open(temporary, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temporary, path)
    if existed:
        return
    try:
        directory_fd = os.open(path.parent or Path("."), os.O_RDONLY)
    except OSError:
        return  # platforms without directory fds: the rename is still atomic
    try:
        os.fsync(directory_fd)
    finally:
        os.close(directory_fd)


def save_checkpoint(path: str | Path, payload: dict, fmt: str) -> None:
    """Write ``payload`` as a versioned, checksummed envelope file.

    Args:
        path: destination file.
        payload: JSON-able state; callers (``core.frontier``) build it
            from their state objects.
        fmt: the header's version tag.

    The write is atomic and fsync'd — see :func:`_write_durable`.
    """
    body = canonical_json(payload)
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    header = canonical_json({"format": fmt, "sha256": digest})
    _write_durable(Path(path), header + "\n" + body + "\n")


def load_checkpoint(path: str | Path, fmt: str) -> dict:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Args:
        path: the checkpoint file.
        fmt: the version tag its header must carry.

    Returns:
        The decoded payload.

    Raises:
        DataError: missing/unreadable file, unrecognised contents, or a
            checksum mismatch (truncation, corruption) — never a silent
            wrong answer.
        UsageError: the file is an envelope of a *different* format
            version; reading it would misinterpret the state.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"{path}: cannot read checkpoint ({exc})") from exc
    lines = text.splitlines()
    if not lines:
        raise DataError(f"{path}: empty checkpoint file")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}:1: bad checkpoint header ({exc})") from exc
    if not isinstance(header, dict):
        raise DataError(f"{path}: checkpoint header is not an object")
    found = header.get("format")
    if found != fmt:
        if isinstance(found, str) and found.startswith(_CHECKPOINT_PREFIX):
            raise UsageError(
                f"{path}: checkpoint format {found!r} is not supported by "
                f"this build (expects {fmt!r})"
            )
        raise DataError(
            f"{path}: not a checkpoint file (format {found!r}, expected "
            f"{fmt!r})"
        )
    if len(lines) < 2:
        raise DataError(f"{path}: truncated checkpoint (payload missing)")
    body = lines[1]
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    if digest != header.get("sha256"):
        raise DataError(
            f"{path}: checkpoint checksum mismatch (truncated or corrupt "
            "file); delete it"
        )
    try:
        payload = json.loads(body)
    except json.JSONDecodeError as exc:  # unreachable unless sha collides
        raise DataError(f"{path}:2: bad checkpoint payload ({exc})") from exc
    if not isinstance(payload, dict):
        raise DataError(f"{path}: checkpoint payload is not an object")
    return payload
