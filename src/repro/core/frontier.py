"""Warm re-mining: a persistent evaluation cache for constraint changes.

FARMER users explore interactively — nudge ``minsup``/``minconf``/
``minchi`` and look at the rule groups again — but a cold mine restarts
row enumeration from the root every time.  This module makes a tighter
re-mine reuse an earlier one while keeping the answer **byte-identical
to a cold mine**:

* A cache-miss mine is the cold mine's serial search
  (:meth:`~repro.core.farmer.Farmer._search`), whose sink also keeps
  its *evaluation sequence*: the Step-7 candidate
  ``[item_ids, supp, supn, row_mask]`` of every explored node that
  meets the capture's thresholds, in Lemma-3.4 discovery order, before
  the interestingness check.  Nothing else is kept — no conditional
  table, no pruned node.
* The entry is persisted through the checksummed, fsync'd
  :mod:`repro.core.serialize` envelope
  (:func:`~repro.core.serialize.save_checkpoint` with
  :data:`FRONTIER_ENVELOPE`, ``repro-checkpoint/1``), keyed by a dataset
  fingerprint plus a constraint key.  Item ids are stored as ascending
  lists (:func:`candidate_row`), never as item bitmasks, so entries
  stay encodable at any item count and their bytes are identical
  whichever engine captured them.
* A later mine consults the planner, which has two answers:

  - *a covering entry* (no knob looser than the entry's) — the
    requested thresholds explore a subtree of the captured tree, so the
    answer is the captured evaluations re-filtered through
    :meth:`~repro.core.constraints.Constraints.satisfied_by` and
    offered to Step-7 admission in order, with **zero enumeration**;
  - *anything else* (no entry, or every entry has a looser-than-cached
    knob) — a serial capture at the requested constraints, which
    answers the query and adds one more entry.

Correctness rests on two facts.  First, the enumeration tree's shape —
children, Pruning-1 compression, Pruning-2 cuts — and the Pruning-3
bound *values* are constraint-independent; constraints only decide
where bounds fire.  Tightening therefore shrinks the explored tree, so
every node explored under the tighter constraints was already explored
by the capture, in the same relative order.  Second, the thresholds
are monotone: a candidate that meets the tighter thresholds met the
capture's, so it is in the entry, and one that failed the capture's
can never be needed.

A loosened query is a capture, at about a cold mine's cost.  Resuming
below the captured tree's bound-pruned nodes instead would mean storing
every one of them — 85-95% of the tree, each with its conditional
table — and measured slower than the cold mine it saves
(``docs/performance.md``).

Warm results differ from cold ones only in the reported search
*counters* (a filter-only answer expands zero nodes); the groups, their
order, and the saved ``.irgs`` bytes are identical, which the property
suite and the perf gate pin.  A warm answer never shards: captures walk
serially and filters do no enumeration, so ``n_workers`` and ``steal``
are ignored.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from ..data.transpose import TransposedTable
from ..errors import (
    ConstraintError,
    DataError,
    ReproError,
    UsageError,
)
from .constraints import Constraints
from .enumeration import NodeCounters
from .farmer import Candidate, _IRGStore, _phase
from .serialize import canonical_json, load_checkpoint, save_checkpoint

if TYPE_CHECKING:
    from .farmer import Farmer
    from .kernel import ScanStats

__all__ = [
    "FRONTIER_ENVELOPE",
    "FRONTIER_KIND",
    "FRONTIER_SUFFIX",
    "cache_entries",
    "candidate_from_row",
    "candidate_row",
    "entry_path",
    "frontier_fingerprint",
    "load_entry",
    "warm_mine_table",
]

#: Payload tag of one persisted frontier entry (inside the checkpoint
#: envelope of :mod:`repro.core.serialize`); bump on layout changes.
#: The tag is hashed into every entry's file name, so entries of another
#: layout sit beside the current ones and are skipped, never misread.
FRONTIER_KIND = "repro-frontier/2"

#: Envelope tag of every entry, kept at the envelope's first version so
#: existing caches stay readable; entry layouts bump FRONTIER_KIND.
FRONTIER_ENVELOPE = "repro-checkpoint/1"

#: Filename suffix of persisted frontier entries.
FRONTIER_SUFFIX = ".frontier"

#: The integer counts every entry's ``stats`` block carries.
_STATS_FIELDS = ("evals", "nodes")


# ----------------------------------------------------------------------
# Candidate codec
# ----------------------------------------------------------------------


def candidate_row(candidate: Candidate) -> list:
    """One candidate as the persisted ``[item_ids, supp, supn, row_mask]`` row.

    Item ids travel as a list, never as an item bitmask: a mask over a
    paper-sized item universe (tens of thousands of items) passes
    Python's int-to-text digit limit, while an id list only grows with
    the antecedent.
    """
    return [
        list(candidate.item_ids),
        candidate.supp,
        candidate.supn,
        candidate.row_mask,
    ]


def candidate_from_row(row: object, where: str) -> Candidate:
    """The :class:`Candidate` of one :func:`candidate_row` row.

    Args:
        row: the decoded JSON value.
        where: what holds the row, for the error message.

    Returns:
        The candidate.

    Raises:
        DataError: the row is not four fields, it has no item ids (no
            walk emits an empty antecedent, and Step 7's store has no
            chain for one), a count is not an int (bools included), or
            an item id is not a non-negative int.
    """
    if not isinstance(row, list) or len(row) != 4 or not isinstance(row[0], list):
        raise DataError(f"{where}: malformed candidate")
    item_ids, supp, supn, row_mask = row
    if not item_ids:
        raise DataError(f"{where}: candidate has no item ids")
    for value in item_ids:
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise DataError(f"{where}: malformed candidate item id")
    for value in (supp, supn, row_mask):
        if isinstance(value, bool) or not isinstance(value, int):
            raise DataError(f"{where}: malformed candidate count")
    return Candidate(tuple(item_ids), supp, supn, row_mask)


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------


def frontier_fingerprint(table: TransposedTable, prunings: Sequence[str]) -> str:
    """The cache key's dataset half: what pins the enumeration tree.

    Covers the dataset constants, the consequent, every item's row
    bitset, the class split and the enabled prunings (prunings change
    the tree shape, so entries are only reusable under the same set).
    The engine is deliberately *not* covered: entries are serialized in
    an engine-invariant canonical form.  The digest is computed once per
    table and pruning set (kept in ``table.memo``), so repeated queries
    on one table, such as served jobs on the registry's cached table,
    hash the item masks only once.

    Args:
        table: the transposed table being mined.
        prunings: enabled pruning strategy names.

    Returns:
        A sha256 hex digest.
    """
    enabled = sorted(prunings)
    key = ("frontier_fingerprint", *enabled)
    digest = table.memo.get(key)
    if digest is None:
        # Threads racing here compute the same digest; either store wins.
        payload = [
            table.n,
            table.m,
            str(table.consequent),
            list(table.item_masks),
            table.positive_mask,
            enabled,
        ]
        digest = hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()
        table.memo[key] = digest
    return digest


def _constraints_key(constraints: Constraints) -> str:
    """The cache key's constraint half (hex digest of the entry layout
    tag and the thresholds)."""
    payload = [
        FRONTIER_KIND,
        constraints.minsup,
        constraints.minconf,
        constraints.minchi,
    ]
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def entry_path(
    directory: str | Path, fingerprint: str, constraints: Constraints
) -> Path:
    """Where the entry for ``(fingerprint, constraints)`` lives on disk.

    The filename carries prefixes of both key halves so the planner can
    glob a dataset's entries cheaply; the full fingerprint is verified
    against the payload after loading.

    Args:
        directory: the warm-cache directory.
        fingerprint: :func:`frontier_fingerprint` of the run.
        constraints: the capture's thresholds.

    Returns:
        The entry's path (the file need not exist).
    """
    name = f"{fingerprint[:20]}-{_constraints_key(constraints)[:20]}"
    return Path(directory) / f"{name}{FRONTIER_SUFFIX}"


# ----------------------------------------------------------------------
# Entry serialization
# ----------------------------------------------------------------------


def _save_entry(
    path: Path,
    fingerprint: str,
    constraints: Constraints,
    evals: Sequence[Candidate],
    nodes: int,
) -> None:
    """Persist one captured evaluation sequence through the
    :mod:`~repro.core.serialize` envelope, item ids ascending whatever
    the capturing engine."""
    rows = []
    for candidate in evals:
        row = candidate_row(candidate)
        row[0].sort()
        rows.append(row)
    payload = {
        "kind": FRONTIER_KIND,
        "fingerprint": fingerprint,
        "constraints": [
            constraints.minsup,
            constraints.minconf,
            constraints.minchi,
        ],
        "evals": rows,
        "stats": {"evals": len(rows), "nodes": nodes},
    }
    save_checkpoint(path, payload, FRONTIER_ENVELOPE)


def _expect_int(value, what: str, path) -> int:
    """``value`` as a non-bool int, or :class:`~repro.errors.DataError`."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DataError(f"{path}: frontier entry field {what} is not an int")
    return value


def _load_header(path: str | Path, fingerprint: "str | None") -> dict:
    """Read one entry and validate its envelope, key halves and stats.

    ``payload["constraints"]`` is replaced by a
    :class:`~repro.core.constraints.Constraints`; ``fingerprint=None``
    accepts any dataset.  Raises :class:`~repro.errors.DataError` (or
    :class:`~repro.errors.UsageError` for a newer envelope) on damage.
    """
    payload = load_checkpoint(path, FRONTIER_ENVELOPE)
    if payload.get("kind") != FRONTIER_KIND:
        raise DataError(
            f"{path}: not a frontier entry "
            f"(kind {payload.get('kind')!r}, expected {FRONTIER_KIND!r})"
        )
    entry_fingerprint = payload.get("fingerprint")
    if not isinstance(entry_fingerprint, str) or (
        fingerprint is not None and entry_fingerprint != fingerprint
    ):
        raise DataError(
            f"{path}: frontier entry belongs to a different dataset or "
            "pruning set"
        )
    raw = payload.get("constraints")
    if not isinstance(raw, list) or len(raw) != 3:
        raise DataError(f"{path}: frontier entry constraints are malformed")
    try:
        payload["constraints"] = Constraints(
            minsup=_expect_int(raw[0], "minsup", path),
            minconf=float(raw[1]),
            minchi=float(raw[2]),
        )
    except (ConstraintError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: bad frontier constraints ({exc})") from exc
    stats = payload.get("stats")
    if not isinstance(stats, dict):
        raise DataError(f"{path}: frontier entry body is malformed")
    for field in _STATS_FIELDS:
        _expect_int(stats.get(field), f"stats.{field}", path)
    return payload


def load_entry(path: str | Path, fingerprint: str) -> dict:
    """Read and validate one frontier entry.

    Args:
        path: the ``.frontier`` file.
        fingerprint: the expected :func:`frontier_fingerprint`; entries
            from other datasets/prunings are rejected.

    Returns:
        The validated payload dict; ``payload["constraints"]`` is
        replaced by a :class:`~repro.core.constraints.Constraints` and
        ``payload["evals"]`` by the decoded :class:`Candidate` list.

    Raises:
        DataError: corrupt envelope, foreign payload, or malformed
            fields (the planner treats all of these as a cache miss).
        UsageError: an envelope written by a newer format version.
    """
    payload = _load_header(path, fingerprint)
    rows = payload.get("evals")
    if not isinstance(rows, list) or len(rows) != payload["stats"]["evals"]:
        raise DataError(f"{path}: frontier entry body is malformed")
    where = f"{path}: frontier evaluation"
    payload["evals"] = [candidate_from_row(row, where) for row in rows]
    return payload


def cache_entries(
    directory: str | Path, fingerprint: "str | None" = None
) -> list[dict]:
    """Inventory a warm-cache directory: one summary per valid entry.

    This is the registry-keyed view of the cache that long-lived hosts
    (the ``farmer serve`` dataset registry, ``docs/serve.md``) use to
    report which constraint captures exist for a dataset without paying
    for decoding the evaluations: only each entry's envelope, key
    halves and stats block are touched.

    Args:
        directory: the warm-cache directory (missing or empty yields
            ``[]``).
        fingerprint: when given, only entries whose payload fingerprint
            matches exactly (the filename's 20-hex-char prefix is used
            to pre-filter, then verified against the payload).

    Returns:
        Summaries sorted by filename, each with ``path`` (str),
        ``fingerprint``, ``constraints``
        (:class:`~repro.core.constraints.Constraints`) and ``stats``
        (the capture's ``evals`` / ``nodes`` ints).  Corrupt, foreign or
        other-layout files are skipped, mirroring the planner's
        miss-on-damage policy.
    """
    root = Path(directory)
    if not root.is_dir():
        return []
    entries: list[dict] = []
    for path in sorted(root.glob(f"*{FRONTIER_SUFFIX}")):
        if fingerprint is not None and not path.name.startswith(
            fingerprint[:20]
        ):
            continue
        try:
            payload = _load_header(path, fingerprint)
        except ReproError:
            continue
        entries.append(
            {
                "path": str(path),
                "fingerprint": payload["fingerprint"],
                "constraints": payload["constraints"],
                "stats": {
                    field: payload["stats"][field] for field in _STATS_FIELDS
                },
            }
        )
    return entries


#: Decoded entries kept in memory, keyed by ``(path, size, mtime_ns)``;
#: a replaced file changes the key, so staleness self-invalidates.  The
#: memo is what makes steady-state re-mines sub-millisecond: the first
#: query against an entry pays the disk read, JSON parse and decode,
#: every later one starts from here.  A capture seeds the memo with
#: the entry it just wrote.  Each value is ``(constraints, evals,
#: built)``: ``built`` keeps the rule groups answers from the entry
#: have built (:func:`_built_groups`).
_entry_memo: "dict[tuple[str, int, int], tuple[Constraints, list[Candidate], dict]]" = {}

#: Entries retained in :data:`_entry_memo` (FIFO beyond this).
_MEMO_CAP = 4


def _memo_key(path: Path) -> tuple[str, int, int]:
    """The memo key of the file at ``path`` as it is now."""
    stat = path.stat()
    return (str(path), stat.st_size, stat.st_mtime_ns)


def _remember(
    key: tuple[str, int, int], constraints: Constraints, evals: list[Candidate]
) -> tuple[Constraints, list[Candidate], dict]:
    """Put one decoded entry in the memo, evicting the oldest; returns
    the memo's value for it."""
    while len(_entry_memo) >= _MEMO_CAP:
        del _entry_memo[next(iter(_entry_memo))]
    entry = _entry_memo[key] = (constraints, evals, {})
    return entry


def _built_groups(built: dict, table: TransposedTable) -> dict:
    """The rule groups already built from one memo entry for ``table``,
    by row mask, to hand to the answer's store (``_IRGStore.built``).

    A group is a function of its candidate and of the table's
    consequent and ORD-to-original row map; the fingerprint pins the
    candidates but not the row map (two row orders can share ORD
    masks), so the groups are kept per ``(consequent,
    ord_to_original)``.
    """
    return built.setdefault((table.consequent, table.ord_to_original), {})


def _load_entry_cached(
    path: Path, fingerprint: str
) -> tuple[Constraints, list[Candidate], dict]:
    """:func:`load_entry` with the in-process memo in front.

    Args:
        path: the ``.frontier`` file.
        fingerprint: the expected dataset fingerprint.

    Returns:
        ``(constraints, evals, built)`` — the entry's capture thresholds,
        its decoded evaluation sequence and the groups built from it
        (:func:`_built_groups`), shared across queries (treat the
        sequence as read-only).

    Raises:
        DataError: as :func:`load_entry`.
        UsageError: as :func:`load_entry`.
    """
    key = _memo_key(path)
    hit = _entry_memo.get(key)
    if hit is not None:
        return hit
    payload = load_entry(path, fingerprint)
    return _remember(key, payload["constraints"], payload["evals"])


# ----------------------------------------------------------------------
# The planner
# ----------------------------------------------------------------------


def _covers(cached: Constraints, requested: Constraints) -> bool:
    """Whether an entry captured under ``cached`` contains the whole
    tree the ``requested`` constraints would explore (no knob looser)."""
    return (
        cached.minsup <= requested.minsup
        and cached.minconf <= requested.minconf
        and cached.minchi <= requested.minchi
    )


def _set_reuse(telemetry, fraction: float) -> None:
    """Publish the ``frontier.reuse_fraction`` gauge: the share of the
    answer's evaluations read from the cache instead of enumerated."""
    if telemetry is not None:
        telemetry.registry.set_gauge("frontier.reuse_fraction", fraction)


def warm_mine_table(
    miner: "Farmer", table: TransposedTable
) -> "tuple[_IRGStore, NodeCounters, bool, ScanStats | None]":
    """Answer one mine through the frontier cache.

    The entry point :meth:`~repro.core.farmer.Farmer.mine_table`
    delegates to when the miner was built with ``warm_cache=``: a filter
    of the smallest covering entry when one exists, a serial capture
    otherwise.  The miner's ``n_workers``/``steal`` settings are
    ignored.  Corrupt, foreign or other-layout cache files are skipped,
    never fatal.

    A capture is the miner's own serial search
    (:meth:`~repro.core.farmer.Farmer._search`, charged to the miner's
    budget from the start of the plan) with a sink that records each
    candidate and offers it to the store, so the store is a cold mine's,
    truncated captures included.  The capture is then persisted and
    seeded into the memo.  Truncated captures are answered but never
    persisted.  The ``cache_miss`` event carries the miss's ``reason``
    (``"empty"``: no usable entry; ``"loosened"``: no entry covers the
    request) and ``corrupt`` (skipped files).

    Args:
        miner: the configured :class:`~repro.core.farmer.Farmer`, its
            budget started.
        table: the transposed table to mine.

    Returns:
        ``(store, counters, truncated, stats)``.  The store's entries are
        byte-identical to a cold mine's; the counters reflect only the
        work a warm answer actually did; ``stats`` is the capture's
        bound-scan telemetry (``None`` for a filter answer).
    """
    constraints = miner.constraints
    telemetry = miner.telemetry
    directory = Path(miner.warm_cache)
    directory.mkdir(parents=True, exist_ok=True)

    store = _IRGStore()
    counters = NodeCounters()
    if table.n == 0 or not table.item_masks:
        return store, counters, False, None

    fingerprint = frontier_fingerprint(table, miner.prunings)
    entries: list[tuple[Path, Constraints, list[Candidate], dict]] = []
    corrupt = 0
    with _phase(telemetry, "plan"):
        for path in sorted(
            directory.glob(f"{fingerprint[:20]}-*{FRONTIER_SUFFIX}")
        ):
            try:
                cached, evals, built = _load_entry_cached(path, fingerprint)
            except (DataError, UsageError):
                corrupt += 1
                continue
            entries.append((path, cached, evals, built))

    covering = [entry for entry in entries if _covers(entry[1], constraints)]
    if not covering:
        evals = []

        def capture(candidate: Candidate, counters: NodeCounters) -> None:
            evals.append(candidate)
            store.offer(candidate, counters)

        with _phase(telemetry, "capture"):
            counters, truncated, stats = miner._search(table, store, capture)
        if not truncated:
            path = entry_path(directory, fingerprint, constraints)
            with _phase(telemetry, "persist"):
                _save_entry(path, fingerprint, constraints, evals, counters.nodes)
            _, _, built = _remember(_memo_key(path), constraints, evals)
            store.built = _built_groups(built, table)
        if telemetry is not None:
            telemetry.event(
                "cache_miss",
                reason="loosened" if entries else "empty",
                fingerprint=fingerprint[:20],
                corrupt=corrupt,
                evals=len(evals),
                saved=not truncated,
            )
        _set_reuse(telemetry, 0.0)
        return store, counters, truncated, stats

    path, _cached, evals, built = min(
        covering, key=lambda entry: (len(entry[2]), entry[0].name)
    )
    store.built = _built_groups(built, table)
    with _phase(telemetry, "filter"):
        satisfying = [
            candidate
            for candidate in evals
            if constraints.satisfied_by(
                candidate.supp, candidate.supn, table.n, table.m
            )
        ]
        for candidate in satisfying:
            store.offer(candidate, counters)
    if telemetry is not None:
        telemetry.event(
            "cache_hit",
            mode="filter",
            entry=path.name,
            evals=len(evals),
            satisfying=len(satisfying),
            corrupt=corrupt,
        )
    _set_reuse(telemetry, 1.0 if evals else 0.0)
    return store, counters, False, None
