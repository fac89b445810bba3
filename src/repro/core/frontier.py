"""Warm re-mining: a persistent frontier cache for constraint changes.

FARMER users explore interactively — nudge ``minsup``/``minconf``/
``minchi`` and look at the rule groups again — but a cold mine restarts
row enumeration from the root every time.  This module makes the second
mine reuse the first one while keeping the answer **byte-identical to a
cold mine**:

* After a cache-miss mine the full *evaluation sequence* — the Step-7
  candidate of every explored node, satisfying or not, in Lemma-3.4
  discovery order — is captured together with the *pruned frontier*:
  the :class:`~repro.core.farmer.NodeState` of every node cut by the
  Pruning-3 bounds, at its exact position in the traversal.  (Pruning-2
  cuts are constraint-independent, so their subtrees stay pruned under
  any constraints and are never recorded.)
* The captured entry is persisted through the checksummed
  :mod:`repro.core.serialize` envelope, keyed by a dataset fingerprint
  plus a constraint key.  Conditional tables are serialized in one
  canonical item order (support descending, item id ascending), so
  entry bytes are engine-invariant and an entry captured under one
  engine resumes under any other.
* A later mine consults the **constraint-delta planner**:

  - *no constraint loosened* — the requested thresholds prune a subtree
    of the captured tree, so the answer is the captured evaluations
    re-filtered through
    :meth:`~repro.core.constraints.Constraints.satisfied_by` and
    replayed through Step-7 admission, with **zero enumeration**;
  - *some constraint loosened* — enumeration resumes **only** from the
    recorded pruned-frontier nodes (serially in capture mode, growing
    the cache, or sharded across workers and the steal scheduler like
    any other subtree list) and the results are spliced into the cached
    sequence at the pruned nodes' recorded positions;
  - *nothing cached* — a cold serial mine runs in capture mode and
    populates the cache.

Correctness rests on two facts.  First, the enumeration tree's shape —
children, Pruning-1 compression, Pruning-2 cuts — and the Pruning-3
bound *values* are constraint-independent; constraints only decide
where bounds fire.  Tightening therefore shrinks the explored tree, so
every node explored under the tighter constraints was already captured.
Second, the bounds are sound: a node pruned under the requested
constraints has no satisfying descendant, so a resumed subtree below a
would-be-pruned ancestor contributes nothing and a cached evaluation
below one fails the filter — spliced output equals the cold traversal
even for mixed (tighten one knob, loosen another) deltas.

Warm results differ from cold ones only in the reported search
*counters* (a filter-only answer expands zero nodes; a resume expands
just the frontier subtrees); the groups, their order, and the saved
``.irgs`` bytes are identical, which the property suite and the perf
gate pin.
"""

from __future__ import annotations

import bisect
import hashlib
import time
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from ..data.transpose import TransposedTable
from ..errors import (
    BudgetExceeded,
    ConstraintError,
    DataError,
    ReproError,
    UsageError,
)
from . import bitset
from .constraints import Constraints
from .enumeration import NodeCounters, merge_counters, scan_items
from .farmer import (
    FRONTIER_CAND,
    FRONTIER_STATE,
    Candidate,
    NodeState,
    SearchContext,
    _IRGStore,
    enumerate_frontier,
)
from .kernel import CondTable, CondTableProtocol, KernelCache
from .serialize import canonical_json, load_checkpoint, save_checkpoint

if TYPE_CHECKING:
    from .farmer import Farmer
    from .parallel import ParallelReport

__all__ = [
    "FRONTIER_KIND",
    "FRONTIER_SUFFIX",
    "cache_entries",
    "entry_path",
    "frontier_fingerprint",
    "load_entry",
    "warm_mine_table",
]

#: Payload tag of one persisted frontier entry (inside the checkpoint
#: envelope of :mod:`repro.core.serialize`); bump on layout changes.
FRONTIER_KIND = "repro-frontier/1"

#: Filename suffix of persisted frontier entries.
FRONTIER_SUFFIX = ".frontier"

#: Unit tag: one explored node's Step-7 evaluation (an EVAL unit).
_EVAL = "e"

#: Unit tag: one bound-pruned node, resumable from its stored state.
_PRUNED = "p"

#: The integer counts every entry's ``stats`` block carries.
_STATS_FIELDS = ("evals", "pruned", "nodes", "frontier_weight")

#: In-memory unit: ``(_EVAL, Candidate)`` or ``(_PRUNED, NodeState)``.
_Unit = "tuple[str, Candidate | NodeState]"


# ----------------------------------------------------------------------
# Keys
# ----------------------------------------------------------------------


def frontier_fingerprint(table: TransposedTable, prunings: Sequence[str]) -> str:
    """The cache key's dataset half: what pins the enumeration tree.

    Covers the dataset constants, the consequent, every item's row
    bitset, the class split and the enabled prunings (prunings change
    the tree shape, so entries are only reusable under the same set).
    The engine is deliberately *not* covered: entries are serialized in
    an engine-invariant canonical form.

    Args:
        table: the transposed table being mined.
        prunings: enabled pruning strategy names.

    Returns:
        A sha256 hex digest.
    """
    payload = [
        table.n,
        table.m,
        str(table.consequent),
        list(table.item_masks),
        table.positive_mask,
        sorted(prunings),
    ]
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def _constraints_key(constraints: Constraints) -> str:
    """The cache key's constraint half (hex digest of the thresholds)."""
    payload = [constraints.minsup, constraints.minconf, constraints.minchi]
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
# Capture
# ----------------------------------------------------------------------


def _record(ctx, units, counters, budget, out) -> None:
    """Walk frontier ``units`` in capture mode, appending to ``out``.

    Runs :func:`~repro.core.farmer.enumerate_frontier` under a
    ``record=True`` context, so *every* explored node with non-empty
    antecedent support yields an EVAL unit (as its subtree completes)
    and bound-pruned nodes yield PRUNED units at their tree position.
    Appending into the caller's ``out`` keeps the prefix salvageable
    when a non-strict ``budget`` interrupts the walk; a budget without
    limits is not ticked at all.
    """
    enumerate_frontier(
        ctx,
        units,
        counters,
        lambda candidate: out.append((_EVAL, candidate)),
        None,
        tick=None if budget.unlimited else budget.tick,
        cache=KernelCache(),
        on_pruned=lambda state: out.append((_PRUNED, state)),
    )


def _capture_context(miner: "Farmer", table: TransposedTable, constraints):
    """The ``record=True`` search context of one capture traversal."""
    ctx = SearchContext.for_table(
        table, constraints, miner.prunings, engine=miner.engine
    )
    return replace(ctx, record=True)


# ----------------------------------------------------------------------
# Entry serialization (engine-invariant)
# ----------------------------------------------------------------------


def _table_pairs(table: CondTableProtocol) -> list[list[int]]:
    """One conditional table as canonical ``[item_id, mask]`` pairs.

    Sorted by (support descending, item id ascending) — the kernel
    build order — so entry bytes are identical whichever engine
    captured them, and a kernel table rebuilt from the pairs keeps the
    descending-counts invariant its bound-scan early exit relies on.
    """
    masks = getattr(table, "masks", None)
    if masks is None:
        from . import npbitset

        masks = npbitset.mask_words(table)
    pairs = sorted(
        zip([int(item) for item in table.item_ids], [int(mask) for mask in masks]),
        key=lambda pair: (-pair[1].bit_count(), pair[0]),
    )
    return [[item, mask] for item, mask in pairs]


def _rebuild_table(
    pairs: Sequence[Sequence[int]], full_mask: int, engine: str
) -> CondTableProtocol:
    """One persisted table as the requested engine's conditional table."""
    item_ids = [pair[0] for pair in pairs]
    masks = [pair[1] for pair in pairs]
    inter, union = scan_items(masks, full_mask)
    if engine == "reference":
        return CondTable(item_ids, masks, None, inter, union, full_mask)
    if engine == "numpy":
        from .farmer import _load_npbitset

        npbitset = _load_npbitset()
        np = npbitset.np
        width = npbitset.word_count(full_mask.bit_count())
        data = np.empty((width + 1, len(masks)), dtype=np.uint64)
        if masks:
            data[:width] = npbitset.pack_masks(masks, width).T
            data[width] = np.asarray(item_ids, dtype=np.uint64)
        return npbitset.NumpyCondTable(data, width, inter, union, full_mask)
    counts = [mask.bit_count() for mask in masks]
    return CondTable(item_ids, masks, counts, inter, union, full_mask)


def _encode_units(units) -> tuple[list, list, dict]:
    """``(encoded_units, encoded_tables, stats)`` of one capture.

    Pruned states referencing the same parent table object (siblings
    share it — child tables are lazy) share one entry in the deduped
    table list, indexed in first-encounter order; identity is tracked
    with an object-keyed dict, never via ``id()`` (FRM002), and the
    dict is only probed, never iterated.
    """
    tables: list[CondTableProtocol] = []
    table_index: dict[CondTableProtocol, int] = {}
    encoded: list[list[int | str]] = []
    evals = 0
    pruned = 0
    weight = 0
    for tag, payload in units:
        if tag == _EVAL:
            evals += 1
            encoded.append(
                [_EVAL, payload.item_mask, payload.supp, payload.supn, payload.row_mask]
            )
            continue
        pruned += 1
        weight += payload.estimate()
        index = table_index.get(payload.table)
        if index is None:
            index = len(tables)
            table_index[payload.table] = index
            tables.append(payload.table)
        encoded.append(
            [
                _PRUNED,
                index,
                payload.row_bit,
                payload.x_mask,
                payload.cand_pos,
                payload.cand_neg,
                payload.p1_removed,
                payload.supp_in,
                payload.supn_in,
                1 if payload.rm_is_positive else 0,
            ]
        )
    stats = {"evals": evals, "pruned": pruned, "frontier_weight": weight}
    return encoded, [_table_pairs(table) for table in tables], stats


def _save_entry(
    directory: Path,
    fingerprint: str,
    constraints: Constraints,
    units,
    nodes: int,
) -> Path:
    """Persist one captured entry through the checkpoint envelope."""
    encoded, tables, stats = _encode_units(units)
    stats["nodes"] = nodes
    payload = {
        "kind": FRONTIER_KIND,
        "fingerprint": fingerprint,
        "constraints": [
            constraints.minsup,
            constraints.minconf,
            constraints.minchi,
        ],
        "tables": tables,
        "units": encoded,
        "stats": stats,
    }
    path = entry_path(directory, fingerprint, constraints)
    save_checkpoint(path, payload)
    return path


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
    payload = load_checkpoint(path)
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
        replaced by a :class:`~repro.core.constraints.Constraints`.

    Raises:
        DataError: corrupt envelope, foreign payload, or malformed
            fields (the planner treats all of these as a cache miss).
        UsageError: an envelope written by a newer format version.
    """
    payload = _load_header(path, fingerprint)
    tables = payload.get("tables")
    units = payload.get("units")
    if not isinstance(tables, list) or not isinstance(units, list):
        raise DataError(f"{path}: frontier entry body is malformed")
    for unit in units:
        if not isinstance(unit, list) or not unit:
            raise DataError(f"{path}: frontier unit is malformed")
        if unit[0] == _EVAL:
            if len(unit) != 5:
                raise DataError(f"{path}: frontier EVAL unit is malformed")
            for value in unit[1:]:
                _expect_int(value, "eval", path)
        elif unit[0] == _PRUNED:
            if len(unit) != 10:
                raise DataError(f"{path}: frontier PRUNED unit is malformed")
            for value in unit[1:]:
                _expect_int(value, "pruned", path)
            if not 0 <= unit[1] < len(tables):
                raise DataError(f"{path}: frontier table index out of range")
        else:
            raise DataError(f"{path}: unknown frontier unit tag {unit[0]!r}")
    return payload


def cache_entries(
    directory: str | Path, fingerprint: "str | None" = None
) -> list[dict]:
    """Inventory a warm-cache directory: one summary per valid entry.

    This is the registry-keyed view of the cache that long-lived hosts
    (the ``farmer serve`` dataset registry, ``docs/serve.md``) use to
    report which constraint captures exist for a dataset without paying
    for unit decoding: only each entry's envelope, key halves and stats
    block are touched.

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
        (the capture's ``evals`` / ``pruned`` / ``nodes`` /
        ``frontier_weight`` ints).  Corrupt or foreign files are
        skipped, mirroring the planner's miss-on-damage policy.
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


class _EvalIndex:
    """Support-ordered view of an entry's EVAL units for fast filtering.

    An interactive tighten is answered thousands of times against the
    same entry, so the filter must not pay per-query for the units a
    tighter ``minsup`` excludes.  The index keeps the raw EVAL rows in
    discovery order plus a support-descending permutation:
    ``minsup`` selects a bisected prefix of that permutation (Step 7
    rejects ``supp < minsup`` before anything else), the remaining
    thresholds run only over the prefix, and :class:`Candidate` objects
    are built solely for the survivors.
    """

    __slots__ = ("rows", "order", "neg_supports")

    def __init__(self, units: Sequence[Sequence[int | str]]) -> None:
        self.rows = [unit for unit in units if unit[0] == _EVAL]
        self.order = sorted(
            range(len(self.rows)),
            key=lambda ordinal: (-self.rows[ordinal][2], ordinal),
        )
        self.neg_supports = [-self.rows[ordinal][2] for ordinal in self.order]

    def satisfying(
        self, constraints: Constraints, n: int, m: int
    ) -> "list[Candidate]":
        """The entry's satisfying candidates, in discovery order.

        Args:
            constraints: the requested thresholds.
            n: dataset row count.
            m: rows labelled with the consequent.

        Returns:
            :class:`Candidate` objects for exactly the EVAL units that
            :meth:`~repro.core.constraints.Constraints.satisfied_by`
            admits, ordered as the capture traversal discovered them.
        """
        boundary = bisect.bisect_right(
            self.neg_supports, -constraints.minsup
        )
        passing = sorted(
            ordinal
            for ordinal in self.order[:boundary]
            if constraints.satisfied_by(
                self.rows[ordinal][2], self.rows[ordinal][3], n, m
            )
        )
        return [_eval_candidate(self.rows[ordinal]) for ordinal in passing]


def _eval_candidate(row: Sequence[int | str]) -> Candidate:
    """One raw EVAL unit as a :class:`Candidate` (item ids ascending)."""
    _tag, item_mask, supp, supn, row_mask = row
    return Candidate(
        tuple(bitset.iter_bits(item_mask)), item_mask, supp, supn, row_mask
    )


#: Decoded entries kept in memory, keyed by ``(path, size, mtime_ns)``;
#: a replaced file changes the key, so staleness self-invalidates.  The
#: memo is what makes steady-state re-mines sub-millisecond: the first
#: query against an entry pays the disk read + JSON parse + index
#: build, every later one starts from here.
_entry_memo: "dict[tuple[str, int, int], tuple[dict, _EvalIndex]]" = {}

#: Entries retained in :data:`_entry_memo` (FIFO beyond this).
_MEMO_CAP = 4


def _load_entry_cached(
    path: Path, fingerprint: str
) -> tuple[dict, _EvalIndex]:
    """:func:`load_entry` with the in-process memo in front.

    Args:
        path: the ``.frontier`` file.
        fingerprint: the expected dataset fingerprint.

    Returns:
        ``(payload, index)`` — the validated payload and its
        :class:`_EvalIndex`, both shared across queries (treat as
        read-only).

    Raises:
        DataError: as :func:`load_entry`.
        UsageError: as :func:`load_entry`.
    """
    stat = path.stat()
    key = (str(path), stat.st_size, stat.st_mtime_ns)
    hit = _entry_memo.get(key)
    if hit is not None:
        return hit
    payload = load_entry(path, fingerprint)
    entry = (payload, _EvalIndex(payload["units"]))
    while len(_entry_memo) >= _MEMO_CAP:
        del _entry_memo[next(iter(_entry_memo))]
    _entry_memo[key] = entry
    return entry


def _decode_units(payload: dict, full_mask: int, engine: str) -> list:
    """The entry's in-memory unit list, tables rebuilt for ``engine``."""
    tables = [
        _rebuild_table(pairs, full_mask, engine) for pairs in payload["tables"]
    ]
    units: list[tuple[str, object]] = []
    for unit in payload["units"]:
        if unit[0] == _EVAL:
            units.append((_EVAL, _eval_candidate(unit)))
            continue
        units.append(
            (
                _PRUNED,
                NodeState(
                    table=tables[unit[1]],
                    row_bit=unit[2],
                    x_mask=unit[3],
                    cand_pos=unit[4],
                    cand_neg=unit[5],
                    p1_removed=unit[6],
                    supp_in=unit[7],
                    supn_in=unit[8],
                    rm_is_positive=bool(unit[9]),
                ),
            )
        )
    return units


# ----------------------------------------------------------------------
# Filter + replay
# ----------------------------------------------------------------------


def _filter_evals(
    units, constraints: Constraints, n: int, m: int
) -> list[Candidate]:
    """The EVAL units satisfying ``constraints``, in recorded order.

    Satisfaction is re-evaluated with the pure
    :meth:`~repro.core.constraints.Constraints.satisfied_by` so the
    filter perturbs no caches or counters.
    """
    return [
        payload
        for tag, payload in units
        if tag == _EVAL and constraints.satisfied_by(payload.supp, payload.supn, n, m)
    ]


def _replay(candidates, store: _IRGStore, counters: NodeCounters) -> None:
    """Step-7 admission over a satisfying candidate sequence, in order."""
    for candidate in candidates:
        store.offer(candidate, counters)


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


def _meet(cached: Constraints, requested: Constraints) -> Constraints:
    """The elementwise-loosest of two constraint vectors (their meet)."""
    return Constraints(
        minsup=min(cached.minsup, requested.minsup),
        minconf=min(cached.minconf, requested.minconf),
        minchi=min(cached.minchi, requested.minchi),
    )


def _phase(telemetry, name: str):
    """``telemetry.phase(name)`` or a no-op context."""
    return nullcontext() if telemetry is None else telemetry.phase(name)


def _event(telemetry, kind: str, **fields) -> None:
    """Emit one run-log event when telemetry is attached."""
    if telemetry is not None:
        telemetry.event(kind, **fields)


def _set_reuse(telemetry, reused: int, fresh: int) -> None:
    """Publish the ``frontier.reuse_fraction`` gauge (cached evaluations
    over cached evaluations plus freshly expanded nodes)."""
    if telemetry is not None:
        total = reused + fresh
        fraction = reused / total if total else 0.0
        telemetry.registry.set_gauge("frontier.reuse_fraction", fraction)


def warm_mine_table(
    miner: "Farmer", table: TransposedTable
) -> "tuple[_IRGStore, NodeCounters, bool, ParallelReport | None]":
    """Answer one mine through the frontier cache.

    The entry point :meth:`~repro.core.farmer.Farmer.mine_table`
    delegates to when the miner was built with ``warm_cache=``.  Plans
    the cheapest correct strategy for the requested constraints:
    filter-only on a covering entry, frontier resume (serial or
    sharded, following the miner's ``n_workers``/``steal`` settings) on
    any other entry, cold capture on a miss.  Corrupt or foreign cache
    files are skipped, never fatal.

    Args:
        miner: the configured :class:`~repro.core.farmer.Farmer`.
        table: the transposed table to mine.

    Returns:
        ``(store, counters, truncated, report)`` exactly as
        :func:`~repro.core.parallel.mine_table_parallel` returns them;
        ``report`` is ``None`` unless the resume was sharded.  The
        store's entries are byte-identical to a cold mine's; the
        counters reflect only the work a warm answer actually did.
    """
    constraints = miner.constraints
    telemetry = miner.telemetry
    budget = miner.budget
    budget.start()
    directory = Path(miner.warm_cache)
    directory.mkdir(parents=True, exist_ok=True)

    store = _IRGStore()
    counters = NodeCounters()
    if table.n == 0 or not table.item_masks:
        return store, counters, False, None

    fingerprint = frontier_fingerprint(table, miner.prunings)
    entries: list[tuple[Path, dict, _EvalIndex]] = []
    corrupt = 0
    with _phase(telemetry, "plan"):
        for path in sorted(
            directory.glob(f"{fingerprint[:20]}-*{FRONTIER_SUFFIX}")
        ):
            try:
                payload, index = _load_entry_cached(path, fingerprint)
            except (DataError, UsageError):
                corrupt += 1
                continue
            entries.append((path, payload, index))

    covering = [
        entry for entry in entries if _covers(entry[1]["constraints"], constraints)
    ]
    if covering:
        path, payload, index = min(
            covering, key=lambda entry: (entry[1]["stats"]["evals"], entry[0].name)
        )
        return _answer_by_filter(
            miner, table, path, payload, index, store, counters, corrupt
        )
    if entries:
        path, payload, _index = min(
            entries,
            key=lambda entry: (
                entry[1]["stats"]["frontier_weight"],
                entry[0].name,
            ),
        )
        return _answer_by_resume(
            miner, table, directory, fingerprint, path, payload, corrupt
        )
    return _answer_by_capture(
        miner, table, directory, fingerprint, store, counters, corrupt
    )


def _answer_by_filter(
    miner, table, path, payload, index, store, counters, corrupt
):
    """Tightened (or unchanged) constraints: re-filter, zero enumeration.

    Runs entirely off the :class:`_EvalIndex` — no conditional table is
    rebuilt, no engine code runs, and on a warm memo the whole answer
    is a bisected prefix scan plus the Step-7 replay.
    """
    telemetry = miner.telemetry
    with _phase(telemetry, "filter"):
        satisfying = index.satisfying(miner.constraints, table.n, table.m)
        _replay(satisfying, store, counters)
    _event(
        telemetry,
        "cache_hit",
        mode="filter",
        entry=path.name,
        evals=payload["stats"]["evals"],
        satisfying=len(satisfying),
        corrupt=corrupt,
    )
    _set_reuse(telemetry, payload["stats"]["evals"], 0)
    return store, counters, False, None


def _answer_by_resume(
    miner, table, directory, fingerprint, path, payload, corrupt
):
    """Loosened constraints: enumerate only the recorded frontier nodes."""
    telemetry = miner.telemetry
    units = _decode_units(payload, table.all_rows_mask, miner.engine)
    pruned = [state for tag, state in units if tag == _PRUNED]
    _event(
        telemetry,
        "cache_hit",
        mode="resume",
        entry=path.name,
        evals=payload["stats"]["evals"],
        pruned=len(pruned),
        corrupt=corrupt,
    )
    sharded = miner.n_workers is not None
    _event(
        telemetry,
        "frontier_resume",
        units=len(pruned),
        weight=payload["stats"]["frontier_weight"],
        sharded=sharded,
    )
    if sharded:
        result = _resume_sharded(miner, table, units, pruned)
    else:
        result = _resume_serial(
            miner, table, directory, fingerprint, payload, units
        )
    _set_reuse(telemetry, payload["stats"]["evals"], result[1].nodes)
    return result


def _resume_serial(miner, table, directory, fingerprint, payload, units):
    """Serial frontier resume, in capture mode, growing the cache.

    The frontier subtrees are re-enumerated under the *meet* of the
    cached and requested constraints and their unit lists spliced into
    the cached sequence at the pruned nodes' positions; the merged
    capture is persisted as a new entry keyed by the meet (monotone
    cache growth), and the answer is the merged sequence filtered by
    the requested constraints.  A truncating (non-strict) time budget
    salvages the merged prefix but never persists it.
    """
    telemetry = miner.telemetry
    budget = miner.budget
    meet = _meet(payload["constraints"], miner.constraints)
    ctx = _capture_context(miner, table, meet)
    counters = NodeCounters()
    merged: list = []
    truncated = False
    frontier = [
        (FRONTIER_CAND if tag == _EVAL else FRONTIER_STATE, payload)
        for tag, payload in units
    ]
    with _phase(telemetry, "resume"):
        try:
            _record(ctx, frontier, counters, budget, merged)
        except BudgetExceeded:
            if budget.strict:
                raise
            truncated = True
    if not truncated:
        _save_entry(directory, fingerprint, meet, merged, counters.nodes)
    store = _IRGStore()
    _replay(
        _filter_evals(merged, miner.constraints, table.n, table.m),
        store,
        counters,
    )
    return store, counters, truncated, None


def _resume_sharded(miner, table, units, pruned):
    """Sharded frontier resume: the pruned nodes become the task list.

    Each recorded frontier node is one
    :class:`~repro.core.parallel._Leaf`, executed under the requested
    constraints by the shard executor exactly like a decomposition's
    subtree list (with work stealing when the miner asks for it);
    advisory bounds are seeded from the cached satisfying evaluations
    (all of which appear in the final sequence, so the usual dominance
    argument applies).  The stitched
    answer interleaves filtered cached evaluations with each leaf's
    candidates at the recorded positions, then replays Step-7
    admission.  Sharded resumes do not grow the cache (workers return
    satisfying candidates only, not capture units).
    """
    from .parallel import (
        DEFAULT_ADVISORY_CAP,
        DEFAULT_STEAL_QUANTUM,
        AdvisoryBounds,
        ParallelReport,
        RetryPolicy,
        _execute_parts,
        _Leaf,
    )

    telemetry = miner.telemetry
    budget = miner.budget
    constraints = miner.constraints
    n_workers = miner.n_workers if miner.n_workers is not None else 1
    ctx = SearchContext.for_table(
        table, constraints, miner.prunings, engine=miner.engine
    )
    cached = _filter_evals(units, constraints, table.n, table.m)
    advisory_snapshot = None
    if miner.broadcast_bounds:
        bounds = AdvisoryBounds(cap=DEFAULT_ADVISORY_CAP)
        for candidate in cached:
            bounds.extend(
                candidate.item_mask,
                len(candidate.item_ids),
                candidate.confidence,
            )
        advisory_snapshot = bounds.snapshot()
    deadline = (
        time.monotonic() + budget.max_seconds
        if budget.max_seconds is not None
        else None
    )
    retry = miner.retry if miner.retry is not None else RetryPolicy()
    quantum = (
        miner.steal_quantum
        if miner.steal_quantum is not None
        else DEFAULT_STEAL_QUANTUM
    )
    tasks = [_Leaf(state) for state in pruned]
    coordinator = NodeCounters()
    report = ParallelReport(
        n_workers=n_workers,
        broadcast=miner.broadcast_bounds,
        coordinator=coordinator,
    )
    with _phase(telemetry, "resume"):
        truncated = bool(tasks) and _execute_parts(
            tasks,
            ctx,
            n_workers,
            miner.broadcast_bounds,
            DEFAULT_ADVISORY_CAP,
            deadline,
            budget.strict,
            quantum if miner.steal and n_workers > 1 else None,
            retry=retry,
            report=report,
            advisory_snapshot=advisory_snapshot,
            telemetry=telemetry,
        )
    with _phase(telemetry, "reduce"):
        replay = NodeCounters()
        store = _IRGStore()
        sequence: list[Candidate] = []
        leaves = iter(tasks)
        for tag, unit_payload in units:
            if tag == _EVAL:
                if constraints.satisfied_by(
                    unit_payload.supp, unit_payload.supn, table.n, table.m
                ):
                    sequence.append(unit_payload)
            else:
                sequence.extend(next(leaves).candidates)
        _replay(sequence, store, replay)
    report.n_tasks = len(tasks)
    report.workers = [leaf.counters for leaf in tasks]
    report.advisory_drops = sum(leaf.drops for leaf in tasks)
    merged = merge_counters([coordinator, replay, *report.workers])
    return store, merged, truncated, report


def _answer_by_capture(
    miner, table, directory, fingerprint, store, counters, corrupt
):
    """Cache miss: a cold serial mine in capture mode populates the cache.

    Capture always runs the serial walk — the sharded pipeline returns
    satisfying candidates only, not capture units — so a miss under
    ``n_workers`` serializes that one mine;
    every later warm answer shards its resume normally.  Truncated
    captures are answered (the salvaged prefix filters and replays like
    a cold truncated mine) but never persisted.
    """
    telemetry = miner.telemetry
    budget = miner.budget
    ctx = _capture_context(miner, table, miner.constraints)
    units: list = []
    truncated = False
    with _phase(telemetry, "capture"):
        try:
            _record(
                ctx,
                [(FRONTIER_STATE, ctx.root_state(table))],
                counters,
                budget,
                units,
            )
        except BudgetExceeded:
            if budget.strict:
                raise
            truncated = True
    if not truncated:
        _save_entry(directory, fingerprint, miner.constraints, units, counters.nodes)
    satisfying = _filter_evals(units, miner.constraints, table.n, table.m)
    _replay(satisfying, store, counters)
    _event(
        telemetry,
        "cache_miss",
        fingerprint=fingerprint[:20],
        corrupt=corrupt,
        evals=sum(1 for tag, _payload in units if tag == _EVAL),
        saved=not truncated,
    )
    _set_reuse(telemetry, 0, counters.nodes)
    return store, counters, truncated, None
