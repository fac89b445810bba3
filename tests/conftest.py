"""Shared fixtures: the paper's running example and dataset factories."""

from __future__ import annotations

import random
from contextlib import contextmanager

import pytest
from hypothesis import settings as _hypothesis_settings

from repro.core import npbitset
from repro.data.dataset import ItemizedDataset

# Hypothesis sweep depth is profile-driven: "ci" (loaded by default)
# keeps tier-1 fast; the scheduled nightly CI leg passes
# ``--hypothesis-profile=nightly`` for a deeper sweep (the pytest plugin
# loads that AFTER this conftest runs, so the flag wins).  Tests that
# pin their own ``@settings(max_examples=...)`` are unaffected — the
# conformance and scheduling property suites deliberately do not, so
# the nightly profile deepens them.  ``print_blob=True`` prints the
# reproduction blob on any failing example, so a nightly failure
# replays locally with ``@reproduce_failure``.
_hypothesis_settings.register_profile("ci", max_examples=30, deadline=None)
_hypothesis_settings.register_profile(
    "nightly", max_examples=400, deadline=None, print_blob=True
)
_hypothesis_settings.load_profile("ci")


class ChaosControl:
    """Arms/disarms the ``FARMER_CHAOS`` fault spec for one test.

    Every sharded run starts its own worker pool, which copies the
    environment as it starts, so a spec reaches exactly the runs made
    while it is armed.
    """

    def __init__(self, monkeypatch) -> None:
        self._monkeypatch = monkeypatch

    def arm(self, spec: str) -> None:
        from repro.testing.chaos import CHAOS_ENV

        self._monkeypatch.setenv(CHAOS_ENV, spec)

    def disarm(self) -> None:
        from repro.testing.chaos import CHAOS_ENV

        self._monkeypatch.delenv(CHAOS_ENV, raising=False)


@pytest.fixture
def chaos(monkeypatch):
    """Deterministic fault injection (see :mod:`repro.testing.chaos`).

    ``chaos.arm("kill:shard=1:times=1")`` injects the given fault into
    subsequent mining calls; faults are keyed on logical coordinates
    (shard index, attempt number), never on wall-clock time or
    randomness.
    """
    control = ChaosControl(monkeypatch)
    yield control
    control.disarm()


#: Hand-off cutoffs (:data:`repro.core.npbitset.HANDOFF_ITEMS`) the
#: representation-sensitive suites force, by test id: every table packed
#: (``numpy``), a hand-off on the first extend (``handoff-1``,
#: ``handoff-2``), the shipped cutoff (``default``) and every table as
#: int masks (``kernel``).
HANDOFF_CUTOFFS = {
    "numpy": 0,
    "handoff-1": 1,
    "handoff-2": 2,
    "default": npbitset.HANDOFF_ITEMS,
    "kernel": 1 << 62,
}


@contextmanager
def handoff(cutoff):
    """Force the production engine's hand-off cutoff inside the block.

    ``cutoff`` is an item count or a :data:`HANDOFF_CUTOFFS` id.  A
    sharded run inside the block forks its own worker pool, so its
    workers extend tables under the same cutoff.
    """
    if isinstance(cutoff, str):
        cutoff = HANDOFF_CUTOFFS[cutoff]
    saved = npbitset.HANDOFF_ITEMS
    npbitset.HANDOFF_ITEMS = cutoff
    try:
        yield
    finally:
        npbitset.HANDOFF_ITEMS = saved


def assert_fault_free(result) -> None:
    """A sharded run with no injected fault must not have needed the
    fault ladder: no retried part, no replaced pool, no inline
    fallback.  (Byte-identity alone cannot see this: a part that fails
    in every worker still mines the right bytes inline, only slower.)"""
    report = result.parallel
    faults = (report.retries, report.pool_failures, report.inline_tasks)
    assert faults == (0, 0, 0), report


def letter_items(letters: str) -> list[int]:
    """Map 'aceh' -> [0, 2, 4, 7] (the paper's a..t item alphabet)."""
    return [ord(letter) - ord("a") for letter in letters]


def itemset_to_letters(items) -> str:
    """Inverse of :func:`letter_items`, sorted."""
    return "".join(sorted(chr(i + ord("a")) for i in items))


@pytest.fixture
def paper_dataset() -> ItemizedDataset:
    """Figure 1(a): 5 rows over items a..t, classes C C C ~C ~C."""
    rows = [
        letter_items("abclos"),
        letter_items("adehplr"),
        letter_items("acehoqt"),
        letter_items("aefhpr"),
        letter_items("bdfglqst"),
    ]
    labels = ["C", "C", "C", "N", "N"]
    names = [chr(ord("a") + index) for index in range(20)]
    return ItemizedDataset.from_lists(
        rows, labels, n_items=20, item_names=names, name="figure1"
    )


#: Degenerate dataset shapes a sharded first enumeration level is most
#: likely to mishandle (empty task lists, all-compressed roots, subtree
#: candidates identical across shards).
DEGENERATE_SHAPES = (
    "single_row",
    "no_consequent",
    "all_identical",
    "shared_item",
    "word_tail_63",
    "word_tail_64",
    "word_tail_65",
    "zero_rows",
    "one_item",
)

#: The shapes that can actually be mined for consequent ``"C"`` — the
#: rest (``no_consequent``, ``zero_rows``) pin the ``DataError`` path.
MINEABLE_SHAPES = tuple(
    shape
    for shape in DEGENERATE_SHAPES
    if shape not in ("no_consequent", "zero_rows")
)

#: The mineable shapes the brute-force oracle can afford: it enumerates
#: all row subsets, so the 63/64/65-row word-boundary shapes (trivial
#: for the miner, whose tree collapses under pruning) are out of reach.
ORACLE_SHAPES = tuple(
    shape for shape in MINEABLE_SHAPES if not shape.startswith("word_tail_")
)


def random_dataset(
    seed: int,
    max_rows: int = 9,
    max_items: int = 10,
    ensure_label: str = "C",
    shape: str | None = None,
) -> ItemizedDataset:
    """Small random labelled dataset for oracle comparisons.

    With ``shape`` set to one of :data:`DEGENERATE_SHAPES`, returns a
    randomized instance of that degenerate family instead (the default
    path's RNG stream is untouched, so existing seeds keep their data):

    * ``"single_row"`` — one row, labelled with the consequent.
    * ``"no_consequent"`` — the consequent class is empty (mining it
      must raise :class:`~repro.errors.DataError`).
    * ``"all_identical"`` — every row carries the same itemset, so
      Pruning 1 compresses the whole candidate list at the root.
    * ``"shared_item"`` — one item occurs in every row (the vocabulary
      intersection is non-empty at every node).
    * ``"word_tail_63"`` / ``"word_tail_64"`` / ``"word_tail_65"`` —
      exactly that many rows over a tiny vocabulary, straddling the
      64-bit word boundary of packed bitset layouts (one word with a
      tail bit, exactly one full word, two words with a near-empty
      second).
    * ``"zero_rows"`` — an empty table (no rows, no labels; mining any
      consequent raises :class:`~repro.errors.DataError`).
    * ``"one_item"`` — a single-column table (vocabulary of one item).
    """
    if shape is not None:
        return _degenerate_dataset(shape, seed)
    rng = random.Random(seed)
    n_rows = rng.randint(2, max_rows)
    n_items = rng.randint(2, max_items)
    density = rng.uniform(0.15, 0.85)
    rows = [
        [item for item in range(n_items) if rng.random() < density]
        for _ in range(n_rows)
    ]
    labels = [rng.choice("CD") for _ in range(n_rows)]
    if ensure_label not in labels:
        labels[0] = ensure_label
    return ItemizedDataset.from_lists(rows, labels, n_items=n_items)


def _degenerate_dataset(shape: str, seed: int) -> ItemizedDataset:
    rng = random.Random(seed ^ 0x5EED)
    n_items = rng.randint(2, 8)
    if shape == "single_row":
        row = sorted(rng.sample(range(n_items), rng.randint(1, n_items)))
        return ItemizedDataset.from_lists([row], ["C"], n_items=n_items)
    if shape == "no_consequent":
        n_rows = rng.randint(2, 6)
        rows = [
            [item for item in range(n_items) if rng.random() < 0.5]
            for _ in range(n_rows)
        ]
        return ItemizedDataset.from_lists(rows, ["D"] * n_rows, n_items=n_items)
    if shape == "all_identical":
        n_rows = rng.randint(2, 6)
        row = sorted(rng.sample(range(n_items), rng.randint(1, n_items)))
        labels = [rng.choice("CD") for _ in range(n_rows)]
        if "C" not in labels:
            labels[0] = "C"
        return ItemizedDataset.from_lists(
            [list(row) for _ in range(n_rows)], labels, n_items=n_items
        )
    if shape == "shared_item":
        n_rows = rng.randint(3, 7)
        shared = rng.randrange(n_items)
        rows = [
            sorted(
                {shared}
                | {item for item in range(n_items) if rng.random() < 0.4}
            )
            for _ in range(n_rows)
        ]
        labels = [rng.choice("CD") for _ in range(n_rows)]
        if "C" not in labels:
            labels[0] = "C"
        return ItemizedDataset.from_lists(rows, labels, n_items=n_items)
    if shape.startswith("word_tail_"):
        # Row count pinned at the word boundary; the vocabulary stays
        # tiny so the row-enumeration tree (and the brute-force oracle)
        # stays small despite the many rows.
        n_rows = int(shape.rsplit("_", 1)[1])
        n_word_items = rng.randint(2, 3)
        rows = [
            [item for item in range(n_word_items) if rng.random() < 0.5]
            for _ in range(n_rows)
        ]
        labels = [rng.choice("CD") for _ in range(n_rows)]
        if "C" not in labels:
            labels[0] = "C"
        return ItemizedDataset.from_lists(rows, labels, n_items=n_word_items)
    if shape == "zero_rows":
        return ItemizedDataset.from_lists([], [], n_items=rng.randint(1, 4))
    if shape == "one_item":
        n_rows = rng.randint(2, 7)
        rows = [[0] if rng.random() < 0.7 else [] for _ in range(n_rows)]
        labels = [rng.choice("CD") for _ in range(n_rows)]
        if "C" not in labels:
            labels[0] = "C"
        return ItemizedDataset.from_lists(rows, labels, n_items=1)
    raise ValueError(f"unknown degenerate shape: {shape!r}")
