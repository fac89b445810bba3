"""Shared hypothesis strategies for the property suites.

One home for the dataset and bitset generators the property suites
share, plus the degenerate/skewed dataset families the scheduler and
engine conformance suites sweep.  Strategy highlights:

* :data:`n_rows_word_boundary` draws row counts across the 64-bit word
  boundary (including exactly 63/64/65) so one-word, exactly-full-word
  and straddling row sets are all exercised.
* :func:`datasets` draws small labelled datasets with at least one
  consequent row; :func:`degenerate_datasets` draws randomized
  instances of the shapes in ``conftest.MINEABLE_SHAPES`` (single row,
  all-identical rows, shared item, word-tail 63/64/65, one item).
* :func:`skewed_datasets` draws the Fig-10 skew shape — a dense block
  of overlapping rows conditioning one dominant enumeration subtree
  next to sparse disjoint filler rows — the workload the work-stealing
  scheduler exists for.
"""

from __future__ import annotations

from hypothesis import strategies as st

from conftest import MINEABLE_SHAPES, random_dataset
from repro.data.dataset import ItemizedDataset

__all__ = [
    "contingency",
    "datasets",
    "degenerate_datasets",
    "index_sets",
    "n_rows_word_boundary",
    "skewed_datasets",
]

#: Universes straddling the word boundary: 1..130 rows covers one-word,
#: exactly-64, 65-bit-straddle, and two-word layouts.
n_rows_word_boundary = st.integers(min_value=1, max_value=130)

#: Small frozensets of row indices (closure/measure algebra inputs).
index_sets = st.frozensets(st.integers(min_value=0, max_value=40), max_size=12)


@st.composite
def datasets(draw, max_rows=7, max_items=8):
    """A small labelled dataset with at least one 'C' row."""
    n_items = draw(st.integers(min_value=1, max_value=max_items))
    n_rows = draw(st.integers(min_value=1, max_value=max_rows))
    rows = [
        draw(
            st.frozensets(
                st.integers(min_value=0, max_value=n_items - 1),
                max_size=n_items,
            )
        )
        for _ in range(n_rows)
    ]
    labels = [draw(st.sampled_from(["C", "D"])) for _ in range(n_rows)]
    labels[0] = "C"
    return ItemizedDataset.from_lists(rows, labels, n_items=n_items)


@st.composite
def contingency(draw):
    """A feasible (x, y, n, m) rule contingency quadruple."""
    n = draw(st.integers(min_value=1, max_value=40))
    m = draw(st.integers(min_value=0, max_value=n))
    y = draw(st.integers(min_value=0, max_value=m))
    x = draw(st.integers(min_value=y, max_value=n - (m - y)))
    return x, y, n, m


@st.composite
def degenerate_datasets(draw, shapes=MINEABLE_SHAPES):
    """A randomized instance of one degenerate dataset family.

    Reuses ``conftest.random_dataset``'s shape machinery — hypothesis
    draws the family and the seed, so shrinking walks both.
    """
    shape = draw(st.sampled_from(shapes))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return random_dataset(seed, shape=shape)


@st.composite
def skewed_datasets(draw, max_dense=8, max_sparse=10):
    """The Fig-10 skew: one dominant dense block plus sparse filler.

    The dense rows share a small vocabulary with high overlap, so the
    first ORD rows condition subtrees covering most of the unpruned
    search space; the sparse rows live in a disjoint item range and
    each collapse after a few expansions.  Supports are skewed by
    construction: dense items appear in most dense rows, sparse items
    in at most a couple of rows.
    """
    n_dense_items = draw(st.integers(min_value=4, max_value=8))
    n_dense = draw(st.integers(min_value=2, max_value=max_dense))
    n_sparse = draw(st.integers(min_value=0, max_value=max_sparse))
    n_sparse_items = draw(st.integers(min_value=2, max_value=6))
    rows = []
    for _ in range(n_dense):
        present = draw(
            st.lists(
                st.booleans(), min_size=n_dense_items, max_size=n_dense_items
            )
        )
        # Bias toward dense: every row keeps at least half the block.
        row = [item for item, keep in enumerate(present) if keep]
        if len(row) < n_dense_items // 2 + 1:
            row = list(range(n_dense_items // 2 + 1))
        rows.append(row)
    for _ in range(n_sparse):
        row = draw(
            st.lists(
                st.integers(
                    min_value=n_dense_items,
                    max_value=n_dense_items + n_sparse_items - 1,
                ),
                max_size=3,
            )
        )
        rows.append(sorted(set(row)))
    labels = [draw(st.sampled_from(["C", "D"])) for _ in rows]
    labels[0] = "C"
    return ItemizedDataset.from_lists(
        rows, labels, n_items=n_dense_items + n_sparse_items
    )
