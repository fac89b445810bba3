"""Equal-depth prep on the whole matrix against the per-gene, per-bit oracle.

``EqualDepthDiscretizer`` and ``TransposedTable.build`` work on whole
NumPy matrices.  The oracles below are the straightforward loops they
replaced: ``np.quantile`` + ``np.unique`` and a ``searchsorted`` per
gene, and one bit set at a time per (row, item).  Every cut, item name,
row and item mask must match them exactly.  The discretizer's
matrix-backed dataset must equal, hash and pickle like the row-backed
one built from the oracle's rows, and the mining path must never build
its rows or names.  The vocabulary check of ``ItemizedDataset``, on
rows and on the item matrix, is held to the message its per-item scan
gave.

The last tests pin a content hash of the discretized, transposed table
(:func:`repro.testing.prep.prep_sha256`) at LC scales 0.02, 0.2 and 1.0;
the pins were taken from the per-gene, per-bit implementation.
"""

from __future__ import annotations

import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.constraints import Constraints
from repro.core.farmer import Farmer
from repro.core.serialize import save_rule_groups
from repro.data.dataset import ItemizedDataset
from repro.data.discretize import EqualDepthDiscretizer
from repro.data.matrix import GeneExpressionMatrix
from repro.data.registry import PAPER_DATASETS, load
from repro.data.transpose import TransposedTable, ord_permutation
from repro.errors import DataError
from repro.testing.prep import prep_sha256

# ----------------------------------------------------------------------
# The oracles
# ----------------------------------------------------------------------


def oracle_fit(matrix: GeneExpressionMatrix, n_buckets: int):
    """Per-gene cuts, item bases, item names and the item count."""
    cuts_per_gene, item_base, item_names = [], [], []
    next_id = 0
    quantiles = np.arange(1, n_buckets) / n_buckets
    for gene_index in range(matrix.n_genes):
        column = matrix.values[:, gene_index]
        cuts = (
            np.unique(np.quantile(column, quantiles))
            if len(quantiles)
            else np.empty(0)
        )
        cuts_per_gene.append(cuts)
        item_base.append(next_id)
        gene = matrix.gene_names[gene_index]
        for bucket in range(len(cuts) + 1):
            low = "-inf" if bucket == 0 else f"{cuts[bucket - 1]:.4g}"
            high = "+inf" if bucket == len(cuts) else f"{cuts[bucket]:.4g}"
            item_names.append(f"{gene}@[{low},{high})")
        next_id += len(cuts) + 1
    return cuts_per_gene, item_base, item_names, next_id


def oracle_transform(cuts_per_gene, item_base, matrix: GeneExpressionMatrix):
    """One frozenset of item ids per sample, searching gene by gene."""
    buckets = np.empty((matrix.n_samples, matrix.n_genes), dtype=np.int64)
    for gene_index, cuts in enumerate(cuts_per_gene):
        buckets[:, gene_index] = np.searchsorted(
            cuts, matrix.values[:, gene_index], side="right"
        )
    item_matrix = buckets + np.asarray(item_base, dtype=np.int64)
    return tuple(frozenset(int(i) for i in sample) for sample in item_matrix)


def oracle_masks(dataset: ItemizedDataset, consequent) -> tuple[int, ...]:
    """Item masks over ORD positions, set one bit at a time."""
    masks = [0] * dataset.n_items
    for position, original in enumerate(
        ord_permutation(dataset.labels, consequent)
    ):
        bit = 1 << position
        for item in dataset.rows[original]:
            masks[item] |= bit
    return tuple(masks)


def oracle_vocabulary_error(rows, n_items: int) -> str | None:
    """The message of the item-by-item range check, or ``None``."""
    for index, row in enumerate(rows):
        for item in row:
            if not 0 <= item < n_items:
                return (
                    f"row {index} contains item {item} outside "
                    f"vocabulary of size {n_items}"
                )
    return None


# ----------------------------------------------------------------------
# Discretizer
# ----------------------------------------------------------------------


@st.composite
def tied_matrices(draw, max_samples=12, max_genes=6):
    """Small matrices whose values come from a few levels.

    Few distinct levels make heavy ties, quantiles that coincide, and
    cuts equal to sample values; a gene may be forced constant.
    """
    n_samples = draw(st.integers(1, max_samples))
    n_genes = draw(st.integers(1, max_genes))
    levels = draw(
        st.lists(
            st.floats(-50.0, 50.0, allow_nan=False, width=32),
            min_size=1,
            max_size=5,
            unique=True,
        )
    )
    picks = draw(
        st.lists(
            st.integers(0, len(levels) - 1),
            min_size=n_samples * n_genes,
            max_size=n_samples * n_genes,
        )
    )
    values = np.asarray([levels[k] for k in picks], dtype=float).reshape(
        n_samples, n_genes
    )
    for gene in draw(st.sets(st.integers(0, n_genes - 1), max_size=n_genes)):
        values[:, gene] = levels[0]
    labels = ["a" if k % 2 else "b" for k in range(n_samples)]
    return GeneExpressionMatrix.from_arrays(values, labels)


def assert_matches_oracle(matrix, held_out, n_buckets):
    discretizer = EqualDepthDiscretizer(n_buckets=n_buckets).fit(matrix)
    cuts, base, names, n_items = oracle_fit(matrix, n_buckets)
    counts, flat = discretizer.cut_points
    assert counts.tolist() == [len(c) for c in cuts]
    np.testing.assert_array_equal(flat, np.concatenate(cuts))
    for data, source in ((discretizer.transform(matrix), matrix),
                         (discretizer.transform(held_out), held_out)):
        assert data.n_items == n_items
        assert data.item_names == tuple(names)
        assert data.rows == oracle_transform(cuts, base, source)
        assert_backing_matches_rows(
            discretizer.transform(source), oracle_transform(cuts, base, source),
            names,
        )


def assert_backing_matches_rows(data, rows, names):
    """A fresh matrix-backed ``data`` against the row-backed dataset of
    the same ``rows``: equality, hash, pickle, every row query, row
    selection and replication."""
    expected = ItemizedDataset.from_lists(
        rows, data.labels, n_items=len(names), item_names=names, name=data.name
    )
    # Pickled before anything is built: the lazy recipe must travel.
    restored = pickle.loads(pickle.dumps(data))
    for dataset in (data, restored):
        assert dataset.n_rows == expected.n_rows
        assert dataset.max_row_length() == expected.max_row_length()
        assert dataset.density() == expected.density()
        assert dataset.rows == expected.rows
        assert dataset.item_names == expected.item_names
        assert dataset == expected and expected == dataset
        assert hash(dataset) == hash(expected)
    assert pickle.loads(pickle.dumps(data)) == expected
    picks = list(range(data.n_rows))[::-2]
    assert data.select_rows(picks) == expected.select_rows(picks)
    assert data.replicate(2) == expected.replicate(2)
    consequent = data.labels[0]
    assert (
        TransposedTable.build(data, consequent).item_masks
        == oracle_masks(expected, consequent)
    )


@given(
    tied_matrices(),
    st.sampled_from([1, 2, 3, 10]),
    st.floats(-200.0, 200.0, allow_nan=False),
    st.floats(0.1, 20.0, allow_nan=False),
)
def test_discretizer_matches_oracle(matrix, n_buckets, shift, stretch):
    """Cuts, names, rows and ``n_items`` equal the per-gene loop's; the
    held-out matrix is the training one stretched and shifted, so most
    of its values fall outside the fitted range."""
    held_out = GeneExpressionMatrix.from_arrays(
        matrix.values * stretch + shift, matrix.labels
    )
    assert_matches_oracle(matrix, held_out, n_buckets)


@given(
    st.integers(1, 30),
    st.integers(1, 8),
    st.sampled_from([1, 2, 3, 10]),
    st.integers(0, 2**32 - 1),
)
def test_discretizer_matches_oracle_on_continuous_values(
    n_samples, n_genes, n_buckets, seed
):
    """Distinct continuous values: interpolated cuts sit between samples."""
    rng = np.random.default_rng(seed)
    matrix = GeneExpressionMatrix.from_arrays(
        rng.normal(size=(n_samples, n_genes)), ["a"] * n_samples
    )
    held_out = GeneExpressionMatrix.from_arrays(
        rng.normal(scale=5.0, size=(7, n_genes)), ["a"] * 7
    )
    assert_matches_oracle(matrix, held_out, n_buckets)


def test_values_on_a_cut_go_to_the_higher_bucket():
    matrix = GeneExpressionMatrix.from_arrays(
        [[0.0], [1.0], [2.0], [3.0], [4.0]], ["a"] * 5
    )
    discretizer = EqualDepthDiscretizer(n_buckets=4).fit(matrix)
    _, flat = discretizer.cut_points
    on_cut = GeneExpressionMatrix.from_arrays(flat.reshape(-1, 1), ["a"] * 3)
    data = discretizer.transform(on_cut)
    assert [sorted(row) for row in data.rows] == [[1], [2], [3]]
    cuts, base, _, _ = oracle_fit(matrix, 4)
    assert data.rows == oracle_transform(cuts, base, on_cut)


def test_cut_points_before_fit():
    with pytest.raises(DataError):
        EqualDepthDiscretizer().cut_points


# ----------------------------------------------------------------------
# Transpose
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n_rows", [63, 64, 65])
def test_transpose_matches_oracle_at_word_edges(n_rows):
    """Row counts around a 64-bit word, with empty rows and items that
    no row contains."""
    rng = np.random.default_rng(n_rows)
    n_items = 40
    rows = []
    for index in range(n_rows):
        if index % 9 == 4:
            rows.append([])
            continue
        # Items 30..39 are never drawn: all-zero masks.
        rows.append(rng.choice(30, size=int(rng.integers(1, 12)), replace=False))
    labels = ["C" if rng.random() < 0.4 else "N" for _ in range(n_rows)]
    labels[0] = "C"
    data = ItemizedDataset.from_lists(rows, labels, n_items=n_items)
    table = TransposedTable.build(data, "C")
    assert table.item_masks == oracle_masks(data, "C")
    assert all(mask == 0 for mask in table.item_masks[30:])
    assert table.item_masks[n_items - 1] == 0
    assert max(table.item_masks).bit_length() <= n_rows


def test_transpose_all_rows_empty():
    data = ItemizedDataset.from_lists([[], [], []], ["C", "N", "C"], n_items=5)
    table = TransposedTable.build(data, "C")
    assert table.item_masks == (0,) * 5 == oracle_masks(data, "C")


def test_transpose_no_items():
    data = ItemizedDataset.from_lists([[], []], ["C", "N"], n_items=0)
    assert TransposedTable.build(data, "C").item_masks == ()


# ----------------------------------------------------------------------
# Vocabulary check
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "rows, n_items",
    [
        ([[0, 1], [2, -1]], 3),
        ([[0, 1], [2, 3]], 3),
        ([[0], [], [5, 1]], 3),
        ([[-4, 9, 1]], 3),
        ([[1], [0, 7, 2]], 3),
    ],
)
def test_vocabulary_error_text_unchanged(rows, n_items):
    expected = oracle_vocabulary_error(
        [frozenset(row) for row in rows], n_items
    )
    with pytest.raises(DataError) as raised:
        ItemizedDataset.from_lists(rows, ["x"] * len(rows), n_items=n_items)
    assert str(raised.value) == expected


@pytest.mark.parametrize(
    "matrix, n_items",
    [
        ([[0, 1], [2, -1]], 3),
        ([[0, 1], [2, 3]], 3),
        ([[0, 1], [5, 1], [7, 9]], 3),
        ([[-4, 9, 1]], 3),
        ([[1, 2, 0], [0, 7, -2]], 3),
    ],
)
def test_matrix_vocabulary_error_text_unchanged(matrix, n_items):
    """The matrix's one range check names the row and item the
    item-by-item scan of its rows would."""
    matrix = np.asarray(matrix)
    expected = oracle_vocabulary_error(
        [frozenset(row) for row in matrix.tolist()], n_items
    )
    with pytest.raises(DataError) as raised:
        ItemizedDataset.from_item_matrix(matrix, ["x"] * len(matrix), n_items)
    assert str(raised.value) == expected


@given(
    st.integers(0, 6),
    st.integers(0, 5),
    st.integers(0, 8),
    st.integers(0, 2**32 - 1),
)
def test_matrix_vocabulary_check_matches_scan(n_rows, width, n_items, seed):
    """Random matrices around the vocabulary's edges: accepted exactly
    when the scan accepts, else rejected with the scan's message."""
    matrix = np.random.default_rng(seed).integers(
        -2, n_items + 2, size=(n_rows, width)
    )
    expected = oracle_vocabulary_error(
        [frozenset(row) for row in matrix.tolist()], n_items
    )
    if expected is None:
        data = ItemizedDataset.from_item_matrix(matrix, ["x"] * n_rows, n_items)
        assert data.rows == tuple(map(frozenset, matrix.tolist()))
        return
    with pytest.raises(DataError) as raised:
        ItemizedDataset.from_item_matrix(matrix, ["x"] * n_rows, n_items)
    assert str(raised.value) == expected


def test_vocabulary_check_accepts_what_the_scan_accepted():
    """A row of plain lists or sets, or of in-range non-int ids, fails
    no item-by-item check and so is still accepted."""
    data = ItemizedDataset(
        rows=([0, 2], {1}, frozenset([1.5])), labels=("x",) * 3, n_items=3
    )
    assert data.n_rows == 3
    assert oracle_vocabulary_error(data.rows, 3) is None


# ----------------------------------------------------------------------
# Lazy rows and names
# ----------------------------------------------------------------------


@pytest.mark.parametrize("warm", [False, True])
def test_mining_path_builds_neither_rows_nor_names(warm, tmp_path):
    """Discretize, transpose, mine (cold, or through the warm cache) and
    serialize: the dataset's frozenset rows and item names are never
    built, so none of those steps reads them."""
    matrix = load("LC", scale=0.02)
    data = EqualDepthDiscretizer(n_buckets=10).fit_transform(matrix)
    table = TransposedTable.build(data, PAPER_DATASETS["LC"].class1)
    miner = Farmer(
        constraints=Constraints(minsup=14),
        warm_cache=str(tmp_path / "cache") if warm else None,
    )
    result = miner.mine_table(table)
    save_rule_groups(
        tmp_path / "lc.irgs",
        result.groups,
        constraints=result.constraints,
        dataset_name=data.name,
    )
    assert result.groups
    assert "rows" not in vars(data)
    assert "item_names" not in vars(data)


def test_lazy_rows_and_names_are_thread_safe():
    """Threads released together first-read the rows and names of one
    fresh dataset: each gets the eager values, all the same objects (a
    second build racing the first would hand out a different one)."""
    matrix = load("LC", scale=0.02)
    discretizer = EqualDepthDiscretizer(n_buckets=10).fit(matrix)
    cuts, base, names, n_items = oracle_fit(matrix, 10)
    eager = ItemizedDataset.from_lists(
        oracle_transform(cuts, base, matrix), matrix.labels, n_items, names
    )
    data = discretizer.transform(matrix)
    n_threads = 8
    barrier = threading.Barrier(n_threads)
    seen: list = [None] * n_threads
    errors: list = []

    def first_read(index: int) -> None:
        try:
            barrier.wait()
            if index % 2:
                seen[index] = (data.rows, data.item_names)
            else:
                names_first = data.item_names
                seen[index] = (data.rows, names_first)
        except BaseException as exc:
            errors.append(exc)

    threads = [
        threading.Thread(target=first_read, args=(index,))
        for index in range(n_threads)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for rows, item_names in seen:
        assert rows == eager.rows
        assert item_names == eager.item_names
        assert rows is seen[0][0] and item_names is seen[0][1]


# ----------------------------------------------------------------------
# Pinned discretized tables
# ----------------------------------------------------------------------

#: ``prep_sha256`` of LC at each scale (10 equal-depth buckets, the
#: paper's class 1 as consequent), taken from the per-gene, per-bit
#: implementation; ``benchmarks/perf_gate.py`` records the same values
#: in its ``prep`` section.
PREP_SHA256 = {
    0.02: "7483ad6d9abaa22e494c6ca313d0985297baa3a3c1d82ac29236d1dbde545c2c",
    0.2: "f13b79185d07941f98f5632728e16ca1277fa230d33057c55390866484f9fc42",
    1.0: "40836c7706eaf2d845e680107b5686e6b4988bcaf60b4cb4fd61d2daf5142096",
}


@pytest.mark.parametrize("scale", sorted(PREP_SHA256))
def test_discretized_table_is_pinned(scale):
    matrix = load("LC", scale=scale)
    discretizer = EqualDepthDiscretizer(n_buckets=10).fit(matrix)
    table = TransposedTable.build(
        discretizer.transform(matrix), PAPER_DATASETS["LC"].class1
    )
    assert prep_sha256(discretizer, table) == PREP_SHA256[scale]
