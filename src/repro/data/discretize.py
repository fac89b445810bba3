"""Discretization of continuous expression values into items.

The paper (Section 4, "Datasets") uses two discretization schemes:

* **equal-depth partitioning with 10 buckets** for the efficiency
  experiments (Figures 10 and 11), and
* **entropy-minimized partitioning** (Fayyad & Irani's MDL method, via
  MLC++) for the classification experiments (Table 2) — it is supervised
  and drops genes whose expression carries no class signal, which is why
  the competing miners could not even finish on the equal-depth data.

Both are implemented here with a scikit-learn-style ``fit`` /
``transform`` split so a discretizer fitted on training samples can be
applied to held-out test samples (required by the Table 2 protocol).

An *item* is a ``(gene, interval)`` pair; e.g. the item named
``"TP53@[2.31,3.05)"`` is present in a sample iff that sample's TP53
expression falls in the interval.

Equal-depth, the paper's efficiency setting, works on the whole matrix.
``fit`` sorts every gene's values in one ``np.sort(..., axis=0)`` and
reads each quantile off the sorted columns with numpy's ``linear``
interpolation, the arithmetic ``numpy.quantile`` uses, so the cuts are
``numpy.quantile``'s byte for byte (see :meth:`EqualDepthDiscretizer.fit`
for the one exception, the sign of a zero cut).  ``transform`` buckets
every value with one comparison per cut rank and returns a dataset
backed by that item matrix (:meth:`ItemizedDataset.from_item_matrix`):
its frozenset rows and item names are built on first read, which the
mining path never does.  At LC scale 1.0 (12,533 genes, 125,330 items)
``fit`` takes ~25-35 ms, most of it the sort; ``numpy.quantile``, which
partitions every column around each order statistic, took ~145 ms.
The entropy-MDL discretizer, used only for classification, fits gene by
gene and returns row-backed datasets.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from functools import partial

import numpy as np

from ..errors import DataError
from .dataset import ItemizedDataset
from .matrix import GeneExpressionMatrix

__all__ = [
    "Discretizer",
    "EqualDepthDiscretizer",
    "EntropyMDLDiscretizer",
]


class Discretizer(ABC):
    """Common interface: ``fit`` on a matrix, ``transform`` to items."""

    @abstractmethod
    def fit(self, matrix: GeneExpressionMatrix) -> "Discretizer":
        """Learn per-gene cut points from ``matrix``; returns ``self``."""

    @abstractmethod
    def transform(self, matrix: GeneExpressionMatrix) -> ItemizedDataset:
        """Map each sample to its set of ``(gene, interval)`` items."""

    def fit_transform(self, matrix: GeneExpressionMatrix) -> ItemizedDataset:
        """Convenience: ``fit(matrix)`` then ``transform(matrix)``."""
        return self.fit(matrix).transform(matrix)


def _interval_name(gene: str, cuts: np.ndarray, bucket: int) -> str:
    """Human-readable name for bucket ``bucket`` of a gene with ``cuts``."""
    low = "-inf" if bucket == 0 else f"{cuts[bucket - 1]:.4g}"
    high = "+inf" if bucket == len(cuts) else f"{cuts[bucket]:.4g}"
    return f"{gene}@[{low},{high})"


class EqualDepthDiscretizer(Discretizer):
    """Equal-frequency bucketing, ``n_buckets`` per gene (paper default 10).

    Cut points are the empirical quantiles of each gene's training values.
    Duplicate quantiles (genes with many ties) are collapsed, so a gene may
    end up with fewer than ``n_buckets`` distinct buckets; a constant gene
    yields a single bucket.  Every sample produces exactly one item per
    gene, so rows all have length ``n_genes`` — this is what makes the
    equal-depth datasets brutal for column enumeration.

    Both passes work on the whole matrix: ``fit`` sorts every gene's
    values at once, reads its quantiles off the sorted columns and
    keeps a cut only where it differs from the one below it, and
    ``transform`` counts the kept cuts at or below each value, one
    comparison per cut rank rather than a search per gene.
    The item names are formatted from the fitted cuts only when a
    transformed dataset's ``item_names`` is first read.
    """

    def __init__(self, n_buckets: int = 10) -> None:
        if n_buckets < 1:
            raise DataError(f"n_buckets must be >= 1, got {n_buckets}")
        self.n_buckets = n_buckets
        # (n_buckets - 1, n_genes): each column a gene's sorted quantiles,
        # and whether each differs from the one below it (kept cuts).
        self._cuts: np.ndarray | None = None
        self._keep: np.ndarray | None = None
        self._item_base: np.ndarray | None = None
        self._format_names: partial[tuple[str, ...]] | None = None
        self._n_items = 0

    @property
    def cut_points(self) -> tuple[np.ndarray, np.ndarray]:
        """The fitted cuts as ``(counts, cuts)``.

        ``counts[g]`` is gene ``g``'s number of distinct cuts (its bucket
        count minus one) and ``cuts`` concatenates every gene's ascending
        distinct cuts in gene order.
        """
        if self._cuts is None or self._keep is None:
            raise DataError("fit() has not been called")
        return self._keep.sum(axis=0), self._cuts.T[self._keep.T]

    def fit(self, matrix: GeneExpressionMatrix) -> "EqualDepthDiscretizer":
        """Fit every gene's cuts from one sort of its values.

        The cuts are ``numpy.quantile(values, q, axis=0)`` with its
        default ``linear`` method, computed step for step as numpy 2
        does (its ``_get_indexes``, ``_get_gamma`` and ``_lerp``) but on
        sorted columns instead of partitioned ones.  A sort and a
        partition put the same value at every order-statistic rank, so
        the cuts are ``numpy.quantile``'s byte for byte, with one
        exception: a gene holding both ``-0.0`` and ``0.0`` may get a
        zero cut of the other sign, as the two compare equal and either
        may land on a rank.  That moves no value to another bucket and
        no item id; only an item name may read ``-0`` where
        ``numpy.quantile``'s reads ``0``, or the other way round.
        """
        if matrix.n_samples == 0:
            raise DataError("cannot fit a discretizer on an empty matrix")
        quantiles = np.arange(1, self.n_buckets) / self.n_buckets
        ordered = np.sort(matrix.values, axis=0)
        n = len(ordered)
        # Each quantile's virtual rank, the ranks either side of it
        # (both the last rank once it reaches the last), and the weight
        # of the upper one.
        virtual = (n - 1) * quantiles
        below = np.floor(virtual)
        above = below + 1
        last = virtual >= n - 1
        below[last] = above[last] = -1
        below = below.astype(np.intp)
        above = above.astype(np.intp)
        gamma = (virtual - below).reshape(-1, 1)
        low = ordered[below]
        high = ordered[above]
        spread = high - low
        cuts = low + spread * gamma
        np.subtract(high, spread * (1 - gamma), out=cuts, where=gamma >= 0.5)
        cuts = np.sort(cuts, axis=0)
        keep = np.ones(cuts.shape, dtype=bool)
        keep[1:] = cuts[1:] != cuts[:-1]
        sizes = keep.sum(axis=0) + 1
        self._cuts = cuts
        self._keep = keep
        self._item_base = np.cumsum(sizes) - sizes
        self._n_items = int(sizes.sum())
        self._format_names = partial(
            _equal_depth_names, tuple(matrix.gene_names), cuts, keep
        )
        return self

    def transform(self, matrix: GeneExpressionMatrix) -> ItemizedDataset:
        if self._cuts is None or self._keep is None or self._item_base is None:
            raise DataError("transform() called before fit()")
        if matrix.n_genes != self._cuts.shape[1]:
            raise DataError(
                f"matrix has {matrix.n_genes} genes; discretizer was fitted "
                f"on {self._cuts.shape[1]}"
            )
        # A value's bucket is the number of kept cuts at or below it, so a
        # value equal to a cut lands in the higher bucket, matching the
        # half-open [low, high) intervals.
        item_matrix = np.broadcast_to(
            self._item_base, (matrix.n_samples, matrix.n_genes)
        ).copy()
        for cuts, keep in zip(self._cuts, self._keep):
            item_matrix += (cuts <= matrix.values) & keep
        return ItemizedDataset.from_item_matrix(
            item_matrix,
            labels=matrix.labels,
            n_items=self._n_items,
            format_names=self._format_names,
            name=f"{matrix.name}/eqdepth{self.n_buckets}",
        )


def _equal_depth_names(
    gene_names: tuple[str, ...], cuts: np.ndarray, keep: np.ndarray
) -> tuple[str, ...]:
    """Item names of fitted equal-depth cuts, in item-id order.

    Each distinct cut is formatted once: it is the high bound of its
    bucket and the low bound of the next.  Kept cuts, in gene order,
    fill exactly the buckets that are not a gene's first (as low
    bounds) and not its last (as high bounds).
    """
    counts = keep.sum(axis=0)
    sizes = counts + 1
    item_base = np.cumsum(sizes) - sizes
    n_items = int(sizes.sum())
    bounds = [f"{cut:.4g}" for cut in cuts.T[keep.T].tolist()]
    first = np.zeros(n_items, dtype=bool)
    first[item_base] = True
    last = np.zeros(n_items, dtype=bool)
    last[item_base + counts] = True
    lows = np.full(n_items, "-inf", dtype=object)
    lows[~first] = bounds
    highs = np.full(n_items, "+inf", dtype=object)
    highs[~last] = bounds
    genes = np.repeat(np.asarray(gene_names, dtype=object), sizes)
    return tuple(
        map("{}@[{},{})".format, genes.tolist(), lows.tolist(), highs.tolist())
    )


def _class_entropy(counts: np.ndarray) -> float:
    """Entropy in bits of a class-count vector."""
    total = counts.sum()
    if total == 0:
        return 0.0
    probabilities = counts[counts > 0] / total
    return float(-(probabilities * np.log2(probabilities)).sum())


class EntropyMDLDiscretizer(Discretizer):
    """Fayyad-Irani recursive entropy minimization with the MDL stop rule.

    For each gene the samples are sorted by expression; the binary cut
    minimizing the class-entropy of the two halves is found among boundary
    points, accepted iff its information gain passes the MDL criterion

    ``gain > (log2(N-1) + log2(3^k - 2) - k*E(S) + k1*E(S1) + k2*E(S2)) / N``

    and the two halves are then split recursively.  Genes where no cut is
    accepted are *dropped* (they produce no items), which is the behaviour
    of the MLC++ code the paper used and the reason the entropy-discretized
    datasets are far sparser than the equal-depth ones.
    """

    def __init__(self, max_depth: int = 16) -> None:
        if max_depth < 1:
            raise DataError(f"max_depth must be >= 1, got {max_depth}")
        self.max_depth = max_depth
        self._cuts: list[np.ndarray] | None = None
        self._item_base: list[int] | None = None
        self._item_names: list[str] | None = None
        self._kept_genes: list[int] | None = None
        self._n_items = 0

    # -- fitting -------------------------------------------------------

    def fit(self, matrix: GeneExpressionMatrix) -> "EntropyMDLDiscretizer":
        if matrix.n_samples == 0:
            raise DataError("cannot fit a discretizer on an empty matrix")
        label_to_index = {label: k for k, label in enumerate(matrix.class_labels)}
        classes = np.asarray([label_to_index[label] for label in matrix.labels])
        n_classes = len(label_to_index)

        cuts_per_gene: list[np.ndarray] = []
        kept: list[int] = []
        item_base: list[int] = []
        item_names: list[str] = []
        next_id = 0
        for gene_index in range(matrix.n_genes):
            column = matrix.values[:, gene_index]
            order = np.argsort(column, kind="stable")
            cuts = self._split_recursive(
                column[order], classes[order], n_classes, self.max_depth
            )
            if not cuts:
                continue
            cut_array = np.asarray(sorted(cuts))
            kept.append(gene_index)
            cuts_per_gene.append(cut_array)
            item_base.append(next_id)
            gene = matrix.gene_names[gene_index]
            for bucket in range(len(cut_array) + 1):
                item_names.append(_interval_name(gene, cut_array, bucket))
            next_id += len(cut_array) + 1
        self._cuts = cuts_per_gene
        self._kept_genes = kept
        self._item_base = item_base
        self._item_names = item_names
        self._n_items = next_id
        return self

    def _split_recursive(
        self,
        values: np.ndarray,
        classes: np.ndarray,
        n_classes: int,
        depth: int,
    ) -> list[float]:
        """Return accepted cut values for a sorted (values, classes) run."""
        n = len(values)
        if depth == 0 or n < 2:
            return []
        total_counts = np.bincount(classes, minlength=n_classes)
        base_entropy = _class_entropy(total_counts)
        if base_entropy == 0.0:
            return []

        best = self._best_boundary(values, classes, n_classes, total_counts)
        if best is None:
            return []
        split_at, left_entropy, right_entropy, left_classes_n, right_classes_n = best

        info = (
            split_at / n * left_entropy + (n - split_at) / n * right_entropy
        )
        gain = base_entropy - info
        k = int((total_counts > 0).sum())
        delta = (
            math.log2(3**k - 2)
            - (k * base_entropy - left_classes_n * left_entropy - right_classes_n * right_entropy)
        )
        threshold = (math.log2(n - 1) + delta) / n
        if gain <= threshold:
            return []

        cut = (values[split_at - 1] + values[split_at]) / 2.0
        left = self._split_recursive(
            values[:split_at], classes[:split_at], n_classes, depth - 1
        )
        right = self._split_recursive(
            values[split_at:], classes[split_at:], n_classes, depth - 1
        )
        return left + [float(cut)] + right

    @staticmethod
    def _best_boundary(
        values: np.ndarray,
        classes: np.ndarray,
        n_classes: int,
        total_counts: np.ndarray,
    ):
        """Find the entropy-minimizing cut position among value boundaries.

        Returns ``(split_index, left_entropy, right_entropy, k_left,
        k_right)`` or ``None`` when no valid boundary exists (all values
        equal).  Only positions where the value actually changes are
        candidates, so identical expression levels are never separated.
        """
        n = len(values)
        best_info = math.inf
        best = None
        left_counts = np.zeros(n_classes, dtype=np.int64)
        for split_at in range(1, n):
            left_counts[classes[split_at - 1]] += 1
            if values[split_at] == values[split_at - 1]:
                continue
            right_counts = total_counts - left_counts
            left_entropy = _class_entropy(left_counts)
            right_entropy = _class_entropy(right_counts)
            info = (
                split_at / n * left_entropy
                + (n - split_at) / n * right_entropy
            )
            if info < best_info:
                best_info = info
                best = (
                    split_at,
                    left_entropy,
                    right_entropy,
                    int((left_counts > 0).sum()),
                    int((right_counts > 0).sum()),
                )
        return best

    # -- transform ------------------------------------------------------

    def transform(self, matrix: GeneExpressionMatrix) -> ItemizedDataset:
        if self._cuts is None or self._kept_genes is None:
            raise DataError("transform() called before fit()")
        rows: list[frozenset[int]] = []
        if self._item_base is None:
            raise DataError("transform() called before fit()")
        for sample_index in range(matrix.n_samples):
            items: list[int] = []
            for kept_index, gene_index in enumerate(self._kept_genes):
                if gene_index >= matrix.n_genes:
                    raise DataError(
                        f"matrix has {matrix.n_genes} genes; discretizer "
                        f"expects gene index {gene_index}"
                    )
                value = matrix.values[sample_index, gene_index]
                cuts = self._cuts[kept_index]
                bucket = int(np.searchsorted(cuts, value, side="right"))
                items.append(self._item_base[kept_index] + bucket)
            rows.append(frozenset(items))
        return ItemizedDataset(
            rows=tuple(rows),
            labels=tuple(matrix.labels),
            n_items=self._n_items,
            item_names=tuple(self._item_names or ()),
            name=f"{matrix.name}/entropy",
        )

    @property
    def n_kept_genes(self) -> int:
        """Number of genes with at least one accepted cut."""
        if self._kept_genes is None:
            raise DataError("fit() has not been called")
        return len(self._kept_genes)
