"""Discretized transactional dataset with class labels.

This is the representation every miner in the package consumes: each row
(a microarray *sample*) is a set of item ids (discretized *gene,interval*
pairs) plus a class label.  It corresponds to the table ``D`` in the
paper's Section 2.1 and Figure 1(a).

Item ids are dense integers ``0 .. n_items - 1``; optional human-readable
item names are kept alongside for reporting.  Labels may be any hashable
value (the paper's datasets use strings such as ``"tumor"``/``"normal"``);
miners binarize against a chosen consequent label.

A dataset is stored one of two ways, and only this module knows which.
Ragged data (``from_lists``, the ``.items`` reader, entropy-MDL) keeps
its frozenset rows.  Equal-depth data, where every row holds one item
per gene, keeps the integer item matrix it was bucketed into
(:meth:`ItemizedDataset.from_item_matrix`) and builds its rows and item
names once, on first read; the mining path reads neither.
"""

from __future__ import annotations

import threading
from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from itertools import chain
from typing import Hashable

import numpy as np

from ..errors import DataError

__all__ = ["ItemizedDataset"]

Label = Hashable


def _check_row(index: int, row: Iterable, n_items: int) -> None:
    """Raise on the first item of ``row`` outside ``range(n_items)``."""
    for item in row:
        if not 0 <= item < n_items:
            raise DataError(
                f"row {index} contains item {item} outside "
                f"vocabulary of size {n_items}"
            )


class ItemizedDataset:
    """An immutable transactional dataset with one class label per row.

    Both storages (see the module docstring) answer every query
    identically, compare equal and hash alike when their contents
    match, and pickle.

    Attributes:
        rows: one ``frozenset`` of item ids per row.
        labels: one class label per row (same length as ``rows``).
        n_items: size of the item vocabulary; every item id is in
            ``range(n_items)``.
        item_names: optional human-readable name per item id.
        name: optional dataset name used in reports.
    """

    def __init__(
        self,
        rows: Sequence[Iterable[int]],
        labels: Sequence[Label],
        n_items: int,
        item_names: Sequence[str] | None = None,
        name: str = "dataset",
    ) -> None:
        if len(rows) != len(labels):
            raise DataError(f"{len(rows)} rows but {len(labels)} labels")
        # One C-level superset test per row; only a row that fails it is
        # scanned item by item, which names the first offender (a row of
        # in-range non-int ids, e.g. 1.5, fails the test but passes here).
        vocabulary = frozenset(range(n_items))
        for index, row in enumerate(rows):
            if not vocabulary.issuperset(row):
                _check_row(index, row, n_items)
        if item_names is not None and len(item_names) != n_items:
            raise DataError(f"{len(item_names)} item names for {n_items} items")
        self._init(
            labels,
            n_items,
            name,
            rows=rows,
            item_names=None if item_names is None else tuple(item_names),
        )

    def _init(self, labels, n_items, name, **fields) -> None:
        """Set every field once; the instance is immutable afterwards."""
        labels = tuple(labels)
        self.__dict__.update(
            labels=labels,
            n_items=n_items,
            name=name,
            _class_counts=Counter(labels),
            **fields,
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"ItemizedDataset is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"ItemizedDataset is immutable; cannot delete {name!r}")

    def _key(self) -> tuple:
        return (self.rows, self.labels, self.n_items, self.item_names, self.name)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ItemizedDataset):
            return NotImplemented
        return self is other or self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"ItemizedDataset(name={self.name!r}, n_rows={self.n_rows}, "
            f"n_items={self.n_items})"
        )

    def __reduce__(self):
        return (
            ItemizedDataset,
            (self.rows, self.labels, self.n_items, self.item_names, self.name),
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_lists(
        cls,
        rows: Iterable[Iterable[int]],
        labels: Iterable[Label],
        n_items: int | None = None,
        item_names: Sequence[str] | None = None,
        name: str = "dataset",
    ) -> "ItemizedDataset":
        """Build a dataset from plain Python iterables.

        ``n_items`` defaults to ``1 + max(item id)`` (or 0 for an empty
        dataset) when not given.
        """
        frozen = tuple(frozenset(row) for row in rows)
        label_tuple = tuple(labels)
        if n_items is None:
            n_items = 1 + max((max(row) for row in frozen if row), default=-1)
        return cls(
            rows=frozen,
            labels=label_tuple,
            n_items=n_items,
            item_names=tuple(item_names) if item_names is not None else None,
            name=name,
        )

    @staticmethod
    def from_item_matrix(
        item_matrix: np.ndarray,
        labels: Sequence[Label],
        n_items: int,
        format_names: Callable[[], Sequence[str]] | None = None,
        name: str = "dataset",
    ) -> "ItemizedDataset":
        """Back a dataset by an ``(n_rows, width)`` integer item matrix.

        Row ``r`` holds the items ``item_matrix[r]``.  The vocabulary is
        checked with one range test over the whole matrix; a failure
        raises the same message as the row-by-row check.  ``rows`` and
        ``item_names`` are built on first read, once, under a lock, so
        threads may share the dataset.

        Args:
            item_matrix: the item ids, one matrix row per dataset row;
                the dataset keeps a read-only view of it.
            labels: one class label per row.
            n_items: size of the item vocabulary.
            format_names: a zero-argument callable returning the item
                names, called on the first read of ``item_names``;
                ``None`` for a dataset without names.  It must pickle
                for the dataset to pickle.
            name: dataset name used in reports.

        Returns:
            The matrix-backed dataset.
        """
        matrix = np.asarray(item_matrix).view()
        if matrix.ndim != 2 or matrix.dtype.kind not in "iu":
            raise DataError(
                f"item matrix must be 2-D integer, got {matrix.ndim}-D "
                f"{matrix.dtype}"
            )
        matrix.flags.writeable = False
        if len(matrix) != len(labels):
            raise DataError(f"{len(matrix)} rows but {len(labels)} labels")
        if matrix.size and (matrix.min() < 0 or matrix.max() >= n_items):
            index = int(((matrix < 0) | (matrix >= n_items)).any(axis=1).argmax())
            _check_row(index, frozenset(matrix[index].tolist()), n_items)
        dataset = _MatrixDataset.__new__(_MatrixDataset)
        dataset._init(
            labels,
            n_items,
            name,
            _matrix=matrix,
            _format_names=format_names,
            _lock=threading.Lock(),
        )
        return dataset

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    @property
    def n_rows(self) -> int:
        """Number of rows (samples)."""
        return len(self.labels)

    @property
    def class_labels(self) -> tuple[Label, ...]:
        """Distinct class labels in first-appearance order."""
        seen: dict[Label, None] = {}
        for label in self.labels:
            seen.setdefault(label, None)
        return tuple(seen)

    def class_count(self, label: Label) -> int:
        """Number of rows carrying ``label``."""
        return self._class_counts.get(label, 0)

    def item_name(self, item: int) -> str:
        """Human-readable name of ``item`` (falls back to ``item<i>``)."""
        if self.item_names is not None:
            return self.item_names[item]
        return f"item{item}"

    def format_itemset(self, items: Iterable[int]) -> str:
        """Render an itemset as a readable, deterministic string."""
        return "{" + ", ".join(self.item_name(i) for i in sorted(items)) + "}"

    def max_row_length(self) -> int:
        """Length of the longest row — the ``i`` in the paper's ``2^i``."""
        return max((len(row) for row in self.rows), default=0)

    def density(self) -> float:
        """Mean fraction of the vocabulary present per row."""
        if not self.n_rows or not self.n_items:
            return 0.0
        return sum(len(row) for row in self.rows) / (self.n_rows * self.n_items)

    def item_positions(self, order: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Every ``(item, position)`` pair of the rows taken in ``order``.

        Row ``order[p]`` contributes one pair ``(item, p)`` per item it
        holds.  A matrix-backed dataset reads the pairs off its matrix; a
        row-backed one walks its frozensets.  This is all
        :meth:`~repro.data.transpose.TransposedTable.build` reads of the
        rows.

        Args:
            order: original row indices, one per position.

        Returns:
            ``(items, positions)``: two equal-length integer arrays.
        """
        rows = [self.rows[original] for original in order]
        lengths = [len(row) for row in rows]
        items = np.fromiter(
            chain.from_iterable(rows), dtype=np.intp, count=sum(lengths)
        )
        return items, np.repeat(np.arange(len(rows)), lengths)

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def select_rows(self, indices: Sequence[int], name: str | None = None) -> "ItemizedDataset":
        """Return a new dataset containing only the given rows, in order."""
        indices = list(indices)
        try:
            labels = tuple(self.labels[i] for i in indices)
        except IndexError as exc:
            raise DataError(f"row index out of range: {exc}") from exc
        return self._take(indices, labels, self.name if name is None else name)

    def replicate(self, factor: int) -> "ItemizedDataset":
        """Concatenate ``factor`` copies of the dataset (row replication).

        This reproduces the paper's Section 4.1.3 scaling experiment, where
        each dataset is "replicated a number of times to generate a new
        dataset" with more rows.
        """
        if factor < 1:
            raise DataError(f"replication factor must be >= 1, got {factor}")
        return self._take(
            list(range(self.n_rows)) * factor,
            self.labels * factor,
            f"{self.name}x{factor}",
        )

    def _take(self, indices: list[int], labels: tuple, name: str) -> "ItemizedDataset":
        """The rows at ``indices`` (all in range) as a dataset stored the
        same way."""
        return ItemizedDataset(
            rows=tuple(self.rows[i] for i in indices),
            labels=labels,
            n_items=self.n_items,
            item_names=self.item_names,
            name=name,
        )

    def binarized_labels(self, consequent: Label) -> tuple[bool, ...]:
        """Per-row booleans: ``True`` where the row carries ``consequent``.

        Raises:
            DataError: if ``consequent`` never occurs in the dataset.
        """
        if self.class_count(consequent) == 0:
            raise DataError(
                f"consequent {consequent!r} does not occur in dataset "
                f"{self.name!r} (labels: {self.class_labels})"
            )
        return tuple(label == consequent for label in self.labels)

    def summary(self) -> dict[str, object]:
        """Table-1 style characteristics of the dataset."""
        return {
            "name": self.name,
            "n_rows": self.n_rows,
            "n_items": self.n_items,
            "max_row_length": self.max_row_length(),
            "density": round(self.density(), 4),
            "class_counts": dict(self._class_counts),
        }


class _BuiltOnce:
    """An attribute built on its first read, under the instance's lock.

    The value lands in the instance ``__dict__``, which shadows this
    non-data descriptor, so later reads never come back here.
    """

    def __init__(self, build: Callable) -> None:
        self._build = build
        self._name = build.__name__
        self.__doc__ = build.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        with instance._lock:
            fields = instance.__dict__
            if self._name not in fields:
                fields[self._name] = self._build(instance)
        return fields[self._name]


class _MatrixDataset(ItemizedDataset):
    """An :class:`ItemizedDataset` stored as its item matrix (see
    :meth:`ItemizedDataset.from_item_matrix`)."""

    @_BuiltOnce
    def rows(self) -> tuple[frozenset[int], ...]:
        """One ``frozenset`` of item ids per row."""
        return tuple(map(frozenset, self._matrix.tolist()))

    @_BuiltOnce
    def item_names(self) -> tuple[str, ...] | None:
        """Human-readable name per item id, or ``None``."""
        if self._format_names is None:
            return None
        names = tuple(self._format_names())
        if len(names) != self.n_items:
            raise DataError(f"{len(names)} item names for {self.n_items} items")
        return names

    def __reduce__(self):
        return (
            ItemizedDataset.from_item_matrix,
            (self._matrix, self.labels, self.n_items, self._format_names, self.name),
        )

    def item_positions(self, order: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        taken = self._matrix[list(order)]
        return taken.ravel(), np.repeat(np.arange(len(taken)), taken.shape[1])

    def _take(self, indices: list[int], labels: tuple, name: str) -> "ItemizedDataset":
        return ItemizedDataset.from_item_matrix(
            self._matrix[indices], labels, self.n_items, self._format_names, name
        )
