"""Discretized transactional dataset with class labels.

This is the representation every miner in the package consumes: each row
(a microarray *sample*) is a set of item ids (discretized *gene,interval*
pairs) plus a class label.  It corresponds to the table ``D`` in the
paper's Section 2.1 and Figure 1(a).

Item ids are dense integers ``0 .. n_items - 1``; optional human-readable
item names are kept alongside for reporting.  Labels may be any hashable
value (the paper's datasets use strings such as ``"tumor"``/``"normal"``);
miners binarize against a chosen consequent label.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import Hashable

from ..errors import DataError

__all__ = ["ItemizedDataset"]

Label = Hashable


@dataclass(frozen=True)
class ItemizedDataset:
    """An immutable transactional dataset with one class label per row.

    Attributes:
        rows: one ``frozenset`` of item ids per row.
        labels: one class label per row (same length as ``rows``).
        n_items: size of the item vocabulary; every item id is in
            ``range(n_items)``.
        item_names: optional human-readable name per item id.
        name: optional dataset name used in reports.
    """

    rows: tuple[frozenset[int], ...]
    labels: tuple[Label, ...]
    n_items: int
    item_names: tuple[str, ...] | None = None
    name: str = "dataset"
    _class_counts: Counter = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.rows) != len(self.labels):
            raise DataError(
                f"{len(self.rows)} rows but {len(self.labels)} labels"
            )
        # One C-level superset test per row; only a row that fails it is
        # scanned item by item, which names the first offender (a row of
        # in-range non-int ids, e.g. 1.5, fails the test but passes here).
        vocabulary = frozenset(range(self.n_items))
        for index, row in enumerate(self.rows):
            if vocabulary.issuperset(row):
                continue
            for item in row:
                if not 0 <= item < self.n_items:
                    raise DataError(
                        f"row {index} contains item {item} outside "
                        f"vocabulary of size {self.n_items}"
                    )
        if self.item_names is not None and len(self.item_names) != self.n_items:
            raise DataError(
                f"{len(self.item_names)} item names for {self.n_items} items"
            )
        object.__setattr__(self, "_class_counts", Counter(self.labels))

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

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    @property
    def n_rows(self) -> int:
        """Number of rows (samples)."""
        return len(self.rows)

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
        if not self.rows or not self.n_items:
            return 0.0
        return sum(len(row) for row in self.rows) / (self.n_rows * self.n_items)

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def select_rows(self, indices: Sequence[int], name: str | None = None) -> "ItemizedDataset":
        """Return a new dataset containing only the given rows, in order."""
        try:
            rows = tuple(self.rows[i] for i in indices)
            labels = tuple(self.labels[i] for i in indices)
        except IndexError as exc:
            raise DataError(f"row index out of range: {exc}") from exc
        return ItemizedDataset(
            rows=rows,
            labels=labels,
            n_items=self.n_items,
            item_names=self.item_names,
            name=name if name is not None else self.name,
        )

    def replicate(self, factor: int) -> "ItemizedDataset":
        """Concatenate ``factor`` copies of the dataset (row replication).

        This reproduces the paper's Section 4.1.3 scaling experiment, where
        each dataset is "replicated a number of times to generate a new
        dataset" with more rows.
        """
        if factor < 1:
            raise DataError(f"replication factor must be >= 1, got {factor}")
        return ItemizedDataset(
            rows=self.rows * factor,
            labels=self.labels * factor,
            n_items=self.n_items,
            item_names=self.item_names,
            name=f"{self.name}x{factor}",
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
