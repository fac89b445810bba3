"""The daemon's dataset registry: uploads, table caching, warm reuse.

A one-shot CLI pays the full preprocessing pipeline — generate/load,
discretize, transpose — on every invocation.  A daemon serving repeat
queries must not: the pipeline's output is deterministic in
``(dataset, scale, seed, buckets, consequent)``, so the registry caches
it across requests and every job that shares a key starts mining
immediately.

Three layers, coarsest reuse first:

1. **Datasets** — the five paper datasets
   (:data:`repro.data.registry.PAPER_DATASETS`) are always present;
   uploaded expression TSVs are content-fingerprinted (sha256) and
   persisted under ``<root>/uploads`` so re-uploading the same bytes
   yields the same dataset id (``up-<digest12>``) and a daemon restart
   keeps every upload.
2. **Tables** — discretized datasets and their transposed tables are
   memoized in a bounded FIFO cache keyed by the full preprocessing
   key; a hit skips generation, discretization *and* transposition.
3. **Frontier entries** — all jobs share one warm-frontier directory
   (``<root>/frontier``), so a job re-mining any dataset under the same
   or tighter constraints is answered by a :mod:`repro.core.frontier`
   filter instead of a cold mine.  The entries are keyed by
   :func:`~repro.core.frontier.frontier_fingerprint`, which the
   registry exposes per cached table so ``GET /v1/cache`` can attribute
   entries to datasets.

The registry is thread-safe: HTTP handler threads list and upload while
job workers resolve tables concurrently.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from pathlib import Path

from ..core.farmer import Farmer
from ..core.frontier import cache_entries, frontier_fingerprint
from ..data.discretize import EqualDepthDiscretizer
from ..data.registry import PAPER_DATASETS, load
from ..data.transpose import TransposedTable
from ..errors import DataError
from .schemas import ApiError, JobSpec

__all__ = ["DatasetRegistry", "TABLE_CACHE_SIZE", "UPLOAD_PREFIX"]

#: Bounded table-cache capacity (FIFO): each entry holds one discretized
#: dataset plus its transposed tables, the daemon's hottest artifacts.
TABLE_CACHE_SIZE = 8

#: Dataset-id prefix of uploaded datasets.
UPLOAD_PREFIX = "up-"

#: Pruning set every served mine runs under (the miner default); part
#: of the frontier fingerprint, so it is pinned here once.
_SERVE_PRUNINGS = tuple(sorted(Farmer().prunings))


def _fingerprint_text(text: str) -> str:
    """sha256 hex digest of an upload's exact text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class DatasetRegistry:
    """Datasets, preprocessing caches and the shared frontier directory.

    Args:
        root: the daemon's state directory; ``uploads/`` and
            ``frontier/`` are created beneath it.  Existing uploads are
            re-indexed so registry contents survive restarts.
        table_cache_size: bounded FIFO capacity for cached
            ``(dataset, scale, seed, buckets)`` preprocessing results.
    """

    def __init__(
        self, root: "str | Path", table_cache_size: int = TABLE_CACHE_SIZE
    ) -> None:
        self.root = Path(root)
        self.uploads_dir = self.root / "uploads"
        self.frontier_dir = self.root / "frontier"
        self.uploads_dir.mkdir(parents=True, exist_ok=True)
        self.frontier_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._table_cache_size = table_cache_size
        #: (dataset_id, scale, seed, buckets) -> discretized dataset
        self._data_cache: "OrderedDict[tuple, object]" = OrderedDict()
        #: (dataset_id, scale, seed, buckets, consequent) -> table
        self._table_cache: "OrderedDict[tuple, TransposedTable]" = OrderedDict()
        self._uploads: dict[str, Path] = {}
        self.table_hits = 0
        self.table_misses = 0
        for path in sorted(self.uploads_dir.glob("*.tsv")):
            self._uploads[f"{UPLOAD_PREFIX}{path.stem}"] = path

    # ------------------------------------------------------------------
    # Dataset inventory
    # ------------------------------------------------------------------

    def dataset_ids(self) -> list[str]:
        """Every known dataset id, paper datasets first, sorted."""
        with self._lock:
            uploads = sorted(self._uploads)
        return sorted(PAPER_DATASETS) + uploads

    def list_datasets(self) -> list[dict]:
        """The ``GET /v1/datasets`` inventory (cheap: no matrix loads).

        Returns:
            One summary per dataset: paper datasets report their spec
            (rows, classes, paper column count); uploads report their
            fingerprint and file size.
        """
        entries = []
        for name in sorted(PAPER_DATASETS):
            spec = PAPER_DATASETS[name]
            entries.append(
                {
                    "id": name,
                    "kind": "paper",
                    "long_name": spec.long_name,
                    "rows": spec.n_rows,
                    "paper_cols": spec.paper_cols,
                    "classes": [spec.class1, spec.class0],
                }
            )
        with self._lock:
            uploads = sorted(self._uploads.items())
        for dataset_id, path in uploads:
            entries.append(
                {
                    "id": dataset_id,
                    "kind": "upload",
                    "fingerprint": path.stem,
                    "bytes": path.stat().st_size if path.exists() else 0,
                }
            )
        return entries

    def add_dataset(self, text: str) -> dict:
        """Register an uploaded expression TSV (``POST /v1/datasets``).

        The upload is fingerprinted by content, persisted under
        ``uploads/`` and validated by a full parse — a malformed table
        never enters the registry.  Re-uploading identical bytes is
        idempotent and returns the same id.

        Args:
            text: the TSV text (the ``farmer generate`` format:
                ``label`` column then one column per gene).

        Returns:
            ``{"id", "fingerprint", "samples", "genes", "classes",
            "created"}`` — ``created`` is ``False`` for an idempotent
            re-upload.

        Raises:
            ApiError: ``400 bad_request`` when the TSV does not parse.
        """
        digest = _fingerprint_text(text)
        dataset_id = f"{UPLOAD_PREFIX}{digest[:16]}"
        path = self.uploads_dir / f"{digest[:16]}.tsv"
        with self._lock:
            created = dataset_id not in self._uploads
        if created:
            path.write_text(text, encoding="utf-8")
        from ..data.io import load_expression

        try:
            matrix = load_expression(path, name=dataset_id)
        except DataError as exc:
            if created:
                path.unlink(missing_ok=True)
            raise ApiError(400, "bad_request", f"invalid dataset: {exc}")
        if created:
            with self._lock:
                self._uploads[dataset_id] = path
        return {
            "id": dataset_id,
            "fingerprint": digest,
            "samples": matrix.n_samples,
            "genes": matrix.n_genes,
            "classes": list(matrix.class_labels),
            "created": created,
        }

    def describe(self, dataset_id: str) -> dict:
        """The ``GET /v1/datasets/{id}`` detail (loads the matrix).

        Args:
            dataset_id: a paper dataset name or an upload id.

        Returns:
            The listing entry plus the materialized shape, class labels
            and default consequent.

        Raises:
            ApiError: ``404 not_found`` for an unknown id.
        """
        matrix = self._matrix(dataset_id, JobSpec.scale, None)
        base = {
            "id": dataset_id,
            "kind": "paper" if dataset_id in PAPER_DATASETS else "upload",
            "samples": matrix.n_samples,
            "genes": matrix.n_genes,
            "classes": list(matrix.class_labels),
            "default_consequent": matrix.class_labels[0],
        }
        if dataset_id in PAPER_DATASETS:
            spec = PAPER_DATASETS[dataset_id]
            base["long_name"] = spec.long_name
            base["paper_cols"] = spec.paper_cols
        return base

    # ------------------------------------------------------------------
    # Preprocessing caches
    # ------------------------------------------------------------------

    def _matrix(self, dataset_id: str, scale: float, seed: "int | None"):
        """Load the continuous matrix for ``dataset_id`` (uncached)."""
        if dataset_id in PAPER_DATASETS:
            return load(dataset_id, scale=scale, seed=seed)
        with self._lock:
            path = self._uploads.get(dataset_id)
        if path is None:
            raise ApiError(
                404, "not_found", f"unknown dataset {dataset_id!r}"
            )
        from ..data.io import load_expression

        return load_expression(path, name=dataset_id)

    def data(
        self,
        dataset_id: str,
        scale: float,
        seed: "int | None",
        buckets: int,
    ) -> tuple:
        """The discretized dataset for a preprocessing key, cached.

        Args:
            dataset_id: a paper dataset name or an upload id.
            scale: gene-count scale (paper datasets only; uploads pin
                their own shape, so their cache key ignores it).
            seed: generation seed override (paper datasets only).
            buckets: equal-depth discretization buckets.

        Returns:
            ``(data, cache_hit)`` — the
            :class:`~repro.data.dataset.ItemizedDataset` and whether it
            came from cache.

        Raises:
            ApiError: ``404 not_found`` for an unknown dataset id.
        """
        if dataset_id not in PAPER_DATASETS:
            scale, seed = 0.0, None
        key = (dataset_id, round(scale, 9), seed, buckets)
        with self._lock:
            if key in self._data_cache:
                self._data_cache.move_to_end(key)
                return self._data_cache[key], True
        matrix = self._matrix(dataset_id, scale, seed)
        data = EqualDepthDiscretizer(n_buckets=buckets).fit_transform(matrix)
        with self._lock:
            self._data_cache[key] = data
            while len(self._data_cache) > self._table_cache_size:
                self._data_cache.popitem(last=False)
        return data, False

    def table(
        self,
        dataset_id: str,
        scale: float,
        seed: "int | None",
        buckets: int,
        consequent: "str | None",
    ) -> tuple:
        """The transposed table for a full mining key, cached.

        Args:
            dataset_id: a paper dataset name or an upload id.
            scale: gene-count scale (paper datasets only).
            seed: generation seed override (paper datasets only).
            buckets: equal-depth discretization buckets.
            consequent: class label on the rule RHS (``None`` = the
                dataset's class 1).

        Returns:
            ``(data, table, cache_hit)`` — the discretized dataset, its
            :class:`~repro.data.transpose.TransposedTable` for
            ``consequent``, and whether the *table* came from cache.

        Raises:
            ApiError: ``404 not_found`` for an unknown dataset id;
                ``400 bad_request`` for a consequent that is not one of
                the dataset's class labels.
        """
        data, _ = self.data(dataset_id, scale, seed, buckets)
        if consequent is None:
            consequent = data.class_labels[0]
        if consequent not in data.class_labels:
            raise ApiError(
                400,
                "bad_request",
                f"consequent {consequent!r} is not a class of "
                f"{dataset_id!r} (classes: {list(data.class_labels)})",
            )
        if dataset_id not in PAPER_DATASETS:
            scale, seed = 0.0, None
        key = (dataset_id, round(scale, 9), seed, buckets, consequent)
        with self._lock:
            if key in self._table_cache:
                self._table_cache.move_to_end(key)
                self.table_hits += 1
                return data, self._table_cache[key], True
        table = TransposedTable.build(data, consequent)
        with self._lock:
            self.table_misses += 1
            self._table_cache[key] = table
            while len(self._table_cache) > self._table_cache_size:
                self._table_cache.popitem(last=False)
        return data, table, False

    # ------------------------------------------------------------------
    # Warm-frontier inventory
    # ------------------------------------------------------------------

    def frontier_inventory(self) -> list[dict]:
        """The ``GET /v1/cache`` view of the shared frontier directory.

        Entries are attributed to dataset ids where possible: the
        registry knows the fingerprint of every table it has cached, so
        entries captured through it resolve; foreign entries (left by a
        previous daemon run whose tables have been evicted) list with a
        ``null`` dataset.

        Returns:
            One JSON-able summary per valid cache entry, sorted by
            filename: ``{"dataset", "fingerprint", "constraints",
            "stats"}``.
        """
        with self._lock:
            known = {
                frontier_fingerprint(table, _SERVE_PRUNINGS): key[0]
                for key, table in self._table_cache.items()
            }
        inventory = []
        for entry in cache_entries(self.frontier_dir):
            constraints = entry["constraints"]
            inventory.append(
                {
                    "dataset": known.get(entry["fingerprint"]),
                    "fingerprint": entry["fingerprint"],
                    "constraints": {
                        "minsup": constraints.minsup,
                        "minconf": constraints.minconf,
                        "minchi": constraints.minchi,
                    },
                    "stats": entry["stats"],
                }
            )
        return inventory
