"""A content hash of equal-depth prep: the discretized, transposed table.

:func:`prep_sha256` digests everything discretize and transpose
produce for a dataset — the fitted cuts, the item names, the rows and
the transposed item masks — so a change to either step that moves any
byte of its output shows up as a different hash.  The tier-1 tests pin
it at LC scales 0.02, 0.2 and 1.0 and for the five paper datasets at
scales 0.008 and 0.02, and ``benchmarks/perf_gate.py``
records and checks it in its ``prep`` section.  Hashing reads the
dataset's rows and names, so it builds both on a matrix-backed
dataset.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..data.discretize import EqualDepthDiscretizer
from ..data.transpose import TransposedTable

__all__ = ["prep_sha256"]


def prep_sha256(discretizer: EqualDepthDiscretizer, table: TransposedTable) -> str:
    """The sha256 of a fitted discretizer's cuts and the table it built.

    Args:
        discretizer: the fitted discretizer whose ``transform`` produced
            ``table.source``.
        table: the transposed table built from that dataset.

    Returns:
        The hex digest over tagged, length-prefixed sections: the
        per-gene cut counts (little-endian int64), the cuts in gene
        order (little-endian float64), the item names joined by
        newlines, the row lengths and every row's ascending item ids
        (little-endian int64), and the item masks in hex.
    """
    counts, cuts = discretizer.cut_points
    dataset = table.source
    rows = dataset.rows
    digest = hashlib.sha256()
    for tag, data in (
        (b"counts", counts.astype("<i8").tobytes()),
        (b"cuts", cuts.astype("<f8").tobytes()),
        (b"names", "\n".join(dataset.item_names or ()).encode()),
        (b"lengths", np.array([len(row) for row in rows], dtype="<i8").tobytes()),
        (b"rows", b"".join(
            np.sort(np.fromiter(row, dtype="<i8", count=len(row))).tobytes()
            for row in rows
        )),
        (b"masks", ",".join(format(m, "x") for m in table.item_masks).encode()),
    ):
        digest.update(tag + len(data).to_bytes(8, "little") + data)
    return digest.hexdigest()
