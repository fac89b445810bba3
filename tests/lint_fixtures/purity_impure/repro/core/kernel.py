"""Fixture hot root whose call graph reaches impure helpers."""

from .helpers import fold

__all__ = ["CondTable"]


class CondTable:
    """Pinned root methods; ``extend`` is the one that goes impure."""

    def __init__(self, keys):
        self.keys = keys

    def extend(self, row_bit):
        """Hot root: two hops below, ``trace`` prints and mutates a cache."""
        kept = []
        for key in self.keys:
            if key & row_bit:
                kept.append(fold(key, row_bit))
        return CondTable(kept)

    def max_overlap(self, cand_mask):
        """Pinned root kept resolvable so the stale-root check stays quiet."""
        return max(((key & cand_mask).bit_count() for key in self.keys), default=0)

    def observed_max_overlap(self, cache, cand_mask):
        """Count the scan on the caller's ``cache``, then scan."""
        cache.scans += 1
        return self.max_overlap(cand_mask)
