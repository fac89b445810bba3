"""Fixture hot root whose whole call graph stays pure."""

from .helpers import fold

__all__ = ["CondTable"]


class CondTable:
    """Pinned root methods whose helpers only touch parameters and locals."""

    def __init__(self, keys):
        self.keys = keys

    def extend(self, row_bit, on_step=None):
        """Hot root: helpers only touch parameters and locals."""
        kept = []
        for key in self.keys:
            if key & row_bit:
                kept.append(fold(key, row_bit))
                if on_step is not None:
                    on_step(key)
        return CondTable(kept)

    def max_overlap(self, cand_mask):
        """Pinned root kept resolvable so the stale-root check stays quiet."""
        return max(((key & cand_mask).bit_count() for key in self.keys), default=0)

    def observed_max_overlap(self, cache, cand_mask):
        """Count the scan on the caller's ``cache``, then scan."""
        cache.scans += 1
        return self.max_overlap(cand_mask)
