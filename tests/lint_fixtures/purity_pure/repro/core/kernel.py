"""Fixture hot root whose whole call graph stays pure."""

from .helpers import fold

__all__ = ["CondTable", "extend_and_scan", "max_candidate_overlap"]


def extend_and_scan(state, rows, on_step=None):
    """Hot root: helpers only touch parameters and locals."""
    best = state
    for row in rows:
        best = fold(best, row)
        if on_step is not None:
            on_step(best)
    return best


def max_candidate_overlap(masks, cand_mask):
    """Pinned root kept resolvable so the stale-root check stays quiet."""
    return max((mask & cand_mask for mask in masks), default=0)


class CondTable:
    """Pinned root methods kept resolvable (see ``max_candidate_overlap``)."""

    def __init__(self, masks):
        self.masks = masks

    def extend(self, row_bit):
        """Keep the masks containing ``row_bit``."""
        return CondTable([mask for mask in self.masks if mask & row_bit])

    def max_overlap(self, cand_mask):
        """Delegate to the module-level scan."""
        return max_candidate_overlap(self.masks, cand_mask)

    def observed_max_overlap(self, cache, cand_mask):
        """Count the scan on the caller's ``cache``, then scan."""
        cache.scans += 1
        return self.max_overlap(cand_mask)
