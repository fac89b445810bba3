"""Fixture walker module whose pinned ``enumerate_frontier`` was renamed."""

__all__ = ["walk", "_child_state"]


def _child_state(x_mask, bit):
    """Pinned root that still resolves (and is pure)."""
    return x_mask | bit


def walk(x_mask, bits):
    """The renamed walker: pure, but no longer under the purity gate."""
    for bit in bits:
        x_mask = _child_state(x_mask, bit)
    return x_mask
