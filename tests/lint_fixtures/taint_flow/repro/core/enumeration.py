"""Fixture stand-in for the deterministic reduce surface."""

__all__ = ["merge_counters"]


def merge_counters(parts):
    """Pretend to fold per-shard counters into one record."""
    return tuple(parts)
