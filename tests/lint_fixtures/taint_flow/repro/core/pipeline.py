"""Fixture pipeline: two tainted paths into sinks, two clean paths."""

from .enumeration import merge_counters
from .helpers import stamp, wrap
from .serialize import save_rule_groups

__all__ = ["Envelope", "clean", "emit", "project_clean", "record_task"]


def emit(path, groups):
    """BAD: a clock value crosses two helpers into the writer."""
    meta = wrap(stamp())
    return save_rule_groups(path, groups, meta)


def record_task(shard):
    """BAD: a clock value lands in the deterministic reduce."""
    return merge_counters([shard, stamp()])


def clean(path, groups):
    """GOOD: only deterministic data reaches the writer."""
    return save_rule_groups(path, groups, {"n": len(groups)})


class Envelope:
    """Carrier object with a timing field next to payload data."""

    def __init__(self, groups, elapsed):
        self.groups = groups
        self.elapsed = elapsed


def project_clean(path, groups):
    """GOOD: the clock taint stays confined to ``Envelope.elapsed``."""
    box = Envelope(groups=groups, elapsed=stamp())
    return save_rule_groups(path, box.groups, {"n": 1})
