"""Shared pieces of the benchmark: the run result and small statistics."""

from __future__ import annotations

import resource
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb() -> float:
    """Peak resident memory: this process plus its largest child, in MB.

    Children are the program's own worker processes (the sharded fleet);
    the kernel keeps the peak of the largest one that has been waited for.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


@dataclass
class Measured:
    """What one measured pass of a workload produced.

    ``units`` items of work took ``wall_s``; ``throughput_per_s`` is the
    workload's headline rate.  ``attempted``/``failed`` count operations,
    with ``failure_base`` saying what was counted.  ``named`` carries the
    workload's own end-to-end figures as ``{name: (value, unit)}``;
    ``fingerprint`` is compared between the untraced and traced passes;
    ``layer`` holds per-layer figures the workload reads off the program.
    """

    wall_s: float
    units: int
    throughput_per_s: float
    attempted: int
    failed: int
    failure_base: str
    problems: List[str] = field(default_factory=list)
    named: Dict[str, Any] = field(default_factory=dict)
    fingerprint: Any = None
    layer: Dict[str, float] = field(default_factory=dict)
