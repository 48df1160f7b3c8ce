"""Order statistics the benchmark reports.

Percentiles use the nearest-rank definition on integer arithmetic, so a
percentile of ``n`` samples is always one of the samples and the rule
below never suffers from float rounding (``0.9 * 100`` is not ``90``).
Percentiles are given in per mille: 500 is the median, 990 is p99.
"""

from __future__ import annotations

import statistics
from typing import Optional, Sequence

#: The percentiles a latency may be reported at, in per mille.
LADDER = (500, 900, 990, 999)

#: Samples a reported percentile needs beyond it.
MIN_BEYOND = 10


def rank(n: int, per_mille: int) -> int:
    """1-based nearest rank of the ``per_mille`` percentile of ``n``."""
    return max(1, (n * per_mille + 999) // 1000)


def percentile(values: Sequence[float], per_mille: int) -> float:
    """Nearest-rank percentile of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[rank(len(ordered), per_mille) - 1]


def tail_per_mille(n: int) -> Optional[int]:
    """The highest percentile of :data:`LADDER` with at least ten
    samples beyond it among ``n``, or ``None`` when not even the first
    has."""
    best = None
    for per_mille in LADDER:
        if n - rank(n, per_mille) >= MIN_BEYOND:
            best = per_mille
    return best


def tail(values: Sequence[float], per_mille: int) -> float:
    """``per_mille`` percentile when the sample supports it, else the max.

    A percentile is reported only with at least ten samples beyond it;
    with fewer (a handful of offline passes) the slowest sample is the
    honest tail.
    """
    allowed = tail_per_mille(len(values))
    if allowed is not None and allowed >= per_mille:
        return percentile(values, per_mille)
    return max(values)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)
