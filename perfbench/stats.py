"""Order statistics the benchmark reports.

Percentiles use the nearest-rank definition.  A tail percentile is
only reported when at least :data:`MIN_BEYOND` samples lie beyond it:
with fewer, the value is set by a handful of outliers and does not
repeat from run to run.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence, Tuple

__all__ = ["MIN_BEYOND", "percentile", "supported_percentile"]

MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> Tuple[float, int]:
    """Nearest-rank ``q``-th percentile and the number of samples above
    its rank."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q < 100:
        raise ValueError("q must lie strictly between 0 and 100")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def supported_percentile(
    values: Sequence[float], q: float, min_beyond: int = MIN_BEYOND
) -> Optional[float]:
    """The ``q``-th percentile, or ``None`` when fewer than
    ``min_beyond`` samples lie beyond it."""
    if not values:
        return None
    value, beyond = percentile(values, q)
    return value if beyond >= min_beyond else None
