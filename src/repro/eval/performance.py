"""Performance evaluation: Figure 5 of the paper.

The paper times 40 million random 64-bit tnum pairs with RDTSC, taking
the minimum of 10 trials per pair, and reports the CDF of cycles for
``kern_mul``, (optimized) ``bitwise_mul``, and ``our_mul``; headline:
our_mul averages 262 cycles vs 393 (kern) and 387 (bitwise) — 33% / 32%
faster — and the *naive* bitwise_mul costs ~4921 cycles.

Substitution (see README.md's "Reproduction notes"): RDTSC →
``time.perf_counter_ns``; sample counts default far below 40M because
pure Python is ~100× slower per multiply.  Relative ordering and CDF
shape — who is fastest, by roughly what factor — are the reproduction
targets.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines import bitwise_mul_naive
from repro.core.tnum import Tnum, random_tnum

from .precision import MUL_ALGORITHMS
from .stats import cdf_points, summarize

__all__ = [
    "TimingResult",
    "time_algorithms",
    "generate_pairs",
    "speedup_summary",
]


def generate_pairs(
    count: int, width: int = 64, seed: int = 0
) -> List[Tuple[Tnum, Tnum]]:
    """Random well-formed 64-bit tnum pairs (the paper's workload)."""
    rng = random.Random(seed)
    return [(random_tnum(rng, width), random_tnum(rng, width)) for _ in range(count)]


@dataclass
class TimingResult:
    """Per-algorithm timing over a shared set of input pairs."""

    algorithm: str
    per_pair_ns: List[float] = field(default_factory=list)

    def cdf(self, max_points: int = 200) -> List[Tuple[float, float]]:
        return cdf_points(self.per_pair_ns, max_points)

    def summary(self) -> Dict[str, float]:
        return summarize(self.per_pair_ns)

    @property
    def mean_ns(self) -> float:
        return sum(self.per_pair_ns) / len(self.per_pair_ns)


def time_algorithms(
    pairs: Sequence[Tuple[Tnum, Tnum]],
    algorithms: Optional[Dict[str, Callable[[Tnum, Tnum], Tnum]]] = None,
    trials: int = 10,
    include_naive: bool = False,
) -> Dict[str, TimingResult]:
    """Time each algorithm on each pair; keep the min across ``trials``.

    ``algorithms`` defaults to Fig. 5's three multipliers,
    :data:`~repro.eval.precision.MUL_ALGORITHMS`.  Matches the paper's
    methodology (min of 10 trials per input pair).
    ``include_naive`` adds the un-optimized bitwise_mul, which the paper
    quotes separately (≈12.7× slower than its optimized form).
    """
    algos = dict(algorithms or MUL_ALGORITHMS)
    if include_naive:
        algos["bitwise_mul_naive"] = bitwise_mul_naive

    results = {name: TimingResult(name) for name in algos}
    clock = time.perf_counter_ns
    for p, q in pairs:
        for name, fn in algos.items():
            best = None
            for _ in range(trials):
                t0 = clock()
                fn(p, q)
                elapsed = clock() - t0
                if best is None or elapsed < best:
                    best = elapsed
            results[name].per_pair_ns.append(float(best))
    return results


def speedup_summary(results: Dict[str, TimingResult]) -> Dict[str, float]:
    """Mean-time speedup of our_mul over each other algorithm.

    The paper reports 33% (vs kern_mul) and 32% (vs optimized
    bitwise_mul); values here are ``1 - mean(our)/mean(other)``.
    """
    ours = results["our_mul"].mean_ns
    return {
        name: 1.0 - ours / result.mean_ns
        for name, result in results.items()
        if name != "our_mul"
    }

