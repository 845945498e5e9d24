"""Randomized 64-bit soundness testing.

The paper's Supplementary D describes a spot-check harness: draw random
input tnums, execute the operator, and confirm via the membership
predicate that concrete results stay inside the abstract result.  This is
the full-width complement to the exhaustive small-width checker — our SAT
solver cannot reach 64 bits for the non-linear operators, so (as recorded
in README.md's "Reproduction notes") random checking at width 64 covers
the production configuration.

Random tnum generation guarantees well-formedness by masking the value
with the complement of the mask (every ``(v & ~m, m)`` pair is
well-formed, and all well-formed tnums are reachable this way).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.ops import BINARY_OPS, SHIFT_OPS, UNARY_OPS
from repro.core.tnum import Tnum, mask_for_width

__all__ = [
    "random_tnum",
    "random_member",
    "RandomCheckReport",
    "random_check_operator",
    "random_check_all",
]


def random_tnum(rng: random.Random, width: int = 64) -> Tnum:
    """A uniformly-drawn well-formed tnum of the given width."""
    limit = mask_for_width(width)
    mask = rng.randint(0, limit)
    value = rng.randint(0, limit) & ~mask
    return Tnum(value & limit, mask, width)


def random_member(rng: random.Random, t: Tnum) -> int:
    """A uniformly-drawn concrete member of γ(t)."""
    if t.is_bottom():
        raise ValueError("bottom tnum has no members")
    fill = rng.randint(0, mask_for_width(t.width)) & t.mask
    return t.value | fill


@dataclass
class RandomCheckReport:
    """Outcome of a randomized soundness run for one operator.

    ``seed`` is recorded so any failure message doubles as a
    reproduction recipe (re-run with the same seed and trial count).
    """

    operator: str
    width: int
    trials: int
    failures: int = 0
    counterexample: Optional[Tuple] = None
    seed: int = 0

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def __str__(self) -> str:
        verdict = "passed" if self.passed else f"FAILED ({self.failures})"
        return (f"{self.operator}@{self.width}bit random x{self.trials} "
                f"(seed {self.seed}): {verdict}")


def random_check_operator(
    operator: str,
    trials: int = 10_000,
    width: int = 64,
    seed: int = 0,
    members_per_tnum: int = 4,
) -> RandomCheckReport:
    """Randomized soundness check for one operator at full width."""
    rng = random.Random(seed)
    limit = mask_for_width(width)
    report = RandomCheckReport(operator, width, trials, seed=seed)

    if operator in BINARY_OPS:
        spec = BINARY_OPS[operator]
        for _ in range(trials):
            p = random_tnum(rng, width)
            q = random_tnum(rng, width)
            r = spec.abstract(p, q)
            for _ in range(members_per_tnum):
                x = random_member(rng, p)
                y = random_member(rng, q)
                z = spec.concrete(x, y, width) & limit
                if not r.contains(z):
                    report.failures += 1
                    if report.counterexample is None:
                        report.counterexample = (p, q, x, y, z, r)
        return report

    if operator in UNARY_OPS:
        spec = UNARY_OPS[operator]
        for _ in range(trials):
            p = random_tnum(rng, width)
            r = spec.abstract(p)
            for _ in range(members_per_tnum):
                x = random_member(rng, p)
                z = spec.concrete(x, width) & limit
                if not r.contains(z):
                    report.failures += 1
                    if report.counterexample is None:
                        report.counterexample = (p, x, z, r)
        return report

    if operator in SHIFT_OPS:
        spec = SHIFT_OPS[operator]
        for _ in range(trials):
            p = random_tnum(rng, width)
            amount = rng.randrange(width)
            r = spec.abstract(p, amount)
            for _ in range(members_per_tnum):
                x = random_member(rng, p)
                z = spec.concrete(x, amount, width) & limit
                if not r.contains(z):
                    report.failures += 1
                    if report.counterexample is None:
                        report.counterexample = (p, amount, x, z, r)
        return report

    raise KeyError(f"unknown operator {operator!r}")


def random_check_all(
    trials: int = 5_000, width: int = 64, seed: int = 0
) -> Dict[str, RandomCheckReport]:
    """Randomized 64-bit soundness sweep across every operator."""
    names = list(BINARY_OPS) + list(UNARY_OPS) + list(SHIFT_OPS)
    return {
        name: random_check_operator(name, trials=trials, width=width, seed=seed)
        for name in names
    }
