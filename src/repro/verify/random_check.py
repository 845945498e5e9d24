"""Randomized 64-bit soundness testing.

The paper's Supplementary D describes a spot-check harness: draw random
input tnums, execute the operator, and confirm via the membership
predicate that concrete results stay inside the abstract result.  This is
the full-width complement to the exhaustive small-width checker — our SAT
solver cannot reach 64 bits for the non-linear operators, so (as recorded
in README.md's "Reproduction notes") random checking at width 64 covers
the production configuration.  It checks every operator in the table,
:mod:`repro.core.ops`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.core.ops import BINARY_OPS, SHIFT_OPS, UNARY_OPS, get_op
from repro.core.tnum import mask_for_width, random_member, random_tnum

__all__ = [
    "RandomCheckReport",
    "random_check_operator",
    "random_check_all",
]


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
    """Randomized soundness check for one table operator at full width.

    Each trial draws the tnum operands (``p``, then ``q`` for a binary
    operator), then a shift's constant amount, then ``members_per_tnum``
    times one member of each tnum operand.  The counterexample is the
    first failing ``(*operands, *members, z, r)``.
    """
    kind, spec = get_op(operator)
    rng = random.Random(seed)
    limit = mask_for_width(width)
    report = RandomCheckReport(operator, width, trials, seed=seed)
    tnum_operands = 2 if kind == "binary" else 1
    for _ in range(trials):
        operands: List[Any] = [
            random_tnum(rng, width) for _ in range(tnum_operands)
        ]
        if kind == "shift":
            operands.append(rng.randrange(width))
        r = spec.abstract(*operands)
        for _ in range(members_per_tnum):
            members = [random_member(rng, t) for t in operands[:tnum_operands]]
            z = spec.concrete(*members, *operands[tnum_operands:], width) & limit
            if not r.contains(z):
                report.failures += 1
                if report.counterexample is None:
                    report.counterexample = (*operands, *members, z, r)
    return report


def random_check_all(
    trials: int = 5_000, width: int = 64, seed: int = 0
) -> Dict[str, RandomCheckReport]:
    """Randomized 64-bit soundness sweep across every table operator."""
    return {
        name: random_check_operator(name, trials=trials, width=width, seed=seed)
        for name in (*BINARY_OPS, *UNARY_OPS, *SHIFT_OPS)
    }
