"""The paper's algebraic observations about tnum operators.

§III-A reports three non-obvious properties uncovered by bounded
verification: tnum addition is **not associative**, addition and
subtraction are **not inverses**, and tnum multiplication is **not
commutative**.  The witness finders here rediscover all three by
enumeration.  The soundness and optimality predicates themselves are
:func:`repro.verify.exhaustive.check_soundness` and
:func:`~repro.verify.exhaustive.check_optimality`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iter_product
from typing import Optional, Tuple

from repro.core.lattice import enumerate_tnums
from repro.core.multiply import our_mul
from repro.core.arithmetic import tnum_add, tnum_sub
from repro.core.tnum import Tnum, mask_for_width

__all__ = [
    "find_nonassociative_add",
    "find_noninverse_add_sub",
    "find_noncommutative_mul",
    "Witness",
]


@dataclass
class Witness:
    """A concrete witness for an algebraic (non-)property."""

    description: str
    tnums: Tuple[Tnum, ...]
    lhs: Tnum
    rhs: Tnum

    def __str__(self) -> str:
        inputs = ", ".join(str(t) for t in self.tnums)
        return f"{self.description}: inputs ({inputs}) -> {self.lhs} vs {self.rhs}"


def find_nonassociative_add(width: int = 3) -> Optional[Witness]:
    """Find tnums A, B, C with (A+B)+C != A+(B+C) (observation 1)."""
    tnums = enumerate_tnums(width)
    for a, b, c in iter_product(tnums, repeat=3):
        left = tnum_add(tnum_add(a, b), c)
        right = tnum_add(a, tnum_add(b, c))
        if left != right:
            return Witness("tnum_add not associative", (a, b, c), left, right)
    return None


def find_noninverse_add_sub(width: int = 2) -> Optional[Witness]:
    """Find tnums A, B with (A+B)-B != A when A+B has uncertainty
    (observation 2: addition and subtraction are not inverses)."""
    tnums = enumerate_tnums(width)
    for a, b in iter_product(tnums, repeat=2):
        back = tnum_sub(tnum_add(a, b), b)
        if back != a:
            return Witness(
                "tnum_add/tnum_sub not inverses", (a, b), back, a
            )
    return None


def find_noncommutative_mul(
    width: int = 10, seed: int = 7, attempts: int = 200_000
) -> Optional[Witness]:
    """Find tnums A, B with A*B != B*A (observation 3).

    Small widths are exhaustively commutative for ``our_mul`` (we checked
    all pairs up to width 5), so this searches sparse-mask random tnums at
    a larger width, where witnesses are plentiful — e.g. at width 10,
    A=000111µ1µ1, B=1000010111 multiply to 0µµµµµµµµ1 one way and
    µµµµµµµµµ1 the other.
    """
    import random

    rng = random.Random(seed)
    limit = mask_for_width(width)
    for _ in range(attempts):
        pair = []
        for _ in range(2):
            mask = 0
            for _ in range(rng.randint(0, 3)):
                mask |= 1 << rng.randrange(width)
            value = rng.randint(0, limit) & ~mask
            pair.append(Tnum(value, mask, width))
        a, b = pair
        ab = our_mul(a, b)
        ba = our_mul(b, a)
        if ab != ba:
            return Witness("tnum multiplication not commutative", (a, b), ab, ba)
    return None
