"""Exhaustive bounded verification of tnum operators.

The brute-force complement to the SAT pipeline: enumerate *all* operands
of a table operator at width n (the 3^n × 3^n well-formed tnum pairs of
a binary operator, each tnum of a unary one, each tnum with each
constant amount of a shift) and check the soundness predicate (and, for
binary operators, optionally optimality) against the concrete semantics.
At n ≤ 6 this is fast and serves as an independent oracle for both the
operator implementations and the SAT encodings.

The paper ran Z3 to 64 bits for the linear operators; our substitution
(documented in README.md's "Reproduction notes") is exhaustive checks
at small widths plus randomized 64-bit checks in
:mod:`repro.verify.random_check` — together they exercise the same
verification conditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from repro.core.lattice import enumerate_tnums
from repro.core.ops import BINARY_OPS, SHIFT_OPS, UNARY_OPS, get_op
from repro.core.tnum import Tnum, mask_for_width

__all__ = [
    "ExhaustiveReport",
    "check_soundness",
    "check_optimality",
    "verify_all_operators",
]


@dataclass
class ExhaustiveReport:
    """Outcome of exhaustively checking one operator at one width."""

    operator: str
    width: int
    property_checked: str  # "soundness" or "optimality"
    holds: bool
    pairs_checked: int
    #: The first failing operands: tnums, and a shift's constant amount.
    counterexample: Optional[Tuple] = None
    failing_pairs: int = 0

    def __str__(self) -> str:
        verdict = "holds" if self.holds else f"FAILS ({self.failing_pairs} pairs)"
        cex = (
            f" e.g. {tuple(str(t) for t in self.counterexample)}"
            if self.counterexample
            else ""
        )
        return (
            f"{self.property_checked} of {self.operator}@{self.width}bit: "
            f"{verdict} over {self.pairs_checked} pairs{cex}"
        )


def check_soundness(
    operator: str, width: int, stop_at_first: bool = True
) -> ExhaustiveReport:
    """Exhaustively check Eqn. 8 for any table operator at ``width``.

    A binary operator is checked on every tnum pair, a unary one on every
    tnum, and a shift on every tnum with every constant amount.  Each
    tnum's members are listed once.
    """
    kind, spec = get_op(operator)
    abstract_op: Callable[..., Tnum] = spec.abstract
    concrete_op: Callable[..., int] = spec.concrete
    limit = mask_for_width(width)
    tnums = [(p, tuple(p.concretize())) for p in enumerate_tnums(width)]
    # The second operands, each with its members.
    seconds: Sequence[Tuple[Any, Tuple[Any, ...]]] = tnums
    if kind == "shift":
        # A constant amount is its own one member.
        seconds = [(amount, (amount,)) for amount in range(width)]
    elif kind == "unary":
        # Checked as a binary operator that ignores its second operand,
        # of which there is one placeholder.
        seconds = [(None, (None,))]

        def unary_abstract(p: Tnum, _: None) -> Tnum:
            return spec.abstract(p)

        def unary_concrete(x: int, _: None, width: int) -> int:
            return spec.concrete(x, width)

        abstract_op, concrete_op = unary_abstract, unary_concrete

    checked = 0
    failing = 0
    counterexample = None
    for p, xs in tnums:
        for q, ys in seconds:
            checked += 1
            r = abstract_op(p, q)
            # z ∈ γ(r) iff z agrees with r.value on r's known bits; a
            # bottom r (value == mask) holds no z.
            value, known = r.value, ~r.mask & limit
            if all(concrete_op(x, y, width) & known == value
                   for x in xs for y in ys):
                continue
            failing += 1
            if counterexample is None:
                counterexample = (p,) if kind == "unary" else (p, q)
            if stop_at_first:
                return ExhaustiveReport(
                    operator, width, "soundness", False, checked,
                    counterexample, failing,
                )
    return ExhaustiveReport(
        operator, width, "soundness", failing == 0, checked, counterexample, failing
    )


def check_optimality(
    operator: str, width: int, stop_at_first: bool = True
) -> ExhaustiveReport:
    """Exhaustively check maximal precision (α∘f∘γ equality) of a binary
    table operator at ``width``.

    Each tnum's members are listed once, and α of a pair's concrete
    outputs is folded inline: its value is the AND of the outputs and
    its mask the bits where the AND and the OR differ.
    """
    spec = BINARY_OPS[operator]
    abstract_op = spec.abstract
    concrete_op = spec.concrete
    limit = mask_for_width(width)
    tnums = [(p, tuple(p.concretize())) for p in enumerate_tnums(width)]
    checked = 0
    failing = 0
    counterexample = None
    for p, xs in tnums:
        for q, ys in tnums:
            checked += 1
            all_and, all_or = limit, 0
            for x in xs:
                for y in ys:
                    z = concrete_op(x, y, width) & limit
                    all_and &= z
                    all_or |= z
            r = abstract_op(p, q)
            best = (all_and, all_and ^ all_or, width)
            if (r.value, r.mask, r.width) == best:
                continue
            failing += 1
            if counterexample is None:
                counterexample = (p, q)
            if stop_at_first:
                return ExhaustiveReport(
                    operator, width, "optimality", False, checked,
                    counterexample, failing,
                )
    return ExhaustiveReport(
        operator, width, "optimality", failing == 0, checked, counterexample, failing
    )


def verify_all_operators(width: int = 4) -> Dict[str, ExhaustiveReport]:
    """Run the full §III-A verification table at one width.

    Returns reports keyed by operator name, one per table operator.
    Expected outcome (matching the paper): every operator sound; add and
    sub also optimal.
    """
    reports = {
        name: check_soundness(name, width)
        for name in (*BINARY_OPS, *UNARY_OPS, *SHIFT_OPS)
    }
    reports["add-optimal"] = check_optimality("add", width)
    reports["sub-optimal"] = check_optimality("sub", width)
    return reports
