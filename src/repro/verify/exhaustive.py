"""Exhaustive bounded verification of tnum operators.

The brute-force complement to the SAT pipeline: enumerate *all* 3^n × 3^n
well-formed tnum pairs at width n and check the soundness predicate (and
optionally optimality) against the concrete semantics.  At n ≤ 6 this is
fast and serves as an independent oracle for both the operator
implementations and the SAT encodings.

The paper ran Z3 to 64 bits for the linear operators; our substitution
(documented in README.md's "Reproduction notes") is exhaustive checks
at small widths plus randomized 64-bit checks in
:mod:`repro.verify.random_check` — together they exercise the same
verification conditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.galois import abstract
from repro.core.lattice import enumerate_tnums
from repro.core.ops import BINARY_OPS, SHIFT_OPS, UNARY_OPS
from repro.core.tnum import Tnum, mask_for_width

__all__ = [
    "ExhaustiveReport",
    "check_soundness",
    "check_optimality",
    "check_unary_soundness",
    "check_shift_soundness",
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
    counterexample: Optional[Tuple[Tnum, ...]] = None
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
    """Exhaustively check Eqn. 8 for a binary operator at ``width``."""
    spec = BINARY_OPS[operator]
    tnums = enumerate_tnums(width)
    limit = mask_for_width(width)
    checked = 0
    failing = 0
    counterexample = None
    for p in tnums:
        gamma_p = list(p.concretize())
        for q in tnums:
            checked += 1
            r = spec.abstract(p, q)
            bad = False
            for x in gamma_p:
                for y in q.concretize():
                    if not r.contains(spec.concrete(x, y, width) & limit):
                        bad = True
                        break
                if bad:
                    break
            if bad:
                failing += 1
                if counterexample is None:
                    counterexample = (p, q)
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
    """Exhaustively check maximal precision (α∘f∘γ equality)."""
    spec = BINARY_OPS[operator]
    tnums = enumerate_tnums(width)
    limit = mask_for_width(width)
    checked = 0
    failing = 0
    counterexample = None
    for p in tnums:
        gamma_p = list(p.concretize())
        for q in tnums:
            checked += 1
            outputs = [
                spec.concrete(x, y, width) & limit
                for x in gamma_p
                for y in q.concretize()
            ]
            best = abstract(outputs, width)
            if spec.abstract(p, q) != best:
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


def check_unary_soundness(operator: str, width: int) -> ExhaustiveReport:
    """Exhaustive soundness for neg/not."""
    spec = UNARY_OPS[operator]
    tnums = enumerate_tnums(width)
    limit = mask_for_width(width)
    checked = 0
    for p in tnums:
        checked += 1
        r = spec.abstract(p)
        for x in p.concretize():
            if not r.contains(spec.concrete(x, width) & limit):
                return ExhaustiveReport(
                    operator, width, "soundness", False, checked, (p,), 1
                )
    return ExhaustiveReport(operator, width, "soundness", True, checked)


def check_shift_soundness(operator: str, width: int) -> ExhaustiveReport:
    """Exhaustive soundness for constant-amount shifts, all amounts."""
    spec = SHIFT_OPS[operator]
    tnums = enumerate_tnums(width)
    limit = mask_for_width(width)
    checked = 0
    for p in tnums:
        for amount in range(width):
            checked += 1
            r = spec.abstract(p, amount)
            for x in p.concretize():
                if not r.contains(spec.concrete(x, amount, width) & limit):
                    return ExhaustiveReport(
                        operator, width, "soundness", False, checked, (p,), 1
                    )
    return ExhaustiveReport(operator, width, "soundness", True, checked)


def verify_all_operators(width: int = 4) -> Dict[str, ExhaustiveReport]:
    """Run the full §III-A verification table at one width.

    Returns reports keyed by operator name.  Expected outcome (matching
    the paper): every operator sound; add and sub also optimal.
    """
    reports: Dict[str, ExhaustiveReport] = {}
    for name in ("add", "sub", "mul", "and", "or", "xor", "div", "mod"):
        reports[name] = check_soundness(name, width)
    for name in ("neg", "not"):
        reports[name] = check_unary_soundness(name, width)
    for name in ("lsh", "rsh", "arsh"):
        reports[name] = check_shift_soundness(name, width)
    reports["add-optimal"] = check_optimality("add", width)
    reports["sub-optimal"] = check_optimality("sub", width)
    return reports
