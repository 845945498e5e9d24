"""Ablation: tnum alone vs interval alone vs the reduced product.

README.md's "Reproduction notes" list this ablation: it measures what
the verifier's *combination* of domains buys over each domain
individually.  This harness evaluates all three abstractions over random
expression DAGs (the shapes BPF scalar code produces: masks, adds,
shifts, subtractions, branches' ranges) and scores each by the
cardinality of its final abstract value — smaller is more precise —
always checking soundness against concrete evaluation.

The expected result, and what the benchmark asserts: the reduced product
is never worse than either component and strictly better on a large
fraction of expressions — bitwise-heavy expressions favour the tnum,
range-heavy ones favour the interval, and mixtures need both.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.ops import get_op
from repro.core.tnum import Tnum, mask_for_width
from repro.domains.interval import Interval
from repro.domains.product import ScalarValue

__all__ = ["Expression", "random_expression", "evaluate_domains", "ablation_study"]

U64 = mask_for_width(64)

# Operator-table names (``mul`` is our_mul); shifts take a constant
# amount below 8.  The concrete and tnum semantics come from the table.
# Interval bitwise ops fall back to top (that domain simply cannot
# express them) — which is the point of the study.
_OPS = ("add", "sub", "mul", "and", "or", "xor", "lsh", "rsh")


@dataclass
class Expression:
    """A little expression DAG: leaves are ctx bytes or constants."""

    kind: str                      # "leaf_input" | "leaf_const" | op name
    value: int = 0                 # const value or input index
    left: Optional["Expression"] = None
    right: Optional["Expression"] = None

    def concrete(self, inputs: List[int]) -> int:
        if self.kind == "leaf_input":
            return inputs[self.value]
        if self.kind == "leaf_const":
            return self.value
        x = self.left.concrete(inputs)
        y = self.right.concrete(inputs)
        return get_op(self.kind)[1].concrete(x, y, 64)

    def size(self) -> int:
        if self.kind.startswith("leaf"):
            return 1
        return 1 + self.left.size() + self.right.size()


def random_expression(
    rng: random.Random, depth: int = 4, num_inputs: int = 2
) -> Expression:
    """A random expression over byte-valued inputs and small constants."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return Expression("leaf_input", rng.randrange(num_inputs))
        return Expression("leaf_const", rng.choice(
            [0, 1, 3, 7, 8, 15, 16, 0xFF, 0xF0, 100]
        ))
    op = rng.choice(_OPS)
    left = random_expression(rng, depth - 1, num_inputs)
    if op in ("lsh", "rsh"):
        right = Expression("leaf_const", rng.randrange(8))
    else:
        right = random_expression(rng, depth - 1, num_inputs)
    return Expression(op, left=left, right=right)


def _eval_tnum(expr: Expression, inputs: List[Tnum]) -> Tnum:
    if expr.kind == "leaf_input":
        return inputs[expr.value]
    if expr.kind == "leaf_const":
        return Tnum.const(expr.value, 64)
    x = _eval_tnum(expr.left, inputs)
    kind, spec = get_op(expr.kind)
    if kind == "shift":
        return spec.abstract(x, expr.right.value & 7)
    return spec.abstract(x, _eval_tnum(expr.right, inputs))


def _eval_interval(expr: Expression, inputs: List[Interval]) -> Interval:
    if expr.kind == "leaf_input":
        return inputs[expr.value]
    if expr.kind == "leaf_const":
        return Interval.const(expr.value, 64)
    x = _eval_interval(expr.left, inputs)
    y = _eval_interval(expr.right, inputs)
    if expr.kind == "add":
        return x.add(y)
    if expr.kind == "sub":
        return x.sub(y)
    if expr.kind == "mul":
        return x.mul(y)
    if expr.kind in ("and", "or", "xor"):
        return Interval.top(64)  # pure ranges cannot track bit ops
    amount = expr.right.value & 7
    if expr.kind == "lsh":
        hi = x.umax << amount
        if x.is_bottom() or hi > U64:
            return Interval.top(64)
        return Interval(x.umin << amount, hi, 64)
    if x.is_bottom():
        return x
    return Interval(x.umin >> amount, x.umax >> amount, 64)


def _eval_product(expr: Expression, inputs: List[ScalarValue]) -> ScalarValue:
    if expr.kind == "leaf_input":
        return inputs[expr.value]
    if expr.kind == "leaf_const":
        return ScalarValue.const(expr.value)
    x = _eval_product(expr.left, inputs)
    y = _eval_product(expr.right, inputs)
    table = {
        "add": ScalarValue.add, "sub": ScalarValue.sub,
        "mul": ScalarValue.mul, "and": ScalarValue.and_,
        "or": ScalarValue.or_, "xor": ScalarValue.xor,
    }
    if expr.kind in table:
        return table[expr.kind](x, y)
    amount = expr.right.value & 7
    return (x.lshift if expr.kind == "lsh" else x.rshift)(amount)


def _product_cardinality(sv: ScalarValue) -> int:
    """Upper bound on |γ| of the product: min of the component counts."""
    return min(sv.tnum.cardinality(), sv.interval.cardinality())


@dataclass
class AblationResult:
    """Aggregate outcome over many random expressions."""

    expressions: int = 0
    product_vs_tnum_wins: int = 0        # product strictly smaller
    product_vs_interval_wins: int = 0
    tnum_vs_interval_wins: int = 0
    interval_vs_tnum_wins: int = 0
    unsound: int = 0
    mean_log2: Dict[str, float] = field(default_factory=dict)


def evaluate_domains(
    expr: Expression, rng: random.Random
) -> Tuple[int, int, int, bool]:
    """(tnum card, interval card, product card, sound) for one expression.

    Inputs are abstract "ctx bytes" ([0, 255]); soundness is checked by
    concretely evaluating on random input samples.
    """
    byte_t = Tnum(0, 0xFF, 64)
    byte_iv = Interval(0, 0xFF, 64)
    byte_sv = ScalarValue.make(byte_t, byte_iv)

    t = _eval_tnum(expr, [byte_t, byte_t])
    iv = _eval_interval(expr, [byte_iv, byte_iv])
    sv = _eval_product(expr, [byte_sv, byte_sv])

    sound = True
    for _ in range(16):
        inputs = [rng.randrange(256), rng.randrange(256)]
        concrete = expr.concrete(inputs)
        if not t.contains(concrete):
            sound = False
        if not iv.contains(concrete):
            sound = False
        if not sv.contains(concrete):
            sound = False
    return (
        t.cardinality(),
        iv.cardinality(),
        _product_cardinality(sv),
        sound,
    )


def ablation_study(
    count: int = 300, seed: int = 0, depth: int = 4
) -> AblationResult:
    """Run the full study over ``count`` random expressions."""
    import math

    rng = random.Random(seed)
    result = AblationResult()
    logs = {"tnum": 0.0, "interval": 0.0, "product": 0.0}
    for _ in range(count):
        expr = random_expression(rng, depth=depth)
        t_card, iv_card, sv_card, sound = evaluate_domains(expr, rng)
        result.expressions += 1
        if not sound:
            result.unsound += 1
            continue
        if sv_card < t_card:
            result.product_vs_tnum_wins += 1
        if sv_card < iv_card:
            result.product_vs_interval_wins += 1
        if t_card < iv_card:
            result.tnum_vs_interval_wins += 1
        elif iv_card < t_card:
            result.interval_vs_tnum_wins += 1
        logs["tnum"] += math.log2(max(t_card, 1))
        logs["interval"] += math.log2(max(iv_card, 1))
        logs["product"] += math.log2(max(sv_card, 1))
    result.mean_log2 = {
        name: total / max(result.expressions - result.unsound, 1)
        for name, total in logs.items()
    }
    return result
