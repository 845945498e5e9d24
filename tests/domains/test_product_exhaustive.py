"""Exhaustive soundness of ``ScalarValue`` operations at width 4.

Every tnum is paired with every interval and reduced by
:meth:`ScalarValue.make` (81 × 136 pairs, 1,110 distinct values besides
⊥); each value is checked against every concrete member of its γ-set.
A refinement must keep every member that satisfies its predicate and
may only narrow the value; an arithmetic shift must contain the shift
of every member.

Covered: the four signed branch refinements against every bound, and
``arshift`` at every shift.
"""

import operator

import pytest

from repro.core.tnum import Tnum
from repro.domains.interval import Interval, to_signed, to_unsigned
from repro.domains.product import ScalarValue

W = 4
LIMIT = (1 << W) - 1

SIGNED_PREDICATES = {
    "slt": operator.lt,
    "sle": operator.le,
    "sgt": operator.gt,
    "sge": operator.ge,
}


def reduced_values():
    """Every distinct reduced tnum × interval value of width ``W`` but ⊥."""
    values = {
        ScalarValue.make(Tnum(value, mask, W), Interval(lo, hi, W))
        for mask in range(LIMIT + 1)
        for value in range(LIMIT + 1)
        if not value & mask
        for lo in range(LIMIT + 1)
        for hi in range(lo, LIMIT + 1)
    }
    return sorted(
        (v for v in values if not v.is_bottom()),
        key=lambda v: (v.tnum.value, v.tnum.mask, v.umin(), v.umax()),
    )


VALUES = reduced_values()


def members(value):
    return [x for x in range(LIMIT + 1) if value.contains(x)]


@pytest.mark.parametrize("name", sorted(SIGNED_PREDICATES))
def test_signed_refinement_sound(name):
    holds = SIGNED_PREDICATES[name]
    unsound = []
    for value in VALUES:
        kept = members(value)
        refine = getattr(value, f"refine_{name}")
        for bound in range(LIMIT + 1):
            refined = refine(bound)
            assert refined.leq(value), (value, bound, refined)
            signed_bound = to_signed(bound, W)
            unsound += [
                (value, bound, x, refined)
                for x in kept
                if holds(to_signed(x, W), signed_bound)
                and not refined.contains(x)
            ]
    assert not unsound, unsound[:5]


def test_signed_range_sound():
    for value in VALUES:
        lo, hi = value.signed_range()
        for x in members(value):
            assert lo <= to_signed(x, W) <= hi, (value, x)


def test_arshift_sound():
    unsound = []
    for value in VALUES:
        kept = members(value)
        for shift in range(W):
            shifted = value.arshift(shift)
            unsound += [
                (value, shift, x, shifted)
                for x in kept
                if not shifted.contains(
                    to_unsigned(to_signed(x, W) >> shift, W)
                )
            ]
    assert not unsound, unsound[:5]
