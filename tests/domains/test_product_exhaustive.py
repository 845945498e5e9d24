"""Exhaustive soundness of ``ScalarValue`` operations at width 4.

Every tnum is paired with every interval and reduced by
:meth:`ScalarValue.make` (81 × 136 pairs, 1,110 distinct values besides
⊥); each value is checked against every concrete member of its γ-set.
A refinement must keep every member that satisfies its predicate and
may only narrow the value; an arithmetic shift must contain the shift
of every member.

Covered: the ten signed, unsigned and equality branch refinements
against every bound, and ``arshift`` at every shift.  The constant fast
paths of the binary transfers, ``neg`` and the shifts are checked on
every pair of constants (a constant and a shift for the shifts): each
returns ``ScalarValue.const`` of the concrete result, and the generic
path it short-cuts contains it.
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
UNSIGNED_PREDICATES = {
    "ult": operator.lt,
    "ule": operator.le,
    "ugt": operator.gt,
    "uge": operator.ge,
    "eq": operator.eq,
    "ne": operator.ne,
}

#: Concrete semantics of each binary transfer, before truncation to W
#: bits (BPF defines x / 0 == 0 and x % 0 == x).
BINARY = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "and_": operator.and_,
    "or_": operator.or_,
    "xor": operator.xor,
    "div": lambda a, b: a // b if b else 0,
    "mod": lambda a, b: a % b if b else a,
}
SHIFTS = {
    "lshift": operator.lshift,
    "rshift": operator.rshift,
    "arshift": lambda a, s: to_signed(a, W) >> s,
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


def unsound_refinements(name, holds, view):
    """Members a refinement drops although they satisfy its predicate,
    compared in ``view`` (signed or unsigned)."""
    unsound = []
    for value in VALUES:
        kept = members(value)
        refine = getattr(value, f"refine_{name}")
        for bound in range(LIMIT + 1):
            refined = refine(bound)
            assert refined.leq(value), (value, bound, refined)
            unsound += [
                (value, bound, x, refined)
                for x in kept
                if holds(view(x), view(bound)) and not refined.contains(x)
            ]
    return unsound


@pytest.mark.parametrize("name", sorted(SIGNED_PREDICATES))
def test_signed_refinement_sound(name):
    unsound = unsound_refinements(
        name, SIGNED_PREDICATES[name], lambda x: to_signed(x, W)
    )
    assert not unsound, unsound[:5]


@pytest.mark.parametrize("name", sorted(UNSIGNED_PREDICATES))
def test_unsigned_refinement_sound(name):
    unsound = unsound_refinements(
        name, UNSIGNED_PREDICATES[name], lambda x: x
    )
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


CONSTS = [ScalarValue.const(a, W) for a in range(LIMIT + 1)]


@pytest.mark.parametrize("name", sorted(BINARY))
def test_binary_const_fast_path(name, monkeypatch):
    concrete = BINARY[name]
    fast = {
        (a, b): getattr(CONSTS[a], name)(CONSTS[b])
        for a in range(LIMIT + 1)
        for b in range(LIMIT + 1)
    }
    # Without the fast path every pair takes the generic transfer.
    monkeypatch.setattr(ScalarValue, "_const_operands", lambda self, other: None)
    for (a, b), got in fast.items():
        assert got == ScalarValue.const(concrete(a, b), W), (a, b, got)
        generic = getattr(CONSTS[a], name)(CONSTS[b])
        assert got.leq(generic), (a, b, got, generic)


@pytest.mark.parametrize("name", ["neg", *sorted(SHIFTS)])
def test_unary_const_fast_path(name, monkeypatch):
    if name == "neg":
        cases = {(a,): -a for a in range(LIMIT + 1)}
    else:
        cases = {
            (a, s): SHIFTS[name](a, s)
            for a in range(LIMIT + 1)
            for s in range(W)
        }
    fast = {
        args: getattr(CONSTS[args[0]], name)(*args[1:]) for args in cases
    }
    monkeypatch.setattr(ScalarValue, "reduced_const", lambda self: None)
    for args, got in fast.items():
        assert got == ScalarValue.const(cases[args], W), (args, got)
        generic = getattr(CONSTS[args[0]], name)(*args[1:])
        assert got.leq(generic), (args, got, generic)
