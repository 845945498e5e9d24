"""Exhaustive soundness of ``ScalarValue`` operations at widths 4 and 3.

Every tnum is paired with every interval and reduced by
:meth:`ScalarValue.make` (81 × 136 pairs at width 4, 1,110 distinct
values besides ⊥; 120 at width 3); each value is checked against every
concrete member of its γ-set.  A refinement must keep every member that
satisfies its predicate and may only narrow the value; a transfer must
contain the concrete result of every member (pair of members).

Covered: ``make`` on every width-4 pair (it keeps every common member
and lies below both inputs), the ten signed, unsigned and equality
branch refinements against every bound, ``arshift`` at every shift, and
the generic paths of ``neg`` and the three shifts at width 4 (every
value, every shift) and of the eight binary transfers, ``join`` and
``meet`` at width 3 (every pair of values, ``meet`` exactly; width 4
would be about 85× the pairs).  The constant fast paths of the binary
transfers, ``neg`` and the shifts are checked on every pair of constants
(a constant and a shift for the shifts): each returns
``ScalarValue.const`` of the concrete result, and the generic path it
short-cuts contains it.
"""

import functools
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

#: Concrete semantics of each binary transfer, before truncation to the
#: operands' width (BPF defines x / 0 == 0 and x % 0 == x).
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


def pairs(width):
    """Every well-formed tnum × interval pair of ``width`` bits."""
    limit = (1 << width) - 1
    return [
        (Tnum(value, mask, width), Interval(lo, hi, width))
        for mask in range(limit + 1)
        for value in range(limit + 1)
        if not value & mask
        for lo in range(limit + 1)
        for hi in range(lo, limit + 1)
    ]


def reduced_values(width):
    """Every distinct reduced tnum × interval value of ``width`` bits but ⊥."""
    values = {ScalarValue.make(t, iv) for t, iv in pairs(width)}
    return sorted(
        (v for v in values if not v.is_bottom()),
        key=lambda v: (v.tnum.value, v.tnum.mask, v.umin(), v.umax()),
    )


VALUES = reduced_values(W)
SMALL = reduced_values(3)


def members(value):
    return [x for x in range(1 << value.width) if value.contains(x)]


@functools.lru_cache(maxsize=None)
def gamma(value):
    return frozenset(members(value))


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


def test_reduced_value_counts():
    assert (len(pairs(W)), len(VALUES), len(SMALL)) == (11_016, 1_110, 120)


def test_make_keeps_common_members_and_narrows():
    for t, iv in pairs(W):
        made = ScalarValue.make(t, iv)
        assert made.leq(ScalarValue(t, iv)), (t, iv, made)
        lost = [
            x for x in range(LIMIT + 1)
            if t.contains(x) and iv.contains(x) and not made.contains(x)
        ]
        assert not lost, (t, iv, made, lost)


@pytest.mark.parametrize("name", sorted(BINARY))
def test_binary_generic_sound(name, monkeypatch):
    # Constants too take the generic transfer.
    monkeypatch.setattr(ScalarValue, "_const_operands", lambda self, other: None)
    concrete = BINARY[name]
    limit = (1 << SMALL[0].width) - 1
    unsound = []
    for a in SMALL:
        for b in SMALL:
            got = getattr(a, name)(b)
            results = {
                concrete(x, y) & limit for x in gamma(a) for y in gamma(b)
            }
            if not results <= gamma(got):
                unsound.append((a, b, got, sorted(results - gamma(got))))
    assert not unsound, unsound[:5]


@pytest.mark.parametrize("name", ["neg", *sorted(SHIFTS)])
def test_unary_generic_sound(name, monkeypatch):
    # Constants too take the generic transfer.
    monkeypatch.setattr(ScalarValue, "reduced_const", lambda self: None)
    if name == "neg":
        cases = [((), lambda x: -x)]
    else:
        cases = [
            ((s,), lambda x, s=s: SHIFTS[name](x, s)) for s in range(W)
        ]
    unsound = []
    for value in VALUES:
        for args, concrete in cases:
            got = getattr(value, name)(*args)
            results = {concrete(x) & LIMIT for x in gamma(value)}
            if not results <= gamma(got):
                unsound.append((value, args, got, sorted(results - gamma(got))))
    assert not unsound, unsound[:5]


def test_join_and_meet_sound():
    for a in SMALL:
        for b in SMALL:
            assert gamma(a) | gamma(b) <= gamma(a.join(b)), (a, b)
            assert gamma(a.meet(b)) == gamma(a) & gamma(b), (a, b)
