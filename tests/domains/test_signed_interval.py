"""Tests for the signed view of the reduced product.

The product stores no signed bounds.  ``ScalarValue.signed_range``
derives them (the interval's signed view met with the tnum's), the
signed refinements ``refine_slt``/``sle``/``sgt``/``sge`` clamp that
range, and ``Interval.from_signed`` maps a signed range back onto the
unsigned interval.  Exhaustive width-4 soundness lives in
``test_product_exhaustive.py``.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.tnum import Tnum
from repro.domains.interval import Interval, signed_bounds, to_signed
from repro.domains.product import ScalarValue
from tests.conftest import tnums

W = 8
svals = st.integers(-128, 127)


def pattern(value: int) -> int:
    """The width-W bit pattern of a signed value (the bound encoding)."""
    return value & 0xFF


def values():
    """Reduced width-W scalars: an unsigned range met with a tnum that
    shares at least one member with it (so never ⊥)."""
    def build(mask, a, b, pick):
        lo, hi = min(a, b), max(a, b)
        member = lo + pick % (hi - lo + 1)
        return ScalarValue.make(
            Tnum(member & ~mask, mask, W), Interval(lo, hi, W)
        )

    byte = st.integers(0, 255)
    return st.builds(build, byte, byte, byte, byte)


class TestConstruction:
    def test_const_wraps_unsigned_input(self):
        assert ScalarValue.const(0xFF, W).signed_range() == (-1, -1)

    def test_top_bottom(self):
        assert ScalarValue.top(W).signed_range() == (-128, 127)
        lo, hi = ScalarValue.bottom(W).signed_range()
        assert lo > hi

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Interval.from_signed(-200, 0, W)
        with pytest.raises(ValueError):
            Interval.from_signed(0, 128, W)


class TestFromTnum:
    @given(tnums(W))
    def test_sound(self, t):
        lo, hi = ScalarValue.from_tnum(t).signed_range()
        for c in t.concretize():
            assert lo <= to_signed(c, W) <= hi, (t, c)

    def test_known_negative_sign(self):
        t = Tnum.from_trits("1000000µ", width=W)
        assert ScalarValue.from_tnum(t).signed_range() == (-128, -127)

    def test_unknown_sign_covers_both_halves(self):
        # The interval [1, 129] straddles the sign boundary; the tnum
        # still bounds the signed view to [-127, 1].
        t = Tnum.from_trits("µ0000001", width=W)
        assert ScalarValue.from_tnum(t).signed_range() == (-127, 1)


class TestLattice:
    def test_meet_disjoint_bottom(self):
        x = ScalarValue.top(W).refine_sle(pattern(-5))
        assert x.refine_sge(5).is_bottom()


class TestTransformers:
    def test_arshift_preserves_order(self):
        neg = ScalarValue.from_range(0xF0, 0xFF, W).arshift(2)
        assert (neg.umin(), neg.umax()) == (0xFC, 0xFF)  # [-4, -1]
        pos = ScalarValue.from_range(16, 100, W).arshift(2)
        assert (pos.umin(), pos.umax()) == (4, 25)


class TestRefinement:
    """``refine_s*`` take the bound as a bit pattern, like ``refine_u*``."""

    def test_slt_sge_window(self):
        x = ScalarValue.top(W).refine_slt(pattern(-2)).refine_sge(pattern(-8))
        assert x.signed_range() == (-8, -3)
        assert (x.umin(), x.umax()) == (0xF8, 0xFD)
        y = ScalarValue.top(W).refine_sge(2).refine_slt(5)
        assert (y.umin(), y.umax()) == (2, 4)

    def test_window_across_zero_is_top(self):
        # [-4, 4] is two unsigned ranges, whose hull is ⊤.
        x = ScalarValue.top(W).refine_sge(pattern(-4)).refine_slt(5)
        assert x == ScalarValue.top(W)

    def test_sgt_at_max_is_bottom(self):
        assert ScalarValue.top(W).refine_sgt(127).is_bottom()

    def test_slt_at_min_is_bottom(self):
        assert ScalarValue.top(W).refine_slt(pattern(-128)).is_bottom()

    def test_sle(self):
        x = ScalarValue.top(W).refine_sle(pattern(-1))
        assert x.signed_range()[1] == -1

    def test_bound_is_a_64_bit_pattern(self):
        minus_one = (1 << 64) - 1
        x = ScalarValue.from_range(0, 100)
        assert x.refine_sgt(minus_one) == x
        assert x.refine_slt(minus_one).is_bottom()

    @given(values(), svals)
    def test_refinements_sound(self, value, bound):
        # Every member satisfying the predicate must survive refinement.
        for x in range(256):
            if not value.contains(x):
                continue
            sx = to_signed(x, W)
            if sx < bound:
                assert value.refine_slt(pattern(bound)).contains(x)
            if sx <= bound:
                assert value.refine_sle(pattern(bound)).contains(x)
            if sx > bound:
                assert value.refine_sgt(pattern(bound)).contains(x)
            if sx >= bound:
                assert value.refine_sge(pattern(bound)).contains(x)


class TestConversions:
    def test_nonnegative_roundtrip(self):
        iv = Interval.from_signed(3, 100, W)
        assert (iv.umin, iv.umax) == (3, 100)
        assert signed_bounds(iv.umin, iv.umax, W) == (3, 100)

    def test_all_negative_maps_to_high_range(self):
        iv = Interval.from_signed(-4, -1, W)
        assert (iv.umin, iv.umax) == (0xFC, 0xFF)

    def test_straddling_gives_top(self):
        assert Interval.from_signed(-1, 1, W).is_top()

    def test_empty_gives_bottom(self):
        assert Interval.from_signed(5, 4, W).is_bottom()

    def test_from_unsigned(self):
        sv = ScalarValue.from_range(0xF0, 0xFF, W)
        assert sv.signed_range() == (-16, -1)

    def test_inverts_signed_bounds_within_one_sign_half(self):
        for lo in range(-8, 8):
            for hi in range(lo, 8):
                iv = Interval.from_signed(lo, hi, 4)
                if lo < 0 <= hi:
                    assert iv.is_top()
                else:
                    assert signed_bounds(iv.umin, iv.umax, 4) == (lo, hi)


class TestDeduceBounds:
    """The kernel's signed/unsigned/tnum deduction, as the product does
    it: a signed refinement meets the interval, ``make`` reduces."""

    def test_tnum_tightens_signed(self):
        # tnum says sign bit is 1: signed view must become negative.
        x = ScalarValue.from_tnum(Tnum.from_trits("1µµµµµµµ", width=W))
        assert x.signed_range()[1] <= -1
        assert x.refine_sge(0).is_bottom()
        assert x.refine_slt(0) == x

    def test_signed_tightens_unsigned(self):
        # An unknown value refined < 0 knows its sign bit ...
        neg = ScalarValue.top(W).refine_slt(0)
        assert (neg.umin(), neg.umax()) == (0x80, 0xFF)
        assert neg.tnum.trit(7) == "1"
        # ... and signed [-4, -1] forces unsigned [0xFC, 0xFF], which in
        # turn makes the tnum's high bits known 1.
        x = neg.refine_sge(pattern(-4))
        assert (x.umin(), x.umax()) == (0xFC, 0xFF)
        assert x.tnum.trit(7) == "1" and x.tnum.trit(2) == "1"

    def test_contradiction_collapses_to_bottom(self):
        five = ScalarValue.const(5, W)
        assert five.refine_slt(0).is_bottom()
        assert five.refine_sle(pattern(-4)).is_bottom()

    @given(tnums(W))
    def test_deduction_is_sound(self, t):
        x = ScalarValue.from_tnum(t)
        lo, hi = x.signed_range()
        for c in t.concretize():
            assert x.contains(c) and lo <= to_signed(c, W) <= hi
