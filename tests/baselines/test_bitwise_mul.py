"""Tests for Regehr–Duongsaa bitwise multiplication (Listing 5)."""

import pytest
from hypothesis import given, settings

from repro.baselines.bitwise_mul import (
    bitwise_mul_naive,
    bitwise_mul_opt,
    multiply_bit_naive,
)
from repro.core.lattice import enumerate_tnums
from repro.core.ops import BINARY_OPS
from repro.core.tnum import Tnum, mask_for_width
from repro.verify.exhaustive import check_soundness
from tests.conftest import tnums

W = 8
LIMIT = mask_for_width(W)


class TestMultiplyBit:
    def test_certain_zero_gives_zero(self):
        p = Tnum.from_trits("µ0µ", width=4)
        assert multiply_bit_naive(p, Tnum.unknown(4), 1) == Tnum.const(0, 4)

    def test_certain_one_gives_q(self):
        p = Tnum.from_trits("µ1µ", width=4)
        q = Tnum.from_trits("10µ0", width=4)
        assert multiply_bit_naive(p, q, 1) == q

    def test_unknown_kills_certain_ones(self):
        # q = 1µ10 has certain 1s at bits 3 and 1 and µ at bit 2; killing
        # the certain 1s gives mask 1110 (bit 0 stays a certain 0).
        p = Tnum.from_trits("µ", width=4)
        q = Tnum.from_trits("1µ10", width=4)
        killed = multiply_bit_naive(p, q, 0)
        assert killed == Tnum(0, 0b1110, 4)
        assert killed == Tnum(0, (q.value | q.mask), 4)


class TestEquivalenceOfVariants:
    """The paper's machine-arithmetic rewrite must not change results."""

    def test_exhaustive_width3(self):
        for p in enumerate_tnums(3):
            for q in enumerate_tnums(3):
                assert bitwise_mul_naive(p, q) == bitwise_mul_opt(p, q)

    @settings(max_examples=200)
    @given(tnums(W), tnums(W))
    def test_random_width8(self, p, q):
        assert bitwise_mul_naive(p, q) == bitwise_mul_opt(p, q)


class TestSoundness:
    @given(tnums(W), tnums(W))
    def test_opt_sound_random(self, p, q):
        r = bitwise_mul_opt(p, q)
        for x in list(p.concretize())[:6]:
            for y in list(q.concretize())[:6]:
                assert r.contains((x * y) & LIMIT)

    def test_sound_exhaustive_width4(self):
        assert BINARY_OPS["bitwise_mul"].abstract is bitwise_mul_opt
        report = check_soundness("bitwise_mul", 4)
        assert report.holds, report

    def test_constants_fold(self):
        assert bitwise_mul_opt(Tnum.const(6, W), Tnum.const(7, W)) == Tnum.const(42, W)

    def test_bottom(self):
        assert bitwise_mul_opt(Tnum.bottom(W), Tnum.const(1, W)).is_bottom()
        assert bitwise_mul_naive(Tnum.bottom(W), Tnum.const(1, W)).is_bottom()

    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            bitwise_mul_opt(Tnum.const(0, 4), Tnum.const(0, 8))

    def test_known_noncommutative_witness(self):
        # Found during development at width 5: P=00011, Q=0011µ.
        p = Tnum.from_trits("00011", width=5)
        q = Tnum.from_trits("0011µ", width=5)
        assert bitwise_mul_opt(p, q) != bitwise_mul_opt(q, p)
