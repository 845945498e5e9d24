"""Tests for the algebraic-property witnesses (§III-A)."""

from repro.core.arithmetic import tnum_add, tnum_sub
from repro.core.multiply import our_mul
from repro.verify.properties import (
    find_nonassociative_add,
    find_noncommutative_mul,
    find_noninverse_add_sub,
)


class TestObservationWitnesses:
    """The three §III-A observations, rediscovered."""

    def test_add_not_associative(self):
        witness = find_nonassociative_add()
        assert witness is not None
        a, b, c = witness.tnums
        assert tnum_add(tnum_add(a, b), c) != tnum_add(a, tnum_add(b, c))

    def test_add_sub_not_inverses(self):
        witness = find_noninverse_add_sub()
        assert witness is not None
        a, b = witness.tnums
        assert tnum_sub(tnum_add(a, b), b) != a

    def test_mul_not_commutative(self):
        witness = find_noncommutative_mul()
        assert witness is not None
        a, b = witness.tnums
        assert our_mul(a, b) != our_mul(b, a)

    def test_witness_rendering(self):
        witness = find_nonassociative_add()
        text = str(witness)
        assert "not associative" in text
        assert "->" in text
