"""Tests for the paper's multiplication: our_mul (§III-C)."""

import pytest
from hypothesis import given, settings

from repro.core.galois import best_transformer_binary, gamma
from repro.core.lattice import comparable, enumerate_tnums, leq
from repro.core.multiply import our_mul, our_mul_simplified, tnum_mul
from repro.core.tnum import Tnum, mask_for_width
from repro.baselines import kern_mul
from tests.conftest import tnums

W = 8
LIMIT = mask_for_width(W)


class TestPaperExamples:
    def test_figure3_multiplication(self):
        # Fig. 3: µ01 * µ10 over 5 bits = µµµ10.
        p = Tnum.from_trits("µ01", width=5)
        q = Tnum.from_trits("µ10", width=5)
        r = our_mul(p, q)
        assert r == Tnum.from_trits("µµµ10", width=5)
        # γ(R) from the figure.
        assert gamma(r) == {2, 6, 10, 14, 18, 22, 26, 30}

    def test_width9_incomparability_example(self):
        # §IV.A: at n=9, kern_mul and our_mul produce incomparable outputs
        # for P=000000011, Q=011µ011µµ.
        p = Tnum.from_trits("000000011", width=9)
        q = Tnum.from_trits("011µ011µµ", width=9)
        r_kern = kern_mul(p, q)
        r_our = our_mul(p, q)
        assert r_kern == Tnum.from_trits("µµµµ0µµµµ", width=9)
        assert r_our == Tnum.from_trits("0µµµµµµµµ", width=9)
        assert not comparable(r_kern, r_our)

    def test_imprecision_example_from_section3c(self):
        # §III-C: P=11, Q=µ1 — correlation between partial products is
        # lost, so the result is imprecise (but must still be sound).
        p = Tnum.const(0b11, 4)
        q = Tnum.from_trits("µ1", width=4)
        r = our_mul(p, q)
        for y in q.concretize():
            assert r.contains((0b11 * y) & 0xF)


class TestSoundness:
    @given(tnums(W), tnums(W))
    def test_sound_random(self, p, q):
        r = our_mul(p, q)
        for x in list(p.concretize())[:6]:
            for y in list(q.concretize())[:6]:
                assert r.contains((x * y) & LIMIT)

    def test_sound_exhaustive_width4(self):
        for p in enumerate_tnums(4):
            gp = list(p.concretize())
            for q in enumerate_tnums(4):
                r = our_mul(p, q)
                for x in gp:
                    for y in q.concretize():
                        assert r.contains((x * y) & 0xF), (p, q, x, y)

    def test_bottom_propagates(self):
        assert our_mul(Tnum.bottom(W), Tnum.const(3, W)).is_bottom()
        assert our_mul(Tnum.const(3, W), Tnum.bottom(W)).is_bottom()

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            our_mul(Tnum.const(0, 4), Tnum.const(0, 8))


class TestStrengthReduction:
    """Lemma 11: our_mul ≡ our_mul_simplified."""

    def test_equivalent_exhaustive_width5(self):
        ts = enumerate_tnums(5)
        for p in ts:
            for q in ts:
                assert our_mul(p, q) == our_mul_simplified(p, q)

    @settings(max_examples=300)
    @given(tnums(W), tnums(W))
    def test_equivalent_random_width8(self, p, q):
        assert our_mul(p, q) == our_mul_simplified(p, q)

    @given(tnums(W, allow_bottom=True), tnums(W, allow_bottom=True))
    def test_equivalent_including_bottom(self, p, q):
        assert our_mul(p, q) == our_mul_simplified(p, q)


class TestAlgebra:
    def test_constants_fold_exactly(self):
        assert our_mul(Tnum.const(7, W), Tnum.const(6, W)) == Tnum.const(42, W)

    def test_multiply_by_zero(self):
        assert our_mul(Tnum.unknown(W), Tnum.const(0, W)) == Tnum.const(0, W)

    def test_multiply_by_one_keeps_gamma(self):
        p = Tnum.from_trits("µ01µ", width=W)
        r = our_mul(p, Tnum.const(1, W))
        for x in p.concretize():
            assert r.contains(x)

    def test_not_commutative_as_paper_observes(self):
        # §III-A observation (3). Small widths happen to be commutative
        # for our_mul (all pairs up to width 5 agree), but width 10 has
        # witnesses; this one was found by seeded sparse-mask search.
        a = Tnum.from_trits("000111µ1µ1", width=10)
        b = Tnum.from_trits("1000010111", width=10)
        assert our_mul(a, b) != our_mul(b, a)

    def test_commutative_at_small_widths(self):
        # Companion fact: exhaustively commutative at width 3.
        ts = enumerate_tnums(3)
        assert all(our_mul(a, b) == our_mul(b, a) for a in ts for b in ts)

    def test_not_optimal(self):
        # §III-C states our_mul is sound but NOT optimal: find a witness.
        found = False
        for p in enumerate_tnums(3):
            for q in enumerate_tnums(3):
                best = best_transformer_binary(lambda x, y: (x * y) & 7, p, q)
                got = our_mul(p, q)
                assert leq(best, got)  # never *more* precise than optimal
                if got != best:
                    found = True
        assert found

    def test_power_of_two_multiplier_acts_like_shift(self):
        p = Tnum.from_trits("00µ1", width=W)
        r = our_mul(p, Tnum.const(4, W))
        for x in p.concretize():
            assert r.contains((x << 2) & LIMIT)

    def test_tnum_mul_alias(self):
        assert tnum_mul is our_mul


class TestAdditionCount:
    """our_mul performs at most n+1 tnum_adds vs kern_mul's up to 2n
    (§IV.A's explanation for the precision gap)."""

    @staticmethod
    def count_adds(monkeypatch, module):
        """Count calls to the raw add helpers ``module`` imports."""
        calls = [0]
        for name in ("add_raw", "add_mask_raw", "add_unknown_raw"):
            if hasattr(module, name):

                def counting(*args, real=getattr(module, name)):
                    calls[0] += 1
                    return real(*args)

                monkeypatch.setattr(module, name, counting)
        return calls

    def test_add_counts(self, monkeypatch):
        import repro.core.multiply as multiply_mod
        import repro.baselines.kernel_mul as kern_mod

        our = self.count_adds(monkeypatch, multiply_mod)
        kern = self.count_adds(monkeypatch, kern_mod)

        # Input driving both of kern_mul's hma passes: P all known 1s
        # (its value feeds the second hma), Q all unknown.
        p = Tnum.const((1 << W) - 1, W)
        q = Tnum.unknown(W)
        multiply_mod.our_mul(p, q)
        kern_mod.kern_mul(p, q)
        assert our[0] == W + 1
        assert kern[0] == 2 * W
