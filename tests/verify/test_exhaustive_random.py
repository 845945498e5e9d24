"""Tests for exhaustive and randomized verification pipelines."""


import pytest

from repro.core.tnum import Tnum
from repro.verify.exhaustive import (
    check_optimality,
    check_soundness,
    verify_all_operators,
)
from repro.verify.random_check import (
    random_check_all,
    random_check_operator,
    random_member,
    random_tnum,
)


class TestExhaustive:
    def test_full_verification_table_width3(self):
        reports = verify_all_operators(width=3)
        for name, report in reports.items():
            assert report.holds, f"{name}: {report}"

    def test_add_sub_optimal_width4(self):
        assert check_optimality("add", 4).holds
        assert check_optimality("sub", 4).holds

    def test_mul_not_optimal(self):
        report = check_optimality("mul", 3, stop_at_first=True)
        assert not report.holds
        assert report.counterexample is not None

    def test_bitwise_optimal_width3(self):
        for op in ("and", "or", "xor"):
            assert check_optimality(op, 3).holds

    def test_div_mod_sound_but_not_optimal(self):
        assert check_soundness("div", 3).holds
        assert check_soundness("mod", 3).holds
        assert not check_optimality("div", 3).holds

    def test_report_rendering(self):
        report = check_soundness("add", 3)
        text = str(report)
        assert "soundness" in text and "add@3bit" in text and "holds" in text

    def test_counts(self):
        report = check_soundness("add", 2)
        assert report.pairs_checked == 81  # 9 tnums squared

    def test_unary_and_shift(self):
        assert check_soundness("neg", 4).holds
        assert check_soundness("not", 4).holds
        for op in ("lsh", "rsh", "arsh"):
            assert check_soundness(op, 4).holds


class TestRandomGeneration:
    def test_random_tnum_always_well_formed(self, rng):
        for _ in range(500):
            t = random_tnum(rng)
            assert t.value & t.mask == 0
            assert not t.is_bottom()

    def test_random_tnum_covers_space(self, rng):
        # At width 2 all 9 tnums should appear in a modest sample.
        seen = {random_tnum(rng, 2) for _ in range(500)}
        assert len(seen) == 9

    def test_random_member_is_member(self, rng):
        for _ in range(200):
            t = random_tnum(rng, 16)
            assert t.contains(random_member(rng, t))

    def test_random_member_of_bottom_raises(self, rng):
        with pytest.raises(ValueError):
            random_member(rng, Tnum.bottom(8))


class TestRandomChecks:
    def test_all_operators_pass_at_64bit(self):
        reports = random_check_all(trials=300, seed=42)
        for name, report in reports.items():
            assert report.passed, f"{name}: {report}"

    def test_deterministic_given_seed(self):
        a = random_check_operator("mul", trials=50, seed=9)
        b = random_check_operator("mul", trials=50, seed=9)
        assert a.trials == b.trials and a.failures == b.failures

    def test_unknown_operator(self):
        with pytest.raises(KeyError):
            random_check_operator("nope")

    def test_detects_planted_unsoundness(self, monkeypatch):
        # Swap mul's abstract op for one that drops the mask: must fail.
        from repro.core import ops as ops_mod
        from repro.core.ops import OpSpec
        from repro.core.tnum import Tnum as T

        def bogus_mul(p, q):
            return T.const((p.value * q.value) & ((1 << p.width) - 1), p.width)

        monkeypatch.setitem(ops_mod.BINARY_OPS, "mul", OpSpec(
            "mul", 2, bogus_mul, ops_mod.BINARY_OPS["mul"].concrete
        ))
        report = random_check_operator("mul", trials=300, seed=0)
        assert not report.passed
        assert report.counterexample is not None
