"""Tests for the SAT soundness encoding (Eqn. 11) — §III-A reproduced."""

import random

import pytest

from repro.core.lattice import enumerate_tnums
from repro.core.ops import BINARY_OPS, SHIFT_OPS, UNARY_OPS, get_op
from repro.core.tnum import Tnum, random_tnum
from repro.verify.sat import SUPPORTED_OPERATORS, check_operator_soundness
from repro.verify.sat.bitvector import BitVecBuilder
from repro.verify.sat.cnf import CNFBuilder
from repro.verify.sat.encode import (
    _CIRCUITS,
    SymTnum,
    _sym_our_mul,
    _sym_tnum_add,
)
from repro.verify.sat.solver import Solver


class TestSoundOperators:
    """Every operator the paper verified must come back SOUND."""

    @pytest.mark.parametrize("op", ["add", "sub", "and", "or", "xor"])
    def test_linear_ops_sound_at_width8(self, op):
        report = check_operator_soundness(op, 8)
        assert report.sound, report

    @pytest.mark.parametrize("op", ["lsh", "rsh", "arsh"])
    def test_shifts_sound_all_amounts_width6(self, op):
        report = check_operator_soundness(op, 6)
        assert report.sound, report

    def test_shift_with_fixed_amount(self):
        report = check_operator_soundness("lsh", 8, shift_amount=3)
        assert report.sound

    @pytest.mark.parametrize("op", ["mul", "kern_mul", "bitwise_mul"])
    def test_multiplications_sound_at_width4(self, op):
        report = check_operator_soundness(op, 4)
        assert report.sound, report

    def test_report_string(self):
        report = check_operator_soundness("add", 4)
        assert "SOUND" in str(report)
        assert report.num_vars > 0 and report.num_clauses > 0

    def test_unknown_operator(self):
        with pytest.raises(KeyError):
            check_operator_soundness("bogus", 4)

    def test_supported_list(self):
        assert "add" in SUPPORTED_OPERATORS
        assert "mul" in SUPPORTED_OPERATORS
        assert "arsh" in SUPPORTED_OPERATORS


class TestPlantedBugs:
    """The pipeline must *find* unsoundness, not just bless everything."""

    def test_broken_add_detected(self):
        # An "add" that drops the operand masks from eta is unsound.
        cnf = CNFBuilder()
        bb = BitVecBuilder(cnf, 6)
        p = SymTnum(bb.var(), bb.var())
        q = SymTnum(bb.var(), bb.var())
        x, y = bb.var(), bb.var()

        def wellformed(t):
            return bb.is_zero(bb.and_(t.v, t.m))

        def member(val, t):
            return bb.eq(bb.and_(val, bb.not_(t.m)), t.v)

        cnf.assert_lit(wellformed(p))
        cnf.assert_lit(wellformed(q))
        cnf.assert_lit(member(x, p))
        cnf.assert_lit(member(y, q))

        # Buggy abstract add: mask = chi only (forgets P.m | Q.m).
        sv = bb.add(p.v, q.v)
        sm = bb.add(p.m, q.m)
        sigma = bb.add(sv, sm)
        chi = bb.xor(sigma, sv)
        eta = chi  # BUG: should be chi | P.m | Q.m
        r = SymTnum(bb.and_(sv, bb.not_(eta)), eta)
        z = bb.add(x, y)
        cnf.assert_lit(-member(z, r))

        result = Solver(cnf.num_vars, cnf.clauses).solve()
        assert result.sat, "planted bug must yield a counterexample"

        # And the counterexample must be a genuine soundness violation.
        pv = bb.value_of(p.v, result)
        pm = bb.value_of(p.m, result)
        qv = bb.value_of(q.v, result)
        qm = bb.value_of(q.m, result)
        cx = bb.value_of(x, result)
        cy = bb.value_of(y, result)
        P = Tnum(pv, pm, 6)
        Q = Tnum(qv, qm, 6)
        assert P.contains(cx) and Q.contains(cy)
        rv = bb.value_of(r.v, result)
        rm = bb.value_of(r.m, result)
        z_val = (cx + cy) & 0x3F
        assert (z_val & ~rm) & 0x3F != rv  # not a member: genuinely unsound

    def test_circuits_agree_with_python_implementation(self):
        # Cross-validate the symbolic tnum_add against the Python one on
        # fixed inputs pushed through the solver.
        from repro.core.arithmetic import tnum_add

        p = Tnum.from_trits("10µ0", width=5)
        q = Tnum.from_trits("10µ1", width=5)
        expected = tnum_add(p, q)

        cnf = CNFBuilder()
        bb = BitVecBuilder(cnf, 5)
        sp = SymTnum(bb.const(p.value), bb.const(p.mask))
        sq = SymTnum(bb.const(q.value), bb.const(q.mask))
        sr = _sym_tnum_add(bb, sp, sq)
        model = Solver(cnf.num_vars, cnf.clauses).solve()
        assert model.sat
        assert bb.value_of(sr.v, model) == expected.value
        assert bb.value_of(sr.m, model) == expected.mask

    def test_our_mul_circuit_agrees_with_python(self):
        from repro.core.multiply import our_mul

        p = Tnum.from_trits("µ01", width=5)
        q = Tnum.from_trits("µ10", width=5)
        expected = our_mul(p, q)

        cnf = CNFBuilder()
        bb = BitVecBuilder(cnf, 5)
        sp = SymTnum(bb.const(p.value), bb.const(p.mask))
        sq = SymTnum(bb.const(q.value), bb.const(q.mask))
        sr = _sym_our_mul(bb, sp, sq)
        model = Solver(cnf.num_vars, cnf.clauses).solve()
        assert model.sat
        assert bb.value_of(sr.v, model) == expected.value
        assert bb.value_of(sr.m, model) == expected.mask


class TestCircuitsComputeTableOperators:
    """Each circuit SAT checks is the table operator the repo runs.

    On constant operands every gate folds, so the circuit's output is a
    constant that must equal the table's ``abstract`` on the same tnums;
    a drifted circuit would let SAT prove an algorithm nothing runs.
    """

    def test_supported_operators_are_table_operators(self):
        assert set(SUPPORTED_OPERATORS) <= {*BINARY_OPS, *UNARY_OPS, *SHIFT_OPS}

    @staticmethod
    def mismatches(name, width, cases):
        kind, spec = get_op(name)
        circuit, _ = _CIRCUITS[name]
        bad = []
        for p, second in cases:
            bb = BitVecBuilder(CNFBuilder(), width)

            def sym(t):
                return SymTnum(bb.const(t.value), bb.const(t.mask))

            r = circuit(bb, sym(p), second if kind == "shift" else sym(second))
            got = (bb.value_of(r.v, None), bb.value_of(r.m, None))
            want = spec.abstract(p, second)
            if got != (want.value, want.mask):
                bad.append((p, second, got, want))
        return bad

    @pytest.mark.parametrize("name", SUPPORTED_OPERATORS)
    def test_every_operand_at_width3(self, name):
        tnums = enumerate_tnums(3)
        seconds = range(3) if name in SHIFT_OPS else tnums
        cases = [(p, second) for p in tnums for second in seconds]
        assert self.mismatches(name, 3, cases) == []

    @pytest.mark.parametrize("name", SUPPORTED_OPERATORS)
    def test_sampled_operands_at_width6(self, name):
        rng = random.Random(6)
        cases = []
        for _ in range(300):
            p = random_tnum(rng, 6)
            if name in SHIFT_OPS:
                cases.extend((p, amount) for amount in range(6))
            else:
                cases.append((p, random_tnum(rng, 6)))
        assert self.mismatches(name, 6, cases) == []
