"""SAT encoding of the paper's soundness verification conditions.

This is the reproduction of §III-A / Supplementary D: the soundness of a
tnum abstract operator ``opT`` against its concrete ``opC`` is the
validity of Eqn. 11::

    wellformed(P) ∧ wellformed(Q) ∧ member(x, P) ∧ member(y, Q)
      ∧ z = opC(x, y) ∧ R = opT(P, Q)  ⇒  member(z, R)

We check validity by asserting the *negation* (all hypotheses plus
``¬member(z, R)``) and asking the CDCL solver for a model: UNSAT means the
operator is sound at the encoded width; SAT yields a concrete
counterexample (P, Q, x, y).

Where the paper used Z3's bit-vector theory, we bit-blast with
:mod:`repro.verify.sat.bitvector`.  Each abstract operator is re-expressed
as a circuit over the ``(value, mask)`` words — e.g. ``tnum_add`` becomes
exactly the five machine additions/xors of Listing 1, and ``our_mul`` /
``kern_mul`` unroll their loops ``width`` times (the SSA unrolling
described in Supplementary D).  The circuits are keyed by the names of
the operator table, :mod:`repro.core.ops`, whose kinds say which take a
constant shift amount.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.core.ops import get_op

from .bitvector import BitVec, BitVecBuilder
from .cnf import CNFBuilder
from .solver import Solver

__all__ = [
    "SymTnum",
    "SoundnessReport",
    "check_operator_soundness",
    "SUPPORTED_OPERATORS",
]


@dataclass
class SymTnum:
    """A symbolic tnum: two bit-vectors (value, mask)."""

    v: BitVec
    m: BitVec


@dataclass
class SoundnessReport:
    """Result of one bounded-verification run."""

    operator: str
    width: int
    sound: bool
    counterexample: Optional[Dict[str, int]] = None
    num_vars: int = 0
    num_clauses: int = 0

    def __str__(self) -> str:
        verdict = "SOUND" if self.sound else "UNSOUND"
        extra = f" cex={self.counterexample}" if self.counterexample else ""
        return (
            f"{self.operator}@{self.width}bit: {verdict} "
            f"({self.num_vars} vars, {self.num_clauses} clauses){extra}"
        )


# -- abstract operators as circuits -------------------------------------------


def _sym_tnum_add(bb: BitVecBuilder, p: SymTnum, q: SymTnum) -> SymTnum:
    """Listing 1 as a circuit."""
    sm = bb.add(p.m, q.m)
    sv = bb.add(p.v, q.v)
    sigma = bb.add(sv, sm)
    chi = bb.xor(sigma, sv)
    eta = bb.or_(bb.or_(chi, p.m), q.m)
    return SymTnum(bb.and_(sv, bb.not_(eta)), eta)


def _sym_tnum_sub(bb: BitVecBuilder, p: SymTnum, q: SymTnum) -> SymTnum:
    """Listing 6 as a circuit."""
    dv = bb.sub(p.v, q.v)
    alpha = bb.add(dv, p.m)
    beta = bb.sub(dv, q.m)
    chi = bb.xor(alpha, beta)
    eta = bb.or_(bb.or_(chi, p.m), q.m)
    return SymTnum(bb.and_(dv, bb.not_(eta)), eta)


def _sym_tnum_and(bb: BitVecBuilder, p: SymTnum, q: SymTnum) -> SymTnum:
    alpha = bb.or_(p.v, p.m)
    beta = bb.or_(q.v, q.m)
    v = bb.and_(p.v, q.v)
    return SymTnum(v, bb.and_(bb.and_(alpha, beta), bb.not_(v)))


def _sym_tnum_or(bb: BitVecBuilder, p: SymTnum, q: SymTnum) -> SymTnum:
    v = bb.or_(p.v, q.v)
    mu = bb.or_(p.m, q.m)
    return SymTnum(v, bb.and_(mu, bb.not_(v)))


def _sym_tnum_xor(bb: BitVecBuilder, p: SymTnum, q: SymTnum) -> SymTnum:
    v = bb.xor(p.v, q.v)
    mu = bb.or_(p.m, q.m)
    return SymTnum(bb.and_(v, bb.not_(mu)), mu)


def _sym_tnum_lshift(bb: BitVecBuilder, p: SymTnum, amount: int) -> SymTnum:
    return SymTnum(bb.shl_const(p.v, amount), bb.shl_const(p.m, amount))


def _sym_tnum_rshift(bb: BitVecBuilder, p: SymTnum, amount: int) -> SymTnum:
    return SymTnum(bb.shr_const(p.v, amount), bb.shr_const(p.m, amount))


def _sym_tnum_arshift(bb: BitVecBuilder, p: SymTnum, amount: int) -> SymTnum:
    v = bb.ashr_const(p.v, amount)
    m = bb.ashr_const(p.m, amount)
    return SymTnum(bb.and_(v, bb.not_(m)), m)


def _sym_our_mul(bb: BitVecBuilder, p: SymTnum, q: SymTnum) -> SymTnum:
    """Listing 4 unrolled ``width`` times (SSA form, as in Supp. D)."""
    acc_v = SymTnum(bb.mul(p.v, q.v), bb.const(0))
    acc_m = SymTnum(bb.const(0), bb.const(0))
    pv, pm = list(p.v), list(p.m)
    qv, qm = list(q.v), list(q.m)
    zero = bb.const(0)
    for _ in range(bb.width):
        certain_one = bb.cnf.gate_and(pv[0], -pm[0])
        uncertain = pm[0]
        # Candidate accumulations.
        add_qm = _sym_tnum_add(bb, acc_m, SymTnum(zero, qm))
        add_all = _sym_tnum_add(
            bb, acc_m, SymTnum(zero, bb.or_(qv, qm))
        )
        new_m = bb.ite(
            certain_one,
            add_qm.m,
            bb.ite(uncertain, add_all.m, acc_m.m),
        )
        new_v = bb.ite(
            certain_one,
            add_qm.v,
            bb.ite(uncertain, add_all.v, acc_m.v),
        )
        acc_m = SymTnum(new_v, new_m)
        pv = bb.shr_const(pv, 1)
        pm = bb.shr_const(pm, 1)
        qv = bb.shl_const(qv, 1)
        qm = bb.shl_const(qm, 1)
    return _sym_tnum_add(bb, acc_v, acc_m)


def _sym_kern_mul(bb: BitVecBuilder, p: SymTnum, q: SymTnum) -> SymTnum:
    """Listing 2 (kern_mul + hma) unrolled: 2 × width hma iterations."""

    def sym_hma(acc: SymTnum, x: BitVec, y: BitVec) -> SymTnum:
        for _ in range(bb.width):
            added = _sym_tnum_add(bb, acc, SymTnum(bb.const(0), x))
            take = y[0]
            acc = SymTnum(
                bb.ite(take, added.v, acc.v), bb.ite(take, added.m, acc.m)
            )
            y = bb.shr_const(y, 1)
            x = bb.shl_const(x, 1)
        return acc

    pi = SymTnum(bb.mul(p.v, q.v), bb.const(0))
    acc = sym_hma(pi, p.m, bb.or_(q.m, q.v))
    return sym_hma(acc, q.m, p.v)


def _sym_bitwise_mul(bb: BitVecBuilder, p: SymTnum, q: SymTnum) -> SymTnum:
    """Listing 5 (optimized form) unrolled ``width`` times."""
    total = SymTnum(bb.const(0), bb.const(0))
    killed = SymTnum(bb.const(0), bb.or_(q.v, q.m))
    for i in range(bb.width):
        certain_one = bb.cnf.gate_and(p.v[i], -p.m[i])
        uncertain = p.m[i]
        q_shift = SymTnum(bb.shl_const(q.v, i), bb.shl_const(q.m, i))
        k_shift = SymTnum(bb.shl_const(killed.v, i), bb.shl_const(killed.m, i))
        add_q = _sym_tnum_add(bb, total, q_shift)
        add_k = _sym_tnum_add(bb, total, k_shift)
        total = SymTnum(
            bb.ite(certain_one, add_q.v, bb.ite(uncertain, add_k.v, total.v)),
            bb.ite(certain_one, add_q.m, bb.ite(uncertain, add_k.m, total.m)),
        )
    return total


# -- the table operators that have a circuit -----------------------------------

#: Table name (:mod:`repro.core.ops`) → (abstract circuit, concrete circuit).
#: A shift's circuits take a constant amount in place of ``Q`` and ``y``.
#: There is no div, mod, neg or not circuit.
_CIRCUITS: Dict[str, Tuple[Callable, Callable]] = {
    "add": (_sym_tnum_add, BitVecBuilder.add),
    "sub": (_sym_tnum_sub, BitVecBuilder.sub),
    "mul": (_sym_our_mul, BitVecBuilder.mul),
    "kern_mul": (_sym_kern_mul, BitVecBuilder.mul),
    "bitwise_mul": (_sym_bitwise_mul, BitVecBuilder.mul),
    "and": (_sym_tnum_and, BitVecBuilder.and_),
    "or": (_sym_tnum_or, BitVecBuilder.or_),
    "xor": (_sym_tnum_xor, BitVecBuilder.xor),
    "lsh": (_sym_tnum_lshift, BitVecBuilder.shl_const),
    "rsh": (_sym_tnum_rshift, BitVecBuilder.shr_const),
    "arsh": (_sym_tnum_arshift, BitVecBuilder.ashr_const),
}

SUPPORTED_OPERATORS = tuple(sorted(_CIRCUITS))


def check_operator_soundness(
    operator: str,
    width: int,
    max_conflicts: Optional[int] = None,
    shift_amount: Optional[int] = None,
) -> SoundnessReport:
    """Bounded verification of one operator at one width (Eqn. 11).

    For shift operators, ``shift_amount`` fixes the count (default: checks
    every count 0..width-1 in one conjoined query).
    """
    kind, _ = get_op(operator)
    if operator not in _CIRCUITS:
        raise KeyError(f"unsupported operator {operator!r}")
    abstract_op, concrete_op = _CIRCUITS[operator]
    cnf = CNFBuilder()
    bb = BitVecBuilder(cnf, width)

    p = SymTnum(bb.var(), bb.var())
    x = bb.var()

    def wellformed(t: SymTnum) -> int:
        return bb.is_zero(bb.and_(t.v, t.m))

    def member(val: BitVec, t: SymTnum) -> int:
        return bb.eq(bb.and_(val, bb.not_(t.m)), t.v)

    cnf.assert_lit(wellformed(p))
    cnf.assert_lit(member(x, p))
    words = {"P.v": p.v, "P.m": p.m}

    if kind == "shift":
        amounts = (
            [shift_amount] if shift_amount is not None else list(range(width))
        )
        # One query covering every shift amount: assert that *some* amount
        # violates membership; UNSAT means all amounts are sound.
        violations = []
        for amount in amounts:
            r = abstract_op(bb, p, amount)
            z = concrete_op(bb, x, amount)
            violations.append(-member(z, r))
        cnf.assert_lit(cnf.gate_or_many(violations))
        words["x"] = x
    else:
        q = SymTnum(bb.var(), bb.var())
        y = bb.var()
        cnf.assert_lit(wellformed(q))
        cnf.assert_lit(member(y, q))
        r = abstract_op(bb, p, q)
        z = concrete_op(bb, x, y)
        cnf.assert_lit(-member(z, r))
        words.update({"Q.v": q.v, "Q.m": q.m, "x": x, "y": y})

    result = Solver(cnf.num_vars, cnf.clauses).solve(max_conflicts=max_conflicts)
    report = SoundnessReport(
        operator,
        width,
        sound=not result.sat,
        num_vars=cnf.num_vars,
        num_clauses=len(cnf.clauses),
    )
    if result.sat:
        report.counterexample = {
            name: bb.value_of(word, result) for name, word in words.items()
        }
    return report
