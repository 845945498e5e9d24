"""Reduced product of the tnum and interval domains.

The BPF verifier's scalar register state is (essentially) a reduced
product: a tnum plus unsigned/signed ranges that are repeatedly *synced*
against each other (kernel ``reg_bounds_sync``, which updates the bounds
from the tnum, deduces each range from the other and feeds the unsigned
range back into the tnum).  Each domain sharpens the other:

* the tnum bounds the range: any concrete value lies in
  ``[t.value, t.value | t.mask]``;
* the range bounds the tnum: the shared high-order prefix of ``umin`` and
  ``umax`` is known, so ``tnum_range(umin, umax)`` can be intersected in.

This mutual refinement is what lets the verifier prove facts like
``x & 0xf <= 15`` *and* ``x - x == 0`` that neither domain proves alone.

Unlike the kernel, the product stores only the tnum and the unsigned
bounds; the signed view is derived where it is needed
(:meth:`ScalarValue.signed_range`).  The unsigned bounds for
``and``/``or``/``xor`` are exact and BPF ``div``/``mod`` are unsigned,
so of the transfers only the signed branch refinements (``refine_slt``
and the rest) and the arithmetic right shift, which is monotone on the
signed view, need it.  Both clamp the signed range and map it back
with :meth:`Interval.from_signed
<repro.domains.interval.Interval.from_signed>`.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.core import (
    our_mul,
    tnum_add,
    tnum_and,
    tnum_arshift,
    tnum_div,
    tnum_lshift,
    tnum_mod,
    tnum_neg,
    tnum_or,
    tnum_rshift,
    tnum_sub,
    tnum_xor,
)
from repro.core.lattice import join as tnum_join
from repro.core.lattice import leq as tnum_leq
from repro.core.lattice import meet as tnum_meet
from repro.core.tnum import Tnum

from .interval import Interval, signed_bounds, to_signed

__all__ = ["ScalarValue"]

#: Interned ⊤ / ⊥ per width — every widening and every infeasible branch
#: produces one of these; sharing them skips the construction entirely.
_TOP: Dict[int, "ScalarValue"] = {}
_BOTTOM: Dict[int, "ScalarValue"] = {}
#: Interned constants, keyed by ``(value, width)``.  Immediates, stack
#: offsets and folded results dominate the walk, and about half of them
#: are large (negative offsets, wide immediates), so every value is
#: interned; the table is emptied when full, which bounds what a
#: long-running process keeps.
_CONSTS: Dict[Tuple[int, int], "ScalarValue"] = {}
_CONSTS_MAX = 256


class ScalarValue:
    """A scalar abstract value: tnum × unsigned interval, kept in sync.

    Construct via :meth:`make` (which reduces) or the ``const`` / ``top`` /
    ``bottom`` helpers.  All transformer methods return reduced products.

    Immutable ``__slots__`` class: the verifier builds one of these per
    scalar transfer, so construction cost is throughput (see the
    decode-once pipeline notes in :mod:`repro.bpf.compiled`).
    """

    __slots__ = ("tnum", "interval")

    tnum: Tnum
    interval: Interval

    def __init__(self, tnum: Tnum, interval: Interval) -> None:
        object.__setattr__(self, "tnum", tnum)
        object.__setattr__(self, "interval", interval)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ScalarValue instances are immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScalarValue):
            return NotImplemented
        return self.tnum == other.tnum and self.interval == other.interval

    def __hash__(self) -> int:
        return hash((self.tnum, self.interval))

    def __repr__(self) -> str:
        return f"ScalarValue(tnum={self.tnum!r}, interval={self.interval!r})"

    # -- constructors ------------------------------------------------------

    @classmethod
    def make(cls, tnum: Tnum, interval: Interval) -> "ScalarValue":
        """Build and mutually reduce the two components."""
        return _reduce_pair(tnum, interval)

    @classmethod
    def const(cls, value: int, width: int = 64) -> "ScalarValue":
        key = (value & ((1 << width) - 1), width)
        cached = _CONSTS.get(key)
        if cached is None:
            if len(_CONSTS) >= _CONSTS_MAX:
                _CONSTS.clear()
            v = key[0]
            cached = _CONSTS[key] = cls(
                Tnum(v, 0, width), Interval.const(v, width)
            )
        return cached

    @classmethod
    def top(cls, width: int = 64) -> "ScalarValue":
        cached = _TOP.get(width)
        if cached is None:
            cached = _TOP[width] = cls(
                Tnum.unknown(width), Interval.top(width)
            )
        return cached

    @classmethod
    def bottom(cls, width: int = 64) -> "ScalarValue":
        cached = _BOTTOM.get(width)
        if cached is None:
            cached = _BOTTOM[width] = cls(
                Tnum.bottom(width), Interval.bottom(width)
            )
        return cached

    @classmethod
    def from_tnum(cls, t: Tnum) -> "ScalarValue":
        return cls.make(t, Interval.from_tnum(t))

    @classmethod
    def from_range(cls, lo: int, hi: int, width: int = 64) -> "ScalarValue":
        iv = Interval(lo, hi, width)
        return cls.make(iv.to_tnum(), iv)

    # -- properties ---------------------------------------------------------

    @property
    def width(self) -> int:
        return self.tnum.width

    def is_bottom(self) -> bool:
        t = self.tnum
        iv = self.interval
        return (t.value & t.mask) != 0 or iv.umin > iv.umax

    def is_const(self) -> bool:
        return self.tnum.is_const() or self.interval.is_const()

    def const_value(self) -> int:
        if self.tnum.is_const():
            return self.tnum.value
        if self.interval.is_const():
            return self.interval.umin
        raise ValueError("not a constant")

    def contains(self, value: int) -> bool:
        return self.tnum.contains(value) and self.interval.contains(value)

    def umin(self) -> int:
        return self.interval.umin

    def umax(self) -> int:
        return self.interval.umax

    def gamma_bits(self) -> int:
        """log2-ish abstract width in bits: the campaign's and the
        service's one γ-width measure.

        The γ-set of the product is bounded both by ``2^k`` for ``k``
        unknown tnum bits and by the interval's span, so the tighter of
        the two log2 bounds is used.  0 means a singleton (constant).
        """
        if self.is_bottom():
            return 0
        unknown = bin(self.tnum.mask).count("1")
        span = (self.interval.umax - self.interval.umin).bit_length()
        return min(unknown, span)

    # -- lattice --------------------------------------------------------------

    def leq(self, other: "ScalarValue") -> bool:
        return tnum_leq(self.tnum, other.tnum) and self.interval.leq(other.interval)

    def join(self, other: "ScalarValue") -> "ScalarValue":
        return ScalarValue.make(
            tnum_join(self.tnum, other.tnum), self.interval.join(other.interval)
        )

    def meet(self, other: "ScalarValue") -> "ScalarValue":
        return ScalarValue.make(
            tnum_meet(self.tnum, other.tnum), self.interval.meet(other.interval)
        )

    # -- transformers -----------------------------------------------------------

    def _binary(self, other: "ScalarValue", t_op, iv_op) -> "ScalarValue":
        if self.is_bottom() or other.is_bottom():
            return ScalarValue.bottom(self.width)
        return ScalarValue.make(
            t_op(self.tnum, other.tnum), iv_op(self.interval, other.interval)
        )

    def _const_operands(self, other: "ScalarValue"):
        """``(a, b)`` when both sides are reduced constants, else None.

        Every binary transfer here is exact on singletons (checked by
        the cross-property suite), so const × const short-circuits to
        concrete arithmetic — the single most common operand shape in
        generated programs (immediates, lddw results, loop counters).
        """
        t1, t2 = self.tnum, other.tnum
        if t1.mask or t2.mask:
            return None
        a, b = t1.value, t2.value
        iv1, iv2 = self.interval, other.interval
        if iv1.umin == a and iv1.umax == a and iv2.umin == b and iv2.umax == b:
            return a, b
        return None

    def add(self, other: "ScalarValue") -> "ScalarValue":
        ab = self._const_operands(other)
        if ab is not None:
            return ScalarValue.const(ab[0] + ab[1], self.width)
        return self._binary(other, tnum_add, Interval.add)

    def sub(self, other: "ScalarValue") -> "ScalarValue":
        ab = self._const_operands(other)
        if ab is not None:
            return ScalarValue.const(ab[0] - ab[1], self.width)
        return self._binary(other, tnum_sub, Interval.sub)

    def mul(self, other: "ScalarValue") -> "ScalarValue":
        ab = self._const_operands(other)
        if ab is not None:
            return ScalarValue.const(ab[0] * ab[1], self.width)
        return self._binary(other, our_mul, Interval.mul)

    # Bitwise and division ops run a *native* interval transfer alongside
    # the tnum one; :meth:`make`'s reduction then meets the two results,
    # so whichever domain is sharper wins per bound.  (The kernel gets the
    # same effect from ``scalar_min_max_*`` + ``reg_bounds_sync``.)  The
    # interval transfers are exact for and/or/xor and wraparound-aware for
    # add/sub, which is where the tnum-derived fallback used to discard
    # all operand range knowledge.

    def and_(self, other: "ScalarValue") -> "ScalarValue":
        ab = self._const_operands(other)
        if ab is not None:
            return ScalarValue.const(ab[0] & ab[1], self.width)
        return self._binary(other, tnum_and, Interval.and_)

    def or_(self, other: "ScalarValue") -> "ScalarValue":
        ab = self._const_operands(other)
        if ab is not None:
            return ScalarValue.const(ab[0] | ab[1], self.width)
        return self._binary(other, tnum_or, Interval.or_)

    def xor(self, other: "ScalarValue") -> "ScalarValue":
        ab = self._const_operands(other)
        if ab is not None:
            return ScalarValue.const(ab[0] ^ ab[1], self.width)
        return self._binary(other, tnum_xor, Interval.xor)

    def div(self, other: "ScalarValue") -> "ScalarValue":
        ab = self._const_operands(other)
        if ab is not None:
            # BPF-defined semantics: x / 0 == 0.
            return ScalarValue.const(
                ab[0] // ab[1] if ab[1] else 0, self.width
            )
        return self._binary(other, tnum_div, Interval.udiv)

    def mod(self, other: "ScalarValue") -> "ScalarValue":
        ab = self._const_operands(other)
        if ab is not None:
            # BPF-defined semantics: x % 0 == x.
            return ScalarValue.const(
                ab[0] % ab[1] if ab[1] else ab[0], self.width
            )
        return self._binary(other, tnum_mod, Interval.umod)

    def reduced_const(self) -> Optional[int]:
        """The value when the tnum and the interval both pin it, else None.

        The test every constant fast path makes (cf.
        :meth:`_const_operands`), without building anything.
        """
        t = self.tnum
        if t.mask:
            return None
        v = t.value
        iv = self.interval
        if iv.umin == v and iv.umax == v:
            return v
        return None

    def neg(self) -> "ScalarValue":
        v = self.reduced_const()
        if v is not None:
            return ScalarValue.const(-v, self.width)
        t = tnum_neg(self.tnum)
        return ScalarValue.make(t, self.interval.neg())

    def lshift(self, shift: int) -> "ScalarValue":
        v = self.reduced_const()
        if v is not None:
            return ScalarValue.const(v << shift, self.width)
        t = tnum_lshift(self.tnum, shift)
        return ScalarValue.make(t, self.interval.lshift(shift))

    def rshift(self, shift: int) -> "ScalarValue":
        v = self.reduced_const()
        if v is not None:
            return ScalarValue.const(v >> shift, self.width)
        t = tnum_rshift(self.tnum, shift)
        return ScalarValue.make(t, self.interval.rshift(shift))

    def arshift(self, shift: int) -> "ScalarValue":
        v = self.reduced_const()
        if v is not None:
            if v >> (self.width - 1):  # sign-extend, then shift
                v -= 1 << self.width
            return ScalarValue.const(v >> shift, self.width)
        # An arithmetic shift is monotone on the signed view, and the
        # result maps back exactly whenever it stays within one sign half.
        t = tnum_arshift(self.tnum, shift)
        iv = self.interval
        if iv.is_bottom():
            return ScalarValue.make(t, iv)
        lo, hi = signed_bounds(iv.umin, iv.umax, iv.width)
        return ScalarValue.make(
            t, Interval.from_signed(lo >> shift, hi >> shift, iv.width)
        )

    # -- branch refinement --------------------------------------------------------

    def _with_refined_interval(self, refined: Interval) -> "ScalarValue":
        """Rebuild after an interval-only refinement.

        When the refinement did not actually narrow the interval, the
        reduced product is unchanged — re-reducing would only rebuild an
        equal object, so return ``self`` (branch bounds already implied
        by the state are the common case at re-converging guards).
        """
        iv = self.interval
        if refined.umin == iv.umin and refined.umax == iv.umax:
            return self
        return ScalarValue.make(self.tnum, refined)

    def refine_ult(self, bound: int) -> "ScalarValue":
        return self._with_refined_interval(self.interval.refine_ult(bound))

    def refine_ule(self, bound: int) -> "ScalarValue":
        return self._with_refined_interval(self.interval.refine_ule(bound))

    def refine_ugt(self, bound: int) -> "ScalarValue":
        return self._with_refined_interval(self.interval.refine_ugt(bound))

    def refine_uge(self, bound: int) -> "ScalarValue":
        return self._with_refined_interval(self.interval.refine_uge(bound))

    def refine_eq(self, bound: int) -> "ScalarValue":
        # Assuming equality collapses the product to exactly const(bound)
        # — or ⊥ when either component excludes the bound.  This is what
        # the generic meet-then-reduce sequence returns, without building
        # the intermediate tnum/interval pair (equality guards are the
        # most common refinement in branchy code).
        t = self.tnum
        iv = self.interval
        b = bound & ((1 << t.width) - 1)
        if (
            not (t.value & t.mask)          # not ⊥
            and (b & ~t.mask) == t.value    # tnum contains the bound
            and iv.umin <= b <= iv.umax     # interval contains the bound
        ):
            return ScalarValue.const(b, t.width)
        return ScalarValue.bottom(t.width)

    def refine_ne(self, bound: int) -> "ScalarValue":
        return self._with_refined_interval(self.interval.refine_ne(bound))

    # The signed refinements clamp one end of :meth:`signed_range`, meet
    # it into the interval and let :meth:`make` carry it into the tnum.
    # Their ``bound`` is a bit pattern, as the unsigned ones take it.

    def signed_range(self) -> Tuple[int, int]:
        """Signed bounds ``(smin, smax)`` of γ, empty (smin > smax) at ⊥.

        The interval's signed view met with the tnum's: with the sign
        bit known the tnum's extremes keep their order; with it unknown
        the most negative member sets the sign bit over the known bits
        and the most positive clears it over all the others.
        """
        t, iv = self.tnum, self.interval
        width = t.width
        lo, hi = signed_bounds(iv.umin, iv.umax, width)
        sign = 1 << (width - 1)
        tmin, tmax = t.value, t.value | t.mask
        if t.mask & sign:
            tmin, tmax = tmin | sign, tmax & ~sign
        return max(lo, to_signed(tmin, width)), min(hi, to_signed(tmax, width))

    def _signed_bound(self, bound: int) -> int:
        width = self.tnum.width
        return to_signed(bound & ((1 << width) - 1), width)

    def _assume_signed(self, lo: int, hi: int) -> "ScalarValue":
        """Assume ``lo <= self <= hi`` (signed, already clamped)."""
        width = self.tnum.width
        if lo > hi:
            return ScalarValue.bottom(width)
        return ScalarValue.make(
            self.tnum, self.interval.meet(Interval.from_signed(lo, hi, width))
        )

    def refine_slt(self, bound: int) -> "ScalarValue":
        """Assume ``self < bound`` (signed)."""
        lo, hi = self.signed_range()
        return self._assume_signed(lo, min(hi, self._signed_bound(bound) - 1))

    def refine_sle(self, bound: int) -> "ScalarValue":
        """Assume ``self <= bound`` (signed)."""
        lo, hi = self.signed_range()
        return self._assume_signed(lo, min(hi, self._signed_bound(bound)))

    def refine_sgt(self, bound: int) -> "ScalarValue":
        """Assume ``self > bound`` (signed)."""
        lo, hi = self.signed_range()
        return self._assume_signed(max(lo, self._signed_bound(bound) + 1), hi)

    def refine_sge(self, bound: int) -> "ScalarValue":
        """Assume ``self >= bound`` (signed)."""
        lo, hi = self.signed_range()
        return self._assume_signed(max(lo, self._signed_bound(bound)), hi)

    def __str__(self) -> str:
        return f"{self.tnum} ∩ {self.interval}"


def _reduce_pair(t: Tnum, iv: Interval) -> ScalarValue:
    """Mutually reduce (tnum, interval) — kernel ``reg_bounds_sync``.

    This runs once per abstract transfer, so the dominant shapes take
    exact fast paths that skip the generic meet machinery entirely:

    * either side ⊥ → ⊥;
    * constant tnum: the interval can only clamp to that constant (or
      prove ⊥) — no tnum_meet / tnum_range construction needed;
    * constant interval: the tnum can only sharpen to that constant if
      it contains it, else ⊥;
    * top interval: the range meet reduces to the tnum's [min, max].

    Each fast path returns exactly what the generic sequence
    (``tnum_meet`` with the range tnum, then clamping the interval to the
    tnum's bounds) would — the property/differential suites and the
    fixed-seed precision golden pin that equivalence.
    """
    tv, tm = t.value, t.mask
    lo, hi = iv.umin, iv.umax
    width = t.width
    if tv & tm or lo > hi:
        return ScalarValue.bottom(width)
    if tm == 0:  # constant tnum
        if lo <= tv <= hi:
            return ScalarValue(t, iv if lo == hi else Interval.const(tv, width))
        return ScalarValue.bottom(width)
    if lo == hi:  # constant interval
        if (lo & ~tm) == tv:
            return ScalarValue(Tnum.const(lo, width), iv)
        return ScalarValue.bottom(width)
    if lo == 0 and hi == (1 << width) - 1:  # top interval
        return ScalarValue(t, Interval(tv, tv | tm, width))
    # Range → tnum: intersect with the range's prefix tnum.
    t2 = tnum_meet(t, iv.to_tnum())
    t2v, t2m = t2.value, t2.mask
    if t2v & t2m:
        return ScalarValue.bottom(width)
    # Tnum → range: clamp bounds to the tnum's min/max.
    iv2 = iv.meet(Interval(t2v, t2v | t2m, width))
    if iv2.umin > iv2.umax:
        return ScalarValue.bottom(width)
    return ScalarValue(t2, iv2)
