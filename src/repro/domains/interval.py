"""The unsigned interval domain, kernel `bpf_reg_state`-style.

The Linux BPF verifier tracks, alongside the tnum, unsigned bounds
``[umin, umax]`` and signed bounds ``[smin, smax]`` for every scalar
register.  The tnum domain alone cannot represent contiguous ranges
precisely (e.g. ``[3, 5]`` abstracts to ``0µµ`` ⊇ {0..7} over 3 bits), so
the two domains cooperate (see :mod:`repro.domains.product`).  Only the
unsigned bounds are stored: :func:`signed_bounds` derives the signed
view and :meth:`Interval.from_signed` maps a signed range back.

This module implements the unsigned interval lattice with the abstract
transformers the verifier needs: add/sub/mul with wraparound-aware
widening to ⊤, exact bitwise bounds (the Hacker's Delight ``minOR`` /
``maxAND`` family, the interval analogue of the kernel's
``scalar_min_max_*`` known-bit reasoning), division/modulo bounds under
BPF's defined ``x/0 == 0`` / ``x%0 == x`` semantics, and branch
refinement for the unsigned and equality jumps (``<``, ``<=``, ``>``,
``>=``, ``==``, ``!=``).  The signed jumps refine on
:class:`~repro.domains.product.ScalarValue`, whose tnum sharpens the
signed view.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.tnum import Tnum, mask_for_width

__all__ = [
    "Interval",
    "signed_bounds",
    "to_signed",
    "to_unsigned",
    "min_and",
    "max_and",
    "min_or",
    "max_or",
    "min_xor",
    "max_xor",
]


# -- exact bitwise bounds (Hacker's Delight §4-3) -------------------------------
#
# Each function returns the exact minimum/maximum of ``x <op> y`` over all
# ``x ∈ [a, b]`` and ``y ∈ [c, d]`` (unsigned).  The scan walks bits high
# to low looking for the first position where raising a lower bound (or
# lowering an upper bound) buys freedom in the other operand; exactness
# is exhaustively checked against brute force in the test suite.


def min_or(a: int, b: int, c: int, d: int, width: int) -> int:
    """Exact minimum of ``x | y`` for ``x ∈ [a, b]``, ``y ∈ [c, d]``."""
    m = 1 << (width - 1)
    while m:
        if ~a & c & m:
            t = (a | m) & ~(m - 1)
            if t <= b:
                a = t
                break
        elif a & ~c & m:
            t = (c | m) & ~(m - 1)
            if t <= d:
                c = t
                break
        m >>= 1
    return a | c


def max_or(a: int, b: int, c: int, d: int, width: int) -> int:
    """Exact maximum of ``x | y`` for ``x ∈ [a, b]``, ``y ∈ [c, d]``."""
    m = 1 << (width - 1)
    while m:
        if b & d & m:
            t = (b - m) | (m - 1)
            if t >= a:
                b = t
                break
            t = (d - m) | (m - 1)
            if t >= c:
                d = t
                break
        m >>= 1
    return b | d


def min_and(a: int, b: int, c: int, d: int, width: int) -> int:
    """Exact minimum of ``x & y`` for ``x ∈ [a, b]``, ``y ∈ [c, d]``."""
    m = 1 << (width - 1)
    while m:
        if ~a & ~c & m:
            t = (a | m) & ~(m - 1)
            if t <= b:
                a = t
                break
            t = (c | m) & ~(m - 1)
            if t <= d:
                c = t
                break
        m >>= 1
    return a & c


def max_and(a: int, b: int, c: int, d: int, width: int) -> int:
    """Exact maximum of ``x & y`` for ``x ∈ [a, b]``, ``y ∈ [c, d]``."""
    m = 1 << (width - 1)
    while m:
        if b & ~d & m:
            t = (b & ~m) | (m - 1)
            if t >= a:
                b = t
                break
        elif ~b & d & m:
            t = (d & ~m) | (m - 1)
            if t >= c:
                d = t
                break
        m >>= 1
    return b & d


def min_xor(a: int, b: int, c: int, d: int, width: int) -> int:
    """Exact minimum of ``x ^ y`` for ``x ∈ [a, b]``, ``y ∈ [c, d]``."""
    m = 1 << (width - 1)
    while m:
        if ~a & c & m:
            t = (a | m) & ~(m - 1)
            if t <= b:
                a = t
        elif a & ~c & m:
            t = (c | m) & ~(m - 1)
            if t <= d:
                c = t
        m >>= 1
    return a ^ c


def max_xor(a: int, b: int, c: int, d: int, width: int) -> int:
    """Exact maximum of ``x ^ y`` for ``x ∈ [a, b]``, ``y ∈ [c, d]``."""
    m = 1 << (width - 1)
    while m:
        if b & d & m:
            t = (b - m) | (m - 1)
            if t >= a:
                b = t
            else:
                t = (d - m) | (m - 1)
                if t >= c:
                    d = t
        m >>= 1
    return b ^ d


def to_signed(x: int, width: int) -> int:
    """Reinterpret an unsigned width-bit pattern as two's complement."""
    sign = 1 << (width - 1)
    return x - (1 << width) if x & sign else x


def to_unsigned(x: int, width: int) -> int:
    """Reduce a signed value into its unsigned width-bit pattern."""
    return x & mask_for_width(width)


#: Interned ⊤ / ⊥ per width, and small constants per (value, width) —
#: the verifier constructs these on every transfer, and immutability
#: makes the shared instances safe.
_TOP: Dict[int, "Interval"] = {}
_BOTTOM: Dict[int, "Interval"] = {}
_CONST_CACHE: Dict[Tuple[int, int], "Interval"] = {}
_CONST_CACHE_MAX = 256


class Interval:
    """An unsigned interval ``[umin, umax]`` over width-bit words.

    ``umin > umax`` is normalized to the canonical bottom (empty) interval.
    The signed view is derived on demand (:meth:`smin` / :meth:`smax`),
    mirroring how the kernel keeps both bound families in sync.

    Implemented as an immutable ``__slots__`` class (not a frozen
    dataclass): interval construction sits on the verifier's transfer-
    function hot path, and the dataclass machinery (``__post_init__``
    dispatch, generated ``__init__``) is measurable overhead there.
    ⊤ and ⊥ are interned per width — immutability makes sharing safe.
    """

    __slots__ = ("umin", "umax", "width")

    umin: int
    umax: int
    width: int

    def __init__(self, umin: int, umax: int, width: int = 64) -> None:
        limit = mask_for_width(width)
        if not (0 <= umin <= limit and 0 <= umax <= limit):
            if umin <= umax:  # genuine out-of-range, not bottom
                raise ValueError(
                    f"bounds [{umin}, {umax}] out of width-{width} range"
                )
        object.__setattr__(self, "umin", umin)
        object.__setattr__(self, "umax", umax)
        object.__setattr__(self, "width", width)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Interval instances are immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Interval):
            return NotImplemented
        return (
            self.umin == other.umin
            and self.umax == other.umax
            and self.width == other.width
        )

    def __hash__(self) -> int:
        return hash((self.umin, self.umax, self.width))

    def __repr__(self) -> str:
        return (
            f"Interval(umin={self.umin}, umax={self.umax}, "
            f"width={self.width})"
        )

    # -- constructors --------------------------------------------------------

    @classmethod
    def top(cls, width: int = 64) -> "Interval":
        cached = _TOP.get(width)
        if cached is None:
            cached = _TOP[width] = cls(0, mask_for_width(width), width)
        return cached

    @classmethod
    def bottom(cls, width: int = 64) -> "Interval":
        cached = _BOTTOM.get(width)
        if cached is None:
            cached = _BOTTOM[width] = cls(1, 0, width)
        return cached

    @classmethod
    def const(cls, value: int, width: int = 64) -> "Interval":
        v = value & mask_for_width(width)
        if v < _CONST_CACHE_MAX:
            cached = _CONST_CACHE.get((v, width))
            if cached is None:
                cached = _CONST_CACHE[(v, width)] = cls(v, v, width)
            return cached
        return cls(v, v, width)

    @classmethod
    def from_tnum(cls, t: Tnum) -> "Interval":
        """Tightest interval containing γ(t): ``[t.value, t.value|t.mask]``."""
        if t.is_bottom():
            return cls.bottom(t.width)
        return cls(t.min_value(), t.max_value(), t.width)

    @classmethod
    def from_signed(cls, smin: int, smax: int, width: int = 64) -> "Interval":
        """Best unsigned interval for the signed range ``[smin, smax]``.

        The inverse of :func:`signed_bounds` (kernel signed→unsigned
        deduction): exact when the range stays within one sign half, ⊤
        when it straddles zero, ⊥ when it is empty.  A non-empty range
        outside ``s<width>`` raises ``ValueError``.
        """
        if smin > smax:
            return cls.bottom(width)
        half = 1 << (width - 1)
        if smin < -half or smax >= half:
            raise ValueError(f"bounds [{smin}, {smax}] exceed s{width}")
        if smin < 0 <= smax:
            return cls.top(width)
        return cls(to_unsigned(smin, width), to_unsigned(smax, width), width)

    # -- predicates ----------------------------------------------------------

    def is_bottom(self) -> bool:
        return self.umin > self.umax

    def is_top(self) -> bool:
        return self.umin == 0 and self.umax == mask_for_width(self.width)

    def is_const(self) -> bool:
        return self.umin == self.umax

    def contains(self, value: int) -> bool:
        value &= mask_for_width(self.width)
        return self.umin <= value <= self.umax

    def cardinality(self) -> int:
        if self.is_bottom():
            return 0
        return self.umax - self.umin + 1

    # -- signed view -----------------------------------------------------------

    def smin(self) -> int:
        """Best signed lower bound derivable from the unsigned bounds."""
        lo, hi = signed_bounds(self.umin, self.umax, self.width)
        return lo

    def smax(self) -> int:
        """Best signed upper bound derivable from the unsigned bounds."""
        lo, hi = signed_bounds(self.umin, self.umax, self.width)
        return hi

    # -- lattice -----------------------------------------------------------

    def leq(self, other: "Interval") -> bool:
        self._check(other)
        if self.is_bottom():
            return True
        if other.is_bottom():
            return False
        return other.umin <= self.umin and self.umax <= other.umax

    def join(self, other: "Interval") -> "Interval":
        self._check(other)
        if self.is_bottom():
            return other
        if other.is_bottom():
            return self
        return Interval(
            min(self.umin, other.umin), max(self.umax, other.umax), self.width
        )

    def meet(self, other: "Interval") -> "Interval":
        self._check(other)
        if self.is_bottom() or other.is_bottom():
            return Interval.bottom(self.width)
        lo = max(self.umin, other.umin)
        hi = min(self.umax, other.umax)
        if lo > hi:
            return Interval.bottom(self.width)
        return Interval(lo, hi, self.width)

    def _check(self, other: "Interval") -> None:
        if self.width != other.width:
            raise ValueError(f"width mismatch: {self.width} vs {other.width}")

    # -- transformers --------------------------------------------------------

    def add(self, other: "Interval") -> "Interval":
        """Abstract addition, wraparound-aware.

        Exact unless the sum *may* overflow: when every pair overflows the
        wrapped bounds are still contiguous, so only the mixed case widens
        to ⊤.
        """
        self._check(other)
        if self.is_bottom() or other.is_bottom():
            return Interval.bottom(self.width)
        limit = mask_for_width(self.width)
        lo = self.umin + other.umin
        hi = self.umax + other.umax
        if hi <= limit:
            return Interval(lo, hi, self.width)
        if lo > limit:
            return Interval(lo - limit - 1, hi - limit - 1, self.width)
        return Interval.top(self.width)

    def sub(self, other: "Interval") -> "Interval":
        """Abstract subtraction, wraparound-aware.

        Exact unless the difference *may* underflow: all-pairs underflow
        (``self.umax < other.umin``) wraps to a contiguous high range;
        only the mixed case widens to ⊤.
        """
        self._check(other)
        if self.is_bottom() or other.is_bottom():
            return Interval.bottom(self.width)
        lo = self.umin - other.umax
        hi = self.umax - other.umin
        if lo >= 0:
            return Interval(lo, hi, self.width)
        if hi < 0:
            wrap = mask_for_width(self.width) + 1
            return Interval(lo + wrap, hi + wrap, self.width)
        return Interval.top(self.width)

    def mul(self, other: "Interval") -> "Interval":
        """Abstract multiplication; widens to ⊤ on possible overflow."""
        self._check(other)
        if self.is_bottom() or other.is_bottom():
            return Interval.bottom(self.width)
        limit = mask_for_width(self.width)
        hi = self.umax * other.umax
        if hi > limit:
            return Interval.top(self.width)
        return Interval(self.umin * other.umin, hi, self.width)

    def neg(self) -> "Interval":
        """Abstract negation (``0 - x``); exact when 0 is excluded.

        For ``0 < umin <= umax`` negation reverses the range within the
        high wraparound band; a range containing 0 alongside other values
        negates to {0} ∪ [2^w - umax, 2^w - 1], whose hull is ⊤.
        """
        if self.is_bottom():
            return self
        if self.is_const():
            return Interval.const(-self.umin, self.width)
        if self.umin > 0:
            wrap = mask_for_width(self.width) + 1
            return Interval(wrap - self.umax, wrap - self.umin, self.width)
        return Interval.top(self.width)

    # -- bitwise transformers (exact) -----------------------------------------

    def and_(self, other: "Interval") -> "Interval":
        """Exact abstract bitwise AND (Hacker's Delight bounds)."""
        self._check(other)
        if self.is_bottom() or other.is_bottom():
            return Interval.bottom(self.width)
        args = (self.umin, self.umax, other.umin, other.umax, self.width)
        return Interval(min_and(*args), max_and(*args), self.width)

    def or_(self, other: "Interval") -> "Interval":
        """Exact abstract bitwise OR (Hacker's Delight bounds)."""
        self._check(other)
        if self.is_bottom() or other.is_bottom():
            return Interval.bottom(self.width)
        args = (self.umin, self.umax, other.umin, other.umax, self.width)
        return Interval(min_or(*args), max_or(*args), self.width)

    def xor(self, other: "Interval") -> "Interval":
        """Exact abstract bitwise XOR (Hacker's Delight bounds)."""
        self._check(other)
        if self.is_bottom() or other.is_bottom():
            return Interval.bottom(self.width)
        args = (self.umin, self.umax, other.umin, other.umax, self.width)
        return Interval(min_xor(*args), max_xor(*args), self.width)

    # -- division transformers (BPF semantics: x/0 == 0, x%0 == x) ------------

    def udiv(self, other: "Interval") -> "Interval":
        """Abstract unsigned division.

        With a nonzero divisor the quotient is monotone in both operands:
        ``[umin // div_umax, umax // div_umin]``.  A possibly-zero divisor
        contributes 0 results (BPF defines ``x / 0 == 0``), and the
        smallest nonzero divisor 1 leaves the dividend intact, so the
        bounds become ``[0, umax]``.
        """
        self._check(other)
        if self.is_bottom() or other.is_bottom():
            return Interval.bottom(self.width)
        if other.umax == 0:
            return Interval.const(0, self.width)
        if other.umin == 0:
            return Interval(0, self.umax, self.width)
        return Interval(
            self.umin // other.umax, self.umax // other.umin, self.width
        )

    def umod(self, other: "Interval") -> "Interval":
        """Abstract unsigned modulo.

        The remainder never exceeds the dividend (``x % 0 == x`` included),
        so ``umax`` always bounds it; a provably-nonzero divisor caps it
        further at ``div_umax - 1``, and a dividend provably below the
        divisor passes through unchanged.
        """
        self._check(other)
        if self.is_bottom() or other.is_bottom():
            return Interval.bottom(self.width)
        if other.umax == 0:
            return self  # divisor is constant 0: identity
        if other.umin == 0:
            return Interval(0, self.umax, self.width)
        if self.umax < other.umin:
            return self  # dividend always below divisor: identity
        return Interval(0, min(self.umax, other.umax - 1), self.width)

    # -- shift transformers ---------------------------------------------------

    def lshift(self, shift: int) -> "Interval":
        """Abstract left shift by a constant; ⊤ on possible overflow."""
        if self.is_bottom():
            return self
        hi = self.umax << shift
        if hi <= mask_for_width(self.width):
            return Interval(self.umin << shift, hi, self.width)
        return Interval.top(self.width)

    def rshift(self, shift: int) -> "Interval":
        """Abstract logical right shift by a constant (exact: monotone)."""
        if self.is_bottom():
            return self
        return Interval(self.umin >> shift, self.umax >> shift, self.width)

    # -- branch refinement -----------------------------------------------------

    def refine_ult(self, bound: int) -> "Interval":
        """Assume ``self < bound`` (unsigned)."""
        if bound == 0:
            return Interval.bottom(self.width)
        return self.meet(Interval(0, bound - 1, self.width))

    def refine_ule(self, bound: int) -> "Interval":
        """Assume ``self <= bound`` (unsigned)."""
        return self.meet(Interval(0, bound, self.width))

    def refine_ugt(self, bound: int) -> "Interval":
        """Assume ``self > bound`` (unsigned)."""
        limit = mask_for_width(self.width)
        if bound == limit:
            return Interval.bottom(self.width)
        return self.meet(Interval(bound + 1, limit, self.width))

    def refine_uge(self, bound: int) -> "Interval":
        """Assume ``self >= bound`` (unsigned)."""
        return self.meet(Interval(bound, mask_for_width(self.width), self.width))

    def refine_eq(self, bound: int) -> "Interval":
        """Assume ``self == bound``."""
        return self.meet(Interval.const(bound, self.width))

    def refine_ne(self, bound: int) -> "Interval":
        """Assume ``self != bound`` — shrinks only at the edges."""
        if self.is_bottom():
            return self
        b = bound & mask_for_width(self.width)
        if self.is_const() and self.umin == b:
            return Interval.bottom(self.width)
        if self.umin == b:
            return Interval(self.umin + 1, self.umax, self.width)
        if self.umax == b:
            return Interval(self.umin, self.umax - 1, self.width)
        return self

    # -- conversion -----------------------------------------------------------

    def to_tnum(self) -> Tnum:
        """The tightest tnum covering this range (kernel ``tnum_range``)."""
        if self.is_bottom():
            return Tnum.bottom(self.width)
        return Tnum.range(self.umin, self.umax, self.width)

    def __str__(self) -> str:
        if self.is_bottom():
            return "⊥"
        return f"[{self.umin}, {self.umax}]u{self.width}"


def signed_bounds(umin: int, umax: int, width: int) -> Tuple[int, int]:
    """Best signed bounds for the unsigned range ``[umin, umax]``.

    If the range stays within one sign half it maps directly; if it
    straddles the sign boundary the signed range covers the full signed
    span of the straddled region.
    """
    sign = 1 << (width - 1)
    if umax < sign or umin >= sign:
        # All non-negative, or all negative: order-preserving.
        return to_signed(umin, width), to_signed(umax, width)
    # Straddles: contains both 2^{w-1}-1 (max signed) and -2^{w-1}.
    return -(1 << (width - 1)), (1 << (width - 1)) - 1
