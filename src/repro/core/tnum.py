"""The tristate-number (tnum) abstract value.

A tnum tracks, for each bit of an n-bit machine word, whether that bit is
known to be 0, known to be 1, or unknown (written ``µ`` / ``mu``) across all
executions of a program.  Following the Linux kernel's ``struct tnum``, a
tnum is stored as a pair of n-bit integers ``(value, mask)``:

=============  =============  ==========
value bit      mask bit       trit
=============  =============  ==========
0              0              known 0
1              0              known 1
0              1              unknown µ
1              1              ill-formed (⊥ / empty set)
=============  =============  ==========

A tnum with any position where both ``value`` and ``mask`` are set does not
describe any concrete value; all such pairs represent bottom (the empty
concrete set).  This module canonicalizes them to a single :data:`bottom`
representative per width.

The concrete values described by a tnum ``t`` are exactly
``{c : c & ~t.mask == t.value}`` (the paper's γ, Eqn. 7); see
:mod:`repro.core.galois` for the abstraction/concretization functions.

Tnums here are immutable and hashable, so they can live in sets and dicts
(useful for fixpoint computations in the verifier).
"""

from __future__ import annotations

import random
from typing import Iterator, Optional, Tuple

__all__ = [
    "Tnum",
    "DEFAULT_WIDTH",
    "mask_for_width",
    "random_tnum",
    "random_member",
]

#: The bit width used by the Linux BPF verifier (and by default here).
DEFAULT_WIDTH = 64


def mask_for_width(width: int) -> int:
    """Return the all-ones bit mask for an n-bit word, e.g. ``0xff`` for 8."""
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    return (1 << width) - 1


class Tnum:
    """An immutable tristate number over ``width``-bit words.

    Parameters
    ----------
    value:
        The known-one bits.  Bits outside ``width`` are rejected.
    mask:
        The unknown bits.  Bits outside ``width`` are rejected.
    width:
        Bit width of the underlying machine word (default 64, as in the
        kernel).

    A ``Tnum`` with overlapping ``value`` and ``mask`` bits is *ill-formed*:
    it concretizes to the empty set.  Construction canonicalizes all
    ill-formed pairs to the unique bottom element of the given width
    (``value == mask == all-ones``), so equality and hashing treat every
    empty tnum identically.
    """

    __slots__ = ("value", "mask", "width")

    def __init__(self, value: int, mask: int, width: int = DEFAULT_WIDTH) -> None:
        # ``width < 1`` is rejected by the limit computation's callers;
        # the limit is inlined (not mask_for_width) because construction
        # is the single hottest allocation in the verifier pipeline.
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        limit = (1 << width) - 1
        if not 0 <= value <= limit:
            raise ValueError(
                f"value {value:#x} out of range for width {width}"
            )
        if not 0 <= mask <= limit:
            raise ValueError(f"mask {mask:#x} out of range for width {width}")
        if value & mask:
            # Ill-formed: canonicalize every empty tnum to one bottom value.
            value = limit
            mask = limit
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "width", width)

    # ``value`` / ``mask`` / ``width`` are plain (read-only) slots: the
    # kernel's field names, without property-descriptor overhead.

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, value: int, width: int = DEFAULT_WIDTH) -> "Tnum":
        """The exact abstraction of a single concrete value.

        Mirrors the kernel's ``TNUM(value, 0)`` / ``tnum_const``.  ``value``
        is truncated to ``width`` bits (two's-complement wrap), so negative
        Python ints are accepted.
        """
        return cls(value & mask_for_width(width), 0, width)

    @classmethod
    def unknown(cls, width: int = DEFAULT_WIDTH) -> "Tnum":
        """The top element ⊤: every bit unknown (kernel ``tnum_unknown``)."""
        return cls(0, mask_for_width(width), width)

    # ``top`` is the conventional abstract-interpretation name.
    top = unknown

    @classmethod
    def bottom(cls, width: int = DEFAULT_WIDTH) -> "Tnum":
        """The bottom element ⊥, concretizing to the empty set."""
        limit = mask_for_width(width)
        return cls(limit, limit, width)

    @classmethod
    def range(cls, lo: int, hi: int, width: int = DEFAULT_WIDTH) -> "Tnum":
        """Abstract the contiguous unsigned range ``[lo, hi]``.

        This is the kernel's ``tnum_range``: all bits above the highest bit
        in which ``lo`` and ``hi`` differ become unknown only if they differ;
        the shared high prefix stays known.
        """
        limit = mask_for_width(width)
        if not 0 <= lo <= limit or not 0 <= hi <= limit:
            raise ValueError(f"range [{lo}, {hi}] out of width-{width} bounds")
        if lo > hi:
            return cls.bottom(width)
        chi = lo ^ hi
        bits = chi.bit_length()
        if bits > width:
            return cls.unknown(width)
        delta = (1 << bits) - 1
        return cls(lo & ~delta, delta, width)

    @classmethod
    def from_trits(cls, text: str, width: Optional[int] = None) -> "Tnum":
        """Parse a trit string like ``"10µ0"`` (msb first) into a tnum.

        Accepts ``µ``, ``u``, ``x``, and ``?`` for unknown trits, and ``_``
        as an ignored separator.  The paper writes tnums this way (e.g.
        ``01µ0``).  If ``width`` exceeds the string length, the string is
        zero-extended on the left.
        """
        trits = [ch for ch in text if ch != "_"]
        if width is None:
            width = len(trits)
        if len(trits) > width:
            raise ValueError(
                f"trit string {text!r} longer than width {width}"
            )
        value = 0
        mask = 0
        for ch in trits:
            value <<= 1
            mask <<= 1
            if ch == "1":
                value |= 1
            elif ch == "0":
                pass
            elif ch in ("µ", "u", "x", "?", "m"):
                mask |= 1
            else:
                raise ValueError(f"invalid trit {ch!r} in {text!r}")
        return cls(value, mask, width)

    # -- predicates ----------------------------------------------------------

    def is_bottom(self) -> bool:
        """True iff this tnum concretizes to the empty set.

        Construction canonicalizes every ill-formed pair to bottom, so a
        nonzero ``value & mask`` overlap is an exact (and allocation-free)
        bottom test.
        """
        return (self.value & self.mask) != 0

    def is_top(self) -> bool:
        """True iff every bit is unknown."""
        return self.value == 0 and self.mask == mask_for_width(self.width)

    def is_const(self) -> bool:
        """True iff exactly one concrete value is represented.

        Matches the kernel's ``tnum_is_const``: no unknown bits.  Bottom is
        not a constant.
        """
        return self.mask == 0

    def is_aligned(self, size: int) -> bool:
        """True iff every concrete value is a multiple of ``size``.

        ``size`` must be a power of two (kernel ``tnum_is_aligned``).
        """
        if size == 0:
            return True
        if size & (size - 1):
            raise ValueError(f"alignment {size} is not a power of two")
        return ((self.value | self.mask) & (size - 1)) == 0

    def contains(self, concrete: int) -> bool:
        """Membership test ``concrete ∈ γ(self)`` (Eqn. 9 of the paper)."""
        if self.is_bottom():
            return False
        concrete &= mask_for_width(self.width)
        return (concrete & ~self.mask) & mask_for_width(self.width) == self.value

    def trit(self, position: int) -> str:
        """Return the trit at ``position`` (0 = lsb) as ``"0"``, ``"1"`` or ``"µ"``."""
        if not 0 <= position < self.width:
            raise IndexError(f"bit {position} out of range for width {self.width}")
        v = (self.value >> position) & 1
        m = (self.mask >> position) & 1
        if m:
            return "⊥-trit" if v else "µ"
        return "1" if v else "0"

    def known_bits(self) -> int:
        """Bit mask of positions whose trit is certain (0 or 1)."""
        return ~self.mask & mask_for_width(self.width)

    def unknown_count(self) -> int:
        """Number of unknown (µ) trits."""
        return bin(self.mask).count("1")

    def cardinality(self) -> int:
        """``|γ(self)|`` — the number of concrete values represented."""
        if self.is_bottom():
            return 0
        return 1 << self.unknown_count()

    def concretize(self) -> Iterator[int]:
        """Yield every concrete value in γ(self), in increasing order.

        The iteration enumerates all assignments to unknown bits using the
        standard subset-enumeration trick over the mask.
        """
        if self.is_bottom():
            return
        value, mask = self.value, self.mask
        subset = 0
        while True:
            yield value | subset
            if subset == mask:
                return
            # Next subset of `mask` in increasing numeric order.
            subset = (subset - mask) & mask

    def min_value(self) -> int:
        """Smallest concrete value in γ(self) (unknown bits as 0)."""
        if self.is_bottom():
            raise ValueError("bottom tnum has no concrete values")
        return self.value

    def max_value(self) -> int:
        """Largest concrete value in γ(self) (unknown bits as 1)."""
        if self.is_bottom():
            raise ValueError("bottom tnum has no concrete values")
        return self.value | self.mask

    # -- width adjustment ----------------------------------------------------

    def cast(self, width: int) -> "Tnum":
        """Truncate (or zero-extend) to ``width`` bits (kernel ``tnum_cast``).

        Truncation keeps the low bits; extension adds known-0 high bits.
        This mirrors BPF's 32-bit subregister semantics.
        """
        if self.is_bottom():
            return Tnum.bottom(width)
        limit = mask_for_width(width)
        return Tnum(self.value & limit, self.mask & limit, width)

    def subreg(self) -> "Tnum":
        """Low 32 bits zero-extended back to 64 (kernel ``tnum_subreg``)."""
        if self.width != 64:
            raise ValueError("subreg is only defined for 64-bit tnums")
        return self.cast(32).cast(64)

    # -- dunder plumbing -----------------------------------------------------

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Tnum instances are immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tnum):
            return NotImplemented
        return (
            self.width == other.width
            and self.value == other.value
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.value, self.mask, self.width))

    def __iter__(self) -> Iterator[int]:
        return self.concretize()

    def __contains__(self, concrete: object) -> bool:
        if not isinstance(concrete, int):
            return False
        return self.contains(concrete)

    def __len__(self) -> int:
        return self.cardinality()

    def to_trits(self) -> str:
        """Render as a trit string, msb first, e.g. ``"10µ0"``."""
        if self.is_bottom():
            return "⊥" * self.width
        chars = []
        for position in reversed(range(self.width)):
            chars.append(self.trit(position))
        return "".join(chars)

    def as_pair(self) -> Tuple[int, int]:
        """Return the kernel representation ``(value, mask)``."""
        return (self.value, self.mask)

    def __repr__(self) -> str:
        if self.is_bottom():
            return f"Tnum.bottom(width={self.width})"
        return (
            f"Tnum(value={self.value:#x}, mask={self.mask:#x}, "
            f"width={self.width})"
        )

    def __str__(self) -> str:
        return self.to_trits()


def random_tnum(rng: random.Random, width: int = DEFAULT_WIDTH) -> Tnum:
    """A uniformly-drawn well-formed tnum of the given width.

    The value is masked with the complement of the mask: every
    ``(v & ~m, m)`` pair is well-formed, and every well-formed tnum is
    reachable this way.
    """
    limit = mask_for_width(width)
    mask = rng.randint(0, limit)
    value = rng.randint(0, limit) & ~mask
    return Tnum(value & limit, mask, width)


def random_member(rng: random.Random, t: Tnum) -> int:
    """A uniformly-drawn concrete member of γ(t)."""
    if t.is_bottom():
        raise ValueError("bottom tnum has no members")
    fill = rng.randint(0, mask_for_width(t.width)) & t.mask
    return t.value | fill
