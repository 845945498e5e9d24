"""The pre-paper Linux kernel tnum multiplication (Listing 2).

``kern_mul`` is the algorithm the paper's ``our_mul`` replaced.  It seeds
the accumulator with the exact product of the values, then runs the
half-multiply-accumulate helper ``hma`` twice:

1. ``hma(π, P.m, Q.m | Q.v)`` — for every set bit in ``P.m`` (an unknown
   multiplier trit), add the mask of everything possibly set in ``Q``;
2. ``hma(ACC, Q.m, P.v)`` — for every set bit in ``Q.m``, add ``P``'s known
   value as a mask.

The paper could verify its soundness only up to 8 bits (SMT verification at
16 bits did not finish in 24h) and found it less precise than ``our_mul``
on ~80% of differing 8-bit inputs, chiefly because it performs up to ``2n``
tnum additions whose operands mix certain and uncertain trits.
"""

from __future__ import annotations

from repro.core._raw import add_unknown_raw
from repro.core.tnum import Tnum, mask_for_width

__all__ = ["kern_mul", "hma"]


def _hma_raw(av: int, am: int, x: int, y: int, limit: int):
    """``hma`` on bare value/mask words (the kernel's own style)."""
    while y:
        if y & 1:
            av, am = add_unknown_raw(av, am, x, limit)
        y >>= 1
        x = (x << 1) & limit
    return av, am


def hma(acc: Tnum, x: int, y: int) -> Tnum:
    """Kernel ``hma`` (half-multiply-accumulate).

    For every set bit of ``y`` (scanned lsb-first), accumulate the mask
    ``x`` shifted to that position into ``acc`` via tnum addition.
    """
    limit = mask_for_width(acc.width)
    av, am = _hma_raw(acc.value, acc.mask, x & limit, y & limit, limit)
    return Tnum(av, am, acc.width)


def kern_mul(p: Tnum, q: Tnum) -> Tnum:
    """The Linux kernel's pre-2021 tnum multiplication (Listing 2)."""
    if p.width != q.width:
        raise ValueError(f"width mismatch: {p.width} vs {q.width}")
    width = p.width
    if p.is_bottom() or q.is_bottom():
        return Tnum.bottom(width)
    limit = mask_for_width(width)
    av = (p.value * q.value) & limit
    av, am = _hma_raw(av, 0, p.mask, (q.mask | q.value) & limit, limit)
    av, am = _hma_raw(av, am, q.mask, p.value, limit)
    return Tnum(av, am, width)
