"""Regehr–Duongsaa multiplication for the bitwise domain (Listing 5).

This is the only pre-kernel published abstract multiplication for the
bitfield/known-bits family (Regehr & Duongsaa 2006).  It is classic long
multiplication: for every trit position ``i`` of the multiplier ``P`` it
forms a partial product with ``multiply_bit`` and accumulates it, shifted,
with ``tnum_add``.

Two variants are provided, matching the paper's evaluation:

* :func:`bitwise_mul_naive` — the literal Listing 5, where an unknown
  multiplier trit "kills" the certain-1 trits of ``Q`` one at a time in a
  per-bit loop (the paper measured this at ~4921 cycles on 64-bit inputs);
* :func:`bitwise_mul_opt` — the paper's optimization replacing that inner
  loop with a single machine-arithmetic rewrite ``(0, Q.value | Q.mask)``
  (~387 cycles; the version plotted in Fig. 5).
"""

from __future__ import annotations

from repro.core._raw import add_raw, add_unknown_raw
from repro.core.arithmetic import tnum_add
from repro.core.shifts import tnum_lshift
from repro.core.tnum import Tnum, mask_for_width

__all__ = ["bitwise_mul_naive", "bitwise_mul_opt", "multiply_bit_naive"]


def multiply_bit_naive(p: Tnum, q: Tnum, i: int) -> Tnum:
    """Partial product for trit ``i`` of ``P`` (literal Listing 5).

    A certain 0 trit yields the zero tnum; a certain 1 yields ``Q``
    unchanged; an unknown trit yields ``Q`` with every certain-1 trit
    degraded to µ, computed here — as in the original paper — by a per-bit
    loop.
    """
    width = p.width
    pv = (p.value >> i) & 1
    pm = (p.mask >> i) & 1
    if pv == 0 and pm == 0:
        return Tnum(0, 0, width)
    if pv == 1 and pm == 0:
        return q
    # Unknown trit: kill all certain-1 bits of Q, one bit at a time.
    qv, qm = q.value, q.mask
    for j in range(width):
        if (qv >> j) & 1 and not (qm >> j) & 1:
            qv &= ~(1 << j)
            qm |= 1 << j
    return Tnum(qv & mask_for_width(width), qm, width)


def bitwise_mul_naive(p: Tnum, q: Tnum) -> Tnum:
    """Listing 5 verbatim: per-trit partial products, per-bit µ-kill loop."""
    if p.width != q.width:
        raise ValueError(f"width mismatch: {p.width} vs {q.width}")
    width = p.width
    if p.is_bottom() or q.is_bottom():
        return Tnum.bottom(width)
    total = Tnum(0, 0, width)
    for i in range(width):
        product = multiply_bit_naive(p, q, i)
        total = tnum_add(total, tnum_lshift(product, i))
    return total


def bitwise_mul_opt(p: Tnum, q: Tnum) -> Tnum:
    """Listing 5 with the paper's machine-arithmetic optimization.

    The unknown-trit case builds ``(0, Q.value | Q.mask)`` directly, and
    certain-0 positions skip the (no-op) accumulate.  This is the
    ``bitwise_mul`` measured in Fig. 5; like the other contenders its hot
    loop runs on bare value/mask words.
    """
    if p.width != q.width:
        raise ValueError(f"width mismatch: {p.width} vs {q.width}")
    width = p.width
    if p.is_bottom() or q.is_bottom():
        return Tnum.bottom(width)
    limit = mask_for_width(width)
    tv = tm = 0
    pv, pm = p.value, p.mask
    qv, qm = q.value, q.mask
    killed_m = (qv | qm) & limit
    # Faithful to Listing 5: the accumulate runs on every iteration, even
    # when the partial product is the zero tnum (certain-0 trit of P).
    # Partial products other than a certain 1's have a 0 value lane.
    for i in range(width):
        bit_v = (pv >> i) & 1
        bit_m = (pm >> i) & 1
        if bit_v and not bit_m:
            tv, tm = add_raw(tv, tm, (qv << i) & limit, (qm << i) & limit, limit)
        elif bit_m:
            tv, tm = add_unknown_raw(tv, tm, (killed_m << i) & limit, limit)
        else:
            tv, tm = add_unknown_raw(tv, tm, 0, limit)
    return Tnum(tv, tm, width)
