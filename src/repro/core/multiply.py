"""The paper's novel tnum multiplication (``our_mul``) — §III-C.

``our_mul`` (Listing 4) is the algorithm contributed to the Linux kernel.
It follows long multiplication over the multiplier's trits, but — unlike
``kern_mul`` and ``bitwise_mul`` — it *value-mask decomposes* the partial
products: all fully-known contributions are accumulated as one exact
product ``P.v * Q.v``, while uncertain contributions accumulate in a
separate mask-only tnum ``ACC_M``.  The two accumulators are combined with
a single ``tnum_add`` at the very end.  Because tnum addition loses
precision whenever *both* operands carry uncertainty, postponing the mixing
of certain and uncertain bits to one final addition is what makes
``our_mul`` empirically more precise (and with n+1 abstract additions
instead of 2n, faster) than the alternatives.

``our_mul_simplified`` (Listing 3) is the proof-friendly equivalent that
builds ``ACC_V`` iteratively; Lemma 11 shows the two agree, and our test
suite checks that exhaustively at small widths.
"""

from __future__ import annotations

from ._raw import add_mask_raw, add_unknown_raw
from .arithmetic import tnum_add
from .shifts import tnum_lshift, tnum_rshift
from .tnum import Tnum, mask_for_width

__all__ = ["our_mul", "our_mul_simplified", "tnum_mul"]


def our_mul(p: Tnum, q: Tnum) -> Tnum:
    """The paper's final multiplication algorithm (Listing 4).

    Provably sound for unbounded widths (Thm. 10 + Lemma 11); not optimal.
    Runs the loop only while ``P`` has any possibly-set bit left, which is
    the strength-reduced early exit noted in §III-C.

    The loop works on bare value/mask words, exactly like the kernel's C —
    see :mod:`repro.core._raw`, whose folding rule drops ACC_M's
    constant-zero value lane — so the Fig. 5 performance comparison
    measures the algorithms, not Python object allocation.
    """
    if p.width != q.width:
        raise ValueError(f"width mismatch: {p.width} vs {q.width}")
    width = p.width
    if p.is_bottom() or q.is_bottom():
        return Tnum.bottom(width)
    limit = mask_for_width(width)
    acc_v = (p.value * q.value) & limit
    # ACC_M's value lane is always 0, so only its mask lane is kept.
    acc_m = 0
    pv, pm = p.value, p.mask
    qv, qm = q.value, q.mask
    while pv or pm:
        if (pv & 1) and not (pm & 1):
            # LSB of P is a certain 1: Q's uncertainty joins the product.
            acc_m = add_mask_raw(acc_m, qm, limit)
        elif pm & 1:
            # LSB of P is unknown: any bit possibly set in Q may appear.
            acc_m = add_mask_raw(acc_m, (qv | qm) & limit, limit)
        # A certain-0 LSB contributes nothing.
        pv >>= 1
        pm >>= 1
        qv = (qv << 1) & limit
        qm = (qm << 1) & limit
    rv, rm = add_unknown_raw(acc_v, 0, acc_m, limit)
    return Tnum(rv, rm, width)


def our_mul_simplified(p: Tnum, q: Tnum) -> Tnum:
    """The proof-oriented formulation (Listing 3).

    Semantically identical to :func:`our_mul` (Lemma 11) but accumulates
    the value part iteratively and always loops ``width`` times.  Kept as
    a cross-check target and for readers following the soundness proof.
    """
    if p.width != q.width:
        raise ValueError(f"width mismatch: {p.width} vs {q.width}")
    width = p.width
    if p.is_bottom() or q.is_bottom():
        return Tnum.bottom(width)
    limit = mask_for_width(width)
    acc_v = Tnum(0, 0, width)
    acc_m = Tnum(0, 0, width)
    for _ in range(width):
        if (p.value & 1) and not (p.mask & 1):
            acc_v = tnum_add(acc_v, Tnum(q.value, 0, width))
            acc_m = tnum_add(acc_m, Tnum(0, q.mask, width))
        elif p.mask & 1:
            acc_m = tnum_add(acc_m, Tnum(0, (q.value | q.mask) & limit, width))
        p = tnum_rshift(p, 1)
        q = tnum_lshift(q, 1)
    return tnum_add(acc_v, acc_m)


#: The multiplication the library exports by default — the merged-in-Linux
#: algorithm from the paper.
tnum_mul = our_mul
