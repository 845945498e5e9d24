"""Frozen golden: the Fig. 5 multipliers before constant-zero lane folding.

These are the raw loops of ``our_mul``, ``kern_mul`` and
``bitwise_mul_opt`` as they stood when every abstract addition went
through the full Listing 1 ``tnum_add`` (:func:`_add_raw` below), with
no operand lane folded away.  ``tests/core/test_multiplier_golden.py``
requires the library's multipliers to return bit-identical results.

Do not edit these functions to follow a library change: they are the
reference the library is checked against.
"""

from __future__ import annotations

from repro.core.tnum import Tnum, mask_for_width

__all__ = ["frozen_our_mul", "frozen_kern_mul", "frozen_bitwise_mul_opt"]


def _add_raw(v1, m1, v2, m2, limit):
    sm = (m1 + m2) & limit
    sv = (v1 + v2) & limit
    sigma = (sv + sm) & limit
    chi = sigma ^ sv
    eta = chi | m1 | m2
    return sv & ~eta & limit, eta


def frozen_our_mul(p: Tnum, q: Tnum) -> Tnum:
    if p.width != q.width:
        raise ValueError(f"width mismatch: {p.width} vs {q.width}")
    width = p.width
    if p.is_bottom() or q.is_bottom():
        return Tnum.bottom(width)
    limit = mask_for_width(width)
    acc_v = (p.value * q.value) & limit
    acc_mv = 0
    acc_mm = 0
    pv, pm = p.value, p.mask
    qv, qm = q.value, q.mask
    while pv or pm:
        if (pv & 1) and not (pm & 1):
            acc_mv, acc_mm = _add_raw(acc_mv, acc_mm, 0, qm, limit)
        elif pm & 1:
            acc_mv, acc_mm = _add_raw(
                acc_mv, acc_mm, 0, (qv | qm) & limit, limit
            )
        pv >>= 1
        pm >>= 1
        qv = (qv << 1) & limit
        qm = (qm << 1) & limit
    rv, rm = _add_raw(acc_v, 0, acc_mv, acc_mm, limit)
    return Tnum(rv, rm, width)


def _hma_raw(av, am, x, y, limit):
    while y:
        if y & 1:
            av, am = _add_raw(av, am, 0, x, limit)
        y >>= 1
        x = (x << 1) & limit
    return av, am


def frozen_kern_mul(p: Tnum, q: Tnum) -> Tnum:
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


def frozen_bitwise_mul_opt(p: Tnum, q: Tnum) -> Tnum:
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
    for i in range(width):
        bit_v = (pv >> i) & 1
        bit_m = (pm >> i) & 1
        if bit_v and not bit_m:
            prod_v, prod_m = (qv << i) & limit, (qm << i) & limit
        elif bit_m:
            prod_v, prod_m = 0, (killed_m << i) & limit
        else:
            prod_v, prod_m = 0, 0
        tv, tm = _add_raw(tv, tm, prod_v, prod_m, limit)
    return Tnum(tv, tm, width)
