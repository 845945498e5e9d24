"""Raw ``(value, mask)`` kernels for the hot loops.

The kernel's ``tnum.c`` operates on bare ``u64`` pairs with no allocation;
the multiplication algorithms' relative performance (Fig. 5) depends on
that.  These helpers mirror that style for the inner loops of the three
multiplication algorithms, so the Python reproduction preserves the
paper's cost model (counting word operations, not object constructions).

Each function takes and returns plain integers; ``limit`` is the all-ones
mask for the working width.  Callers are responsible for passing
well-formed, in-range inputs (``v & m == 0`` and ``v, m <= limit``).

Folding rule.  Once the kernel's C compiler inlines ``tnum_add`` into a
multiplier, every value lane that is the constant 0 folds away.  The
multipliers add ``TNUM(0, x)`` addends on most iterations, so the same
folding is spelled out here as two specialisations of :func:`add_raw`,
each returning exactly what :func:`add_raw` returns for those operands:

* :func:`add_unknown_raw` — the addend's value lane is 0, so
  ``sv = v1`` and the value sum drops out;
* :func:`add_mask_raw` — both value lanes are 0, so ``sv = 0``,
  ``sigma = chi = sm``, and the result's value lane is 0 as well; only
  the mask lane is returned.

Every ``TNUM(0, x)`` add in ``our_mul``, ``kern_mul`` and
``bitwise_mul_opt`` goes through them, so Fig. 5 compares the three on
equal terms.  They stay plain functions (no manual inlining), one call
per abstract addition, so a multiplier's addition count can still be
observed by wrapping them.
"""

from __future__ import annotations

from typing import Tuple

__all__ = ["add_raw", "add_unknown_raw", "add_mask_raw", "sub_raw"]


def add_raw(v1: int, m1: int, v2: int, m2: int, limit: int) -> Tuple[int, int]:
    """Listing 1 (``tnum_add``) on bare value/mask words."""
    sm = (m1 + m2) & limit
    sv = (v1 + v2) & limit
    sigma = (sv + sm) & limit
    chi = sigma ^ sv
    eta = chi | m1 | m2
    return sv & ~eta & limit, eta


def add_unknown_raw(v1: int, m1: int, m2: int, limit: int) -> Tuple[int, int]:
    """:func:`add_raw` of ``(v1, m1)`` and ``TNUM(0, m2)``."""
    chi = ((v1 + ((m1 + m2) & limit)) & limit) ^ v1
    eta = chi | m1 | m2
    return v1 & ~eta, eta


def add_mask_raw(m1: int, m2: int, limit: int) -> int:
    """Mask lane of :func:`add_raw` of ``TNUM(0, m1)`` and ``TNUM(0, m2)``.

    The value lane of that sum is always 0.
    """
    return ((m1 + m2) & limit) | m1 | m2


def sub_raw(v1: int, m1: int, v2: int, m2: int, limit: int) -> Tuple[int, int]:
    """Listing 6 (``tnum_sub``) on bare value/mask words."""
    dv = (v1 - v2) & limit
    alpha = (dv + m1) & limit
    beta = (dv - m2) & limit
    chi = alpha ^ beta
    eta = chi | m1 | m2
    return dv & ~eta & limit, eta
