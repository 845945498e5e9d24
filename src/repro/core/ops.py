"""The one table of tnum operators: each name's abstract transformer, the
concrete n-bit semantics it abstracts, and its kind.  The table is three
dicts, one per kind (:data:`BINARY_OPS`, :data:`UNARY_OPS`,
:data:`SHIFT_OPS`); :func:`get_op` finds a name in any of them.

Every soundness checker (:mod:`repro.verify`: exhaustive, random and
SAT), ``repro check-op`` and the :mod:`repro.eval` harnesses look an
operator up here, so they all check the correspondence the paper's
soundness predicate (Eqn. 11) quantifies over.  The BPF abstract
interpreter does not read it: the walk dispatches ``ScalarValue`` methods
(``repro.bpf.verifier.absint``).

``mul`` is the BPF op and the paper's ``our_mul``.  Its two baselines in
Fig. 4 and Fig. 5, ``kern_mul`` (Listing 2) and ``bitwise_mul``
(``bitwise_mul_opt``, Listing 5), share its concrete semantics.

Shift counts follow BPF semantics: the concrete count is reduced modulo
the width, and the abstract operator receives a *constant* shift (the
tnum-valued shift variants live in :mod:`repro.core.shifts`).

The table imports :mod:`repro.baselines`, so :mod:`repro.core` does not
re-export it: the walk and the service import ``repro.core`` without it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.baselines import bitwise_mul_opt, kern_mul

from .arithmetic import tnum_add, tnum_neg, tnum_sub
from .bitwise import tnum_and, tnum_not, tnum_or, tnum_xor
from .division import concrete_div, concrete_mod, tnum_div, tnum_mod
from .multiply import our_mul
from .shifts import tnum_arshift, tnum_lshift, tnum_rshift
from .tnum import Tnum, mask_for_width

__all__ = ["OpSpec", "BINARY_OPS", "UNARY_OPS", "SHIFT_OPS", "get_op"]


@dataclass(frozen=True)
class OpSpec:
    """One operation: its abstract transformer and concrete semantics."""

    name: str
    arity: int
    abstract: Callable[..., Tnum]
    concrete: Callable[..., int]  # takes ints plus a trailing width kwarg


def _wrap(width: int, x: int) -> int:
    return x & mask_for_width(width)


def _c_add(x: int, y: int, width: int) -> int:
    return _wrap(width, x + y)


def _c_sub(x: int, y: int, width: int) -> int:
    return _wrap(width, x - y)


def _c_mul(x: int, y: int, width: int) -> int:
    return _wrap(width, x * y)


def _c_and(x: int, y: int, width: int) -> int:
    return x & y


def _c_or(x: int, y: int, width: int) -> int:
    return x | y


def _c_xor(x: int, y: int, width: int) -> int:
    return x ^ y


def _c_div(x: int, y: int, width: int) -> int:
    return _wrap(width, concrete_div(x, y))


def _c_mod(x: int, y: int, width: int) -> int:
    return _wrap(width, concrete_mod(x, y))


def _c_neg(x: int, width: int) -> int:
    return _wrap(width, -x)


def _c_not(x: int, width: int) -> int:
    return _wrap(width, ~x)


def _c_lsh(x: int, shift: int, width: int) -> int:
    return _wrap(width, x << (shift % width))


def _c_rsh(x: int, shift: int, width: int) -> int:
    return _wrap(width, x >> (shift % width))


def _c_arsh(x: int, shift: int, width: int) -> int:
    shift %= width
    sign = 1 << (width - 1)
    signed = x - (1 << width) if x & sign else x
    return _wrap(width, signed >> shift)


#: Binary tnum × tnum → tnum operators and their concrete semantics.
BINARY_OPS: Dict[str, OpSpec] = {
    spec.name: spec
    for spec in (
        OpSpec("add", 2, tnum_add, _c_add),
        OpSpec("sub", 2, tnum_sub, _c_sub),
        OpSpec("mul", 2, our_mul, _c_mul),
        OpSpec("kern_mul", 2, kern_mul, _c_mul),
        OpSpec("bitwise_mul", 2, bitwise_mul_opt, _c_mul),
        OpSpec("and", 2, tnum_and, _c_and),
        OpSpec("or", 2, tnum_or, _c_or),
        OpSpec("xor", 2, tnum_xor, _c_xor),
        OpSpec("div", 2, tnum_div, _c_div),
        OpSpec("mod", 2, tnum_mod, _c_mod),
    )
}

#: Unary tnum → tnum operators.
UNARY_OPS: Dict[str, OpSpec] = {
    spec.name: spec
    for spec in (
        OpSpec("neg", 1, tnum_neg, _c_neg),
        OpSpec("not", 1, tnum_not, _c_not),
    )
}

#: Shift operators: tnum × constant-count → tnum.
SHIFT_OPS: Dict[str, OpSpec] = {
    spec.name: spec
    for spec in (
        OpSpec("lsh", 2, tnum_lshift, _c_lsh),
        OpSpec("rsh", 2, tnum_rshift, _c_rsh),
        OpSpec("arsh", 2, tnum_arshift, _c_arsh),
    )
}


def get_op(name: str) -> Tuple[str, OpSpec]:
    """Look up an operator by name across all tables.

    Returns a ``(kind, spec)`` pair where kind is one of ``"binary"``,
    ``"unary"``, ``"shift"``.
    """
    if name in BINARY_OPS:
        return "binary", BINARY_OPS[name]
    if name in UNARY_OPS:
        return "unary", UNARY_OPS[name]
    if name in SHIFT_OPS:
        return "shift", SHIFT_OPS[name]
    raise KeyError(f"unknown tnum operator {name!r}")
