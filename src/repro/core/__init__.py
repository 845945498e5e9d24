"""Core tnum abstract domain: the paper's primary contribution.

Exports the :class:`Tnum` value type, the lattice operations, the Galois
connection, and every abstract operator — including the paper's novel
multiplication ``our_mul`` that was merged into the Linux kernel.  The
operator table the checkers read, :mod:`repro.core.ops`, is imported on
its own: it loads the baseline multipliers.
"""

from .arithmetic import tnum_add, tnum_neg, tnum_sub
from .bitwise import tnum_and, tnum_not, tnum_or, tnum_xor
from .division import tnum_div, tnum_mod
from .galois import (
    abstract,
    best_transformer_binary,
    best_transformer_unary,
    gamma,
)
from .lattice import (
    comparable,
    enumerate_tnums,
    is_more_precise,
    join,
    join_all,
    leq,
    lt,
    meet,
)
from .multiply import our_mul, our_mul_simplified, tnum_mul
from .shifts import (
    tnum_arshift,
    tnum_arshift_tnum,
    tnum_lshift,
    tnum_lshift_tnum,
    tnum_rshift,
    tnum_rshift_tnum,
)
from .tnum import (
    DEFAULT_WIDTH,
    Tnum,
    mask_for_width,
    random_member,
    random_tnum,
)

__all__ = [
    "Tnum",
    "DEFAULT_WIDTH",
    "mask_for_width",
    "random_tnum",
    "random_member",
    # lattice
    "leq",
    "lt",
    "comparable",
    "join",
    "meet",
    "join_all",
    "is_more_precise",
    "enumerate_tnums",
    # galois
    "abstract",
    "gamma",
    "best_transformer_unary",
    "best_transformer_binary",
    # arithmetic
    "tnum_add",
    "tnum_sub",
    "tnum_neg",
    # bitwise
    "tnum_and",
    "tnum_or",
    "tnum_xor",
    "tnum_not",
    # shifts
    "tnum_lshift",
    "tnum_rshift",
    "tnum_arshift",
    "tnum_lshift_tnum",
    "tnum_rshift_tnum",
    "tnum_arshift_tnum",
    # multiplication
    "our_mul",
    "our_mul_simplified",
    "tnum_mul",
    # division
    "tnum_div",
    "tnum_mod",
]
