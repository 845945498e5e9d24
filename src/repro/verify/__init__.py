"""Verification substrate: the reproduction of §III-A.

Three independent pipelines check the soundness of the tnum operators in
the one operator table, :mod:`repro.core.ops` (the BPF operators plus the
Fig. 4/5 baselines ``kern_mul`` and ``bitwise_mul``):

* :mod:`repro.verify.exhaustive` — brute-force over every operand at
  small widths, for every table operator (also checks *optimality* of
  add/sub);
* :mod:`repro.verify.sat` — the paper's SMT methodology, rebuilt on an
  in-repo CDCL SAT solver with bit-blasting, for every table operator
  with a circuit (all but div, mod, neg and not);
* :mod:`repro.verify.random_check` — randomized testing at the kernel's
  full 64-bit width, for every table operator.
"""

from repro.core.tnum import random_member, random_tnum

from .exhaustive import (
    ExhaustiveReport,
    check_optimality,
    check_soundness,
    verify_all_operators,
)
from .properties import (
    Witness,
    find_nonassociative_add,
    find_noncommutative_mul,
    find_noninverse_add_sub,
)
from .random_check import (
    RandomCheckReport,
    random_check_all,
    random_check_operator,
)
from .sat import (
    SUPPORTED_OPERATORS,
    SoundnessReport,
    check_operator_soundness,
)

__all__ = [
    "check_soundness",
    "check_optimality",
    "verify_all_operators",
    "ExhaustiveReport",
    "find_nonassociative_add",
    "find_noninverse_add_sub",
    "find_noncommutative_mul",
    "Witness",
    "random_tnum",
    "random_member",
    "random_check_operator",
    "random_check_all",
    "RandomCheckReport",
    "check_operator_soundness",
    "SoundnessReport",
    "SUPPORTED_OPERATORS",
]
