#!/usr/bin/env python3
"""Bounded verification of tnum operators, three ways (§III-A).

Reproduces the paper's verification campaign with the in-repo substrate:

1. **SAT pipeline** — the soundness formula (Eqn. 11) bit-blasted and
   discharged by the CDCL solver (the offline stand-in for Z3);
2. **exhaustive enumeration** — all tnum pairs at small widths, including
   the *optimality* of add/sub the paper proves analytically;
3. **randomized testing** — 64-bit spot checks, the paper's harness for
   validating its SMT encodings.

Also rediscovers the paper's three algebraic observations by witness
search.

Run:  python examples/solver_verification.py
"""

import time

from repro.verify import (
    check_operator_soundness,
    check_optimality,
    check_soundness,
    find_nonassociative_add,
    find_noncommutative_mul,
    find_noninverse_add_sub,
    random_check_operator,
)


def main() -> None:
    print("1. SAT-based bounded verification (Eqn. 11 -> CNF -> CDCL)")
    print("-" * 66)
    for op, width in [
        ("add", 16), ("sub", 16), ("and", 16), ("or", 16), ("xor", 16),
        ("lsh", 8), ("rsh", 8), ("arsh", 8),
        ("mul", 5), ("kern_mul", 4), ("bitwise_mul", 4),
    ]:
        t0 = time.perf_counter()
        report = check_operator_soundness(op, width)
        print(f"  {report}  [{time.perf_counter() - t0:.2f}s]")

    print()
    print("2. Exhaustive verification at width 4 (all 6561 tnum pairs)")
    print("-" * 66)
    for op in ("add", "sub", "mul", "kern_mul", "bitwise_mul", "and", "or",
               "xor"):
        print(f"  {check_soundness(op, 4)}")
    print(f"  {check_optimality('add', 4)}")
    print(f"  {check_optimality('sub', 4)}")
    print(f"  {check_optimality('mul', 4)}   <- our_mul is sound but NOT optimal")

    print()
    print("3. Randomized 64-bit soundness (the kernel's real width)")
    print("-" * 66)
    for op in ("add", "sub", "mul", "kern_mul", "bitwise_mul", "and", "or",
               "xor", "lsh", "rsh", "arsh"):
        print(f"  {random_check_operator(op, trials=2000)}")

    print()
    print("4. The paper's algebraic observations (witness search)")
    print("-" * 66)
    print(f"  {find_nonassociative_add()}")
    print(f"  {find_noninverse_add_sub()}")
    print(f"  {find_noncommutative_mul()}")


if __name__ == "__main__":
    main()
