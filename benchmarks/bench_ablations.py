"""Ablation benchmarks for the design choices README.md's "Reproduction
notes" list.

1. **O(1) machine arithmetic vs O(n) ripple-carry** — the kernel's add
   against the Regehr–Duongsaa-style ripple adder (§II: "much slower").
2. **Strength reduction (Lemma 11)** — ``our_mul`` vs
   ``our_mul_simplified``: identical output, the former skips the
   fixed-count loop and the per-iteration ACC_V adds.
3. **Machine-arithmetic rewrite of bitwise_mul** — the paper reports the
   naive per-bit µ-kill loop costs 4921 cycles vs 387 optimized (~12.7×).
4. **Addition-count asymmetry** — our_mul's n+1 adds vs kern_mul's 2n,
   measured as wall-clock on the worst-case operand shapes.
"""

from __future__ import annotations

import pytest

from repro.baselines import (
    bitwise_mul_naive,
    bitwise_mul_opt,
    ripple_add,
    ripple_sub,
)
from repro.core.arithmetic import tnum_add, tnum_sub
from repro.core.multiply import our_mul, our_mul_simplified
from repro.core.tnum import Tnum
from repro.eval.performance import generate_pairs

from .conftest import write_artifact

PAIRS = generate_pairs(300, width=64, seed=7)


def _run(fn, pairs=PAIRS):
    for p, q in pairs:
        fn(p, q)


# -- ablation 1: O(1) vs O(n) addition -----------------------------------------

def test_add_kernel_o1(benchmark):
    benchmark(_run, tnum_add)


def test_add_ripple_on(benchmark):
    benchmark(_run, ripple_add)


def test_sub_kernel_o1(benchmark):
    benchmark(_run, tnum_sub)


def test_sub_ripple_on(benchmark):
    benchmark(_run, ripple_sub)


# -- ablation 2: strength reduction (Lemma 11) ------------------------------------

def test_mul_ours_final(benchmark):
    benchmark(_run, our_mul)


def test_mul_ours_simplified(benchmark):
    benchmark(_run, our_mul_simplified)


def test_strength_reduction_preserves_output(benchmark):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for p, q in PAIRS[:100]:
        assert our_mul(p, q) == our_mul_simplified(p, q)


# -- ablation 3: naive vs optimized bitwise_mul --------------------------------------

def test_bitwise_mul_naive(benchmark):
    benchmark(_run, bitwise_mul_naive, PAIRS[:50])


def test_bitwise_mul_optimized(benchmark):
    benchmark(_run, bitwise_mul_opt, PAIRS[:50])


# -- ablation 4: addition counts -----------------------------------------------------

def _count_adds(mp, module):
    """Count calls to the raw add helpers ``module`` imports."""
    calls = [0]
    for name in ("add_raw", "add_mask_raw", "add_unknown_raw"):
        if hasattr(module, name):

            def counting(*args, real=getattr(module, name)):
                calls[0] += 1
                return real(*args)

            mp.setattr(module, name, counting)
    return calls


def test_addition_count_summary(benchmark, out_dir):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    import repro.baselines.kernel_mul as kern_mod
    import repro.core.multiply as mul_mod

    counts = {}

    shapes = {
        "all known-1 x all unknown": (
            Tnum.const((1 << 64) - 1, 64), Tnum.unknown(64)
        ),
        "all unknown x all unknown": (Tnum.unknown(64), Tnum.unknown(64)),
        "half unknown": (
            Tnum(0, 0xFFFF_FFFF, 64), Tnum(0xFFFF_FFFF_0000_0000, 0, 64)
        ),
    }
    lines = ["tnum_add invocations per multiply (paper: our n+1 vs kern 2n):"]
    for label, (p, q) in shapes.items():
        for name, mod, fn_name in (
            ("our_mul", mul_mod, "our_mul"),
            ("kern_mul", kern_mod, "kern_mul"),
        ):
            with pytest.MonkeyPatch.context() as mp:
                calls = _count_adds(mp, mod)
                getattr(mod, fn_name)(p, q)
            counts[(label, name)] = calls[0]
        lines.append(
            f"  {label:<28} our_mul={counts[(label, 'our_mul')]:>3}  "
            f"kern_mul={counts[(label, 'kern_mul')]:>3}"
        )
    write_artifact(out_dir, "ablation_add_counts.txt", "\n".join(lines))
    assert counts[("all known-1 x all unknown", "our_mul")] == 65
    assert counts[("all known-1 x all unknown", "kern_mul")] == 128
