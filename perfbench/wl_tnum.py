"""``tnum_ops``: the paper's Fig. 5 input, the only outside view of ``repro.core``.

Inputs are random well-formed 64-bit tnum pairs from
``repro.eval.performance.generate_pairs``.  Following the paper, each
multiplier is timed on each pair ``TRIALS`` times and the pair keeps
the minimum.  A round sweeps every pair through the three multipliers
(``our_mul`` and the ``kern_mul`` / ``bitwise_mul`` baselines), taking
turns on each pair, and then runs ``our_mul`` over all pairs back to
back, three passes, for its throughput, scaled to the reference speed
by the calibration loop timed right before and after the passes
(:func:`harness.slowdown`).  Rounds repeat until the run's time is up;
the end-to-end metrics are the median throughput over rounds and its
inverse.  The Fig. 5 table on standard error and the traced
per-operator figures keep each pair's raw minimum over every round:
minima of microsecond calls escape the machine's slow state only in
part, so they cannot be scaled by the calibration loop.

Soundness is checked outside the timed region: on sampled pairs, every
operator's result must contain ``x op y`` for random members ``x`` and
``y`` of the operands.

A traced run also times the core operators the verifier's transfer
functions use (add, sub, and, or, xor, and the shifts) and takes each
trial through the benchmark's span recorder; ``trace.overhead_frac``
compares that with the bare ``our_mul`` sweep of the same rounds.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Callable, Dict, List, Sequence, Tuple

from harness import (
    Outcome,
    peak_rss_mb,
    pin_to_one_cpu,
    probe_setup,
    segments,
    setup_note,
    slowdown,
    trace_path,
)
from spans import Tracer

from repro.baselines import bitwise_mul_opt, kern_mul
from repro.core import (
    Tnum,
    our_mul,
    tnum_add,
    tnum_and,
    tnum_lshift,
    tnum_or,
    tnum_rshift,
    tnum_sub,
    tnum_xor,
)
from repro.eval.performance import generate_pairs

PAIRS = 1000
TRIALS = 10
THROUGHPUT_PASSES = 3
WARMUP_PAIRS = 200
SOUNDNESS_PAIRS = 300
MEMBERS_PER_PAIR = 4
U64 = (1 << 64) - 1
#: Separates the warm-up and soundness pair streams from the timed one.
_WARMUP_MIX = 0xA11CE
_CHECK_MIX = 0xB0B

Pair = Tuple[Tnum, Tnum]

MULTIPLIERS: Dict[str, Callable[[Tnum, Tnum], Tnum]] = {
    "our_mul": our_mul,
    "kern_mul": kern_mul,
    "bitwise_mul": bitwise_mul_opt,
}


def _shift_amount(q: Tnum) -> int:
    return q.value & 63


#: Core operators timed in traced runs, with the concrete operation
#: each must over-approximate.  Shifts take their amount from the
#: second operand's known bits.
CORE_OPS: Dict[str, Tuple[Callable[[Tnum, Tnum], Tnum], Callable[[int, int, Tnum], int]]] = {
    "add": (tnum_add, lambda x, y, q: (x + y) & U64),
    "sub": (tnum_sub, lambda x, y, q: (x - y) & U64),
    "and": (tnum_and, lambda x, y, q: x & y),
    "or": (tnum_or, lambda x, y, q: x | y),
    "xor": (tnum_xor, lambda x, y, q: x ^ y),
    "lshift": (lambda p, q: tnum_lshift(p, _shift_amount(q)),
               lambda x, y, q: (x << _shift_amount(q)) & U64),
    "rshift": (lambda p, q: tnum_rshift(p, _shift_amount(q)),
               lambda x, y, q: x >> _shift_amount(q)),
}


CORE_FNS = {name: fn for name, (fn, _) in CORE_OPS.items()}


def sweep(fns: Dict[str, Callable[[Tnum, Tnum], Tnum]], pairs: Sequence[Pair]) -> Dict[str, List[int]]:
    """Per-pair minimum over :data:`TRIALS` calls of each function, in ns.

    The functions take turns on each pair, so a slow spell on the
    machine lands on all of them alike instead of on one.
    """
    clock = time.perf_counter_ns
    out: Dict[str, List[int]] = {name: [] for name in fns}
    for p, q in pairs:
        for name, fn in fns.items():
            best = None
            for _ in range(TRIALS):
                t0 = clock()
                fn(p, q)
                elapsed = clock() - t0
                if best is None or elapsed < best:
                    best = elapsed
            out[name].append(best)
    return out


def traced_sweep(
    tracer: Tracer, fns: Dict[str, Callable[[Tnum, Tnum], Tnum]], pairs: Sequence[Pair]
) -> Dict[str, List[int]]:
    """As :func:`sweep`, with every trial a span.

    Only the fastest span of each pair and function is kept: a round
    would otherwise hold hundreds of thousands of spans.
    """
    spans = tracer.spans
    out: Dict[str, List[int]] = {name: [] for name in fns}
    for p, q in pairs:
        for name, fn in fns.items():
            for _ in range(TRIALS):
                with tracer.span(name):
                    fn(p, q)
            fastest = min(spans[-TRIALS:], key=lambda s: s.duration)
            del spans[-TRIALS:]
            spans.append(fastest)
            out[name].append(fastest.duration)
    return out


def products_per_s(pairs: Sequence[Pair]) -> float:
    """``our_mul`` over every pair back to back, :data:`THROUGHPUT_PASSES`
    times, in products per second at the reference speed
    (:func:`harness.slowdown`, timed right before and after)."""
    before = slowdown()
    t0 = time.perf_counter()
    for _ in range(THROUGHPUT_PASSES):
        for p, q in pairs:
            our_mul(p, q)
    elapsed = time.perf_counter() - t0
    return len(pairs) * THROUGHPUT_PASSES / elapsed * ((before + slowdown()) / 2)


def warm_up(seed: int) -> None:
    pairs = generate_pairs(WARMUP_PAIRS, seed=seed ^ _WARMUP_MIX)
    sweep(MULTIPLIERS, pairs)
    sweep(CORE_FNS, pairs)


def _member(rng: random.Random, t: Tnum) -> int:
    return t.value | (rng.getrandbits(64) & t.mask)


def unsound_operators(seed: int) -> List[str]:
    """Operators whose result missed a concrete ``x op y`` on sampled pairs."""
    rng = random.Random(seed ^ _CHECK_MIX)
    pairs = generate_pairs(SOUNDNESS_PAIRS, seed=seed ^ _CHECK_MIX)
    checks = {name: (fn, lambda x, y, q: (x * y) & U64) for name, fn in MULTIPLIERS.items()}
    checks.update(CORE_OPS)
    bad = []
    for name, (abstract, concrete) in checks.items():
        for p, q in pairs:
            result = abstract(p, q)
            if not all(
                result.contains(concrete(_member(rng, p), _member(rng, q), q))
                for _ in range(MEMBERS_PER_PAIR)
            ):
                bad.append(name)
                break
    return bad


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome(attempted=0)
    pin_to_one_cpu()
    warm_up(seed)
    pairs = generate_pairs(PAIRS, seed=seed)

    best: Dict[str, List[int]] = {}   # per-pair minimum over all rounds
    rates: List[float] = []
    tracer = Tracer()
    setups: List[float] = []
    for deadline in segments(seconds, lambda: probe_setup("tnum_ops", seed), setups):
        while time.perf_counter() < deadline:
            mins = sweep(MULTIPLIERS, pairs)
            rates.append(products_per_s(pairs))
            if trace:
                mins.update(
                    (f"traced.{name}", values) for name, values in
                    traced_sweep(tracer, {"our_mul": our_mul, **CORE_FNS}, pairs).items()
                )
            for name, values in mins.items():
                kept = best.setdefault(name, values)
                best[name] = [min(a, b) for a, b in zip(kept, values)]
                outcome.attempted += len(values)

    bad = unsound_operators(seed)
    if bad:
        outcome.failed = outcome.attempted
        outcome.problems.append(f"unsound on sampled pairs: {', '.join(bad)}")

    mean = {name: statistics.fmean(values) for name, values in best.items()}
    outcome.notes.append(
        f"tnum_ops: {len(rates)} rounds over {len(pairs)} pairs, {TRIALS} "
        f"trials a round, mean over pairs of the per-pair minimum: "
        + ", ".join(f"{n} {mean[n]:.0f} ns" for n in MULTIPLIERS)
        + f"; our_mul {100 * (1 - mean['our_mul'] / mean['kern_mul']):.1f}% "
        f"faster than kern_mul"
    )
    if not trace:
        outcome.notes.append(setup_note(setups))
        outcome.metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": statistics.median(rates),
            "latency_ms": 1e3 / statistics.median(rates),
            "peak_rss_mb": peak_rss_mb(),
        }
        return outcome

    metrics = {f"core.{op}_ns": mean[f"traced.{op}"] for op in CORE_OPS}
    metrics["core.our_mul_ns"] = mean["our_mul"]
    metrics["baselines.kern_mul_ns"] = mean["kern_mul"]
    metrics["baselines.bitwise_mul_ns"] = mean["bitwise_mul"]
    metrics["trace.overhead_frac"] = mean["traced.our_mul"] / mean["our_mul"] - 1.0
    outcome.metrics = metrics
    tracer.dump(trace_path("tnum_ops", seed))
    return outcome
