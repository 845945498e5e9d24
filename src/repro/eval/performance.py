"""Performance evaluation: Figure 5 of the paper, plus pipeline benchmarks.

The paper times 40 million random 64-bit tnum pairs with RDTSC, taking
the minimum of 10 trials per pair, and reports the CDF of cycles for
``kern_mul``, (optimized) ``bitwise_mul``, and ``our_mul``; headline:
our_mul averages 262 cycles vs 393 (kern) and 387 (bitwise) — 33% / 32%
faster — and the *naive* bitwise_mul costs ~4921 cycles.

Substitution (see README.md's "Reproduction notes"): RDTSC →
``time.perf_counter_ns``; sample counts default far below 40M because
pure Python is ~100× slower per multiply.  Relative ordering and CDF
shape — who is fastest, by roughly what factor — are the reproduction
targets.

Beyond the paper's operator microbenchmarks, this module measures the
*system-level* number the fuzzing ROADMAP tracks — differential-fuzz
pipeline throughput in programs/sec (:func:`measure_fuzz_throughput`).
The result serializes as a ``BENCH_*.json`` baseline
(:class:`ThroughputReport`) that CI diffs new runs against: machines
vary, so the diff is a warning channel (default tolerance 15%), not a
hard gate.
"""

from __future__ import annotations

import gc
import json
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.baselines import bitwise_mul_naive, bitwise_mul_opt, kern_mul
from repro.core.multiply import our_mul
from repro.core.tnum import Tnum
from repro.verify.random_check import random_tnum

from .stats import cdf_points, summarize

__all__ = [
    "TimingResult",
    "time_algorithms",
    "generate_pairs",
    "PERF_ALGORITHMS",
    "speedup_summary",
    "ThroughputReport",
    "measure_fuzz_throughput",
    "measure_verifier_throughput",
    "BENCH_PROFILES",
]

#: Algorithms timed in Fig. 5, plus the naive baseline quoted in §IV.B.
PERF_ALGORITHMS: Dict[str, Callable[[Tnum, Tnum], Tnum]] = {
    "kern_mul": kern_mul,
    "bitwise_mul": bitwise_mul_opt,
    "our_mul": our_mul,
}


def generate_pairs(
    count: int, width: int = 64, seed: int = 0
) -> List[Tuple[Tnum, Tnum]]:
    """Random well-formed 64-bit tnum pairs (the paper's workload)."""
    rng = random.Random(seed)
    return [(random_tnum(rng, width), random_tnum(rng, width)) for _ in range(count)]


@dataclass
class TimingResult:
    """Per-algorithm timing over a shared set of input pairs."""

    algorithm: str
    per_pair_ns: List[float] = field(default_factory=list)

    def cdf(self, max_points: int = 200) -> List[Tuple[float, float]]:
        return cdf_points(self.per_pair_ns, max_points)

    def summary(self) -> Dict[str, float]:
        return summarize(self.per_pair_ns)

    @property
    def mean_ns(self) -> float:
        return sum(self.per_pair_ns) / len(self.per_pair_ns)


def time_algorithms(
    pairs: Sequence[Tuple[Tnum, Tnum]],
    algorithms: Optional[Dict[str, Callable[[Tnum, Tnum], Tnum]]] = None,
    trials: int = 10,
    include_naive: bool = False,
) -> Dict[str, TimingResult]:
    """Time each algorithm on each pair; keep the min across ``trials``.

    Matches the paper's methodology (min of 10 trials per input pair).
    ``include_naive`` adds the un-optimized bitwise_mul, which the paper
    quotes separately (≈12.7× slower than its optimized form).
    """
    algos = dict(algorithms or PERF_ALGORITHMS)
    if include_naive:
        algos["bitwise_mul_naive"] = bitwise_mul_naive

    results = {name: TimingResult(name) for name in algos}
    clock = time.perf_counter_ns
    for p, q in pairs:
        for name, fn in algos.items():
            best = None
            for _ in range(trials):
                t0 = clock()
                fn(p, q)
                elapsed = clock() - t0
                if best is None or elapsed < best:
                    best = elapsed
            results[name].per_pair_ns.append(float(best))
    return results


def speedup_summary(results: Dict[str, TimingResult]) -> Dict[str, float]:
    """Mean-time speedup of our_mul over each other algorithm.

    The paper reports 33% (vs kern_mul) and 32% (vs optimized
    bitwise_mul); values here are ``1 - mean(our)/mean(other)``.
    """
    ours = results["our_mul"].mean_ns
    return {
        name: 1.0 - ours / result.mean_ns
        for name, result in results.items()
        if name != "our_mul"
    }


# -- fuzz-pipeline throughput (repro bench) -----------------------------------

_THROUGHPUT_SCHEMA = 1

#: Opcode profiles measured per driver run.
BENCH_PROFILES = ("mixed", "alu", "memory", "branchy")


@dataclass
class ThroughputReport:
    """Measured fuzz-pipeline throughput, serializable as a baseline.

    ``metrics`` maps metric name to programs/sec: ``driver_<profile>``
    for the plain differential driver per opcode profile,
    ``verify_<profile>`` for the abstract verifier alone (cold per
    program: container construction, CFG construction, and the full
    abstract interpretation are all inside the timed region),
    ``verify_repeat`` for the verdict-cache hit path (canonical hash +
    cache lookup + telemetry replay on a warm
    :class:`~repro.bpf.canon.VerdictCache`, fresh ``Program`` containers
    each pass — the repeat-submission scenario), ``campaign_telemetry``
    for the precision campaign with telemetry but no feedback, and
    ``campaign_feedback`` for the full two-round mutation-feedback loop.
    Numbers are machine-dependent; comparisons are advisory.
    """

    budget: int
    seed: int
    repeats: int
    metrics: Dict[str, float] = field(default_factory=dict)

    def to_json(self) -> str:
        payload = {
            "schema_version": _THROUGHPUT_SCHEMA,
            "budget": self.budget,
            "seed": self.seed,
            "repeats": self.repeats,
            "metrics": {k: round(v, 1) for k, v in sorted(self.metrics.items())},
        }
        return json.dumps(payload, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ThroughputReport":
        payload = json.loads(text)
        version = payload.get("schema_version")
        if version != _THROUGHPUT_SCHEMA:
            raise ValueError(
                f"unsupported throughput baseline schema {version!r}"
            )
        return cls(
            budget=int(payload["budget"]),
            seed=int(payload["seed"]),
            repeats=int(payload["repeats"]),
            metrics={k: float(v) for k, v in payload["metrics"].items()},
        )

    def summary(self) -> str:
        lines = [
            f"Fuzz-pipeline throughput (budget {self.budget}, "
            f"seed {self.seed}, best of {self.repeats}):"
        ]
        for name in sorted(self.metrics):
            lines.append(f"  {name:<20}: {self.metrics[name]:8.1f} programs/sec")
        return "\n".join(lines)

    def compare(
        self, baseline: "ThroughputReport", max_regression: float = 0.15
    ) -> List[str]:
        """Advisory regression warnings against a saved baseline.

        Returns one message per metric that fell more than
        ``max_regression`` below the baseline.  Metrics missing from
        either side are skipped: a new metric has no baseline to
        regress from.
        """
        warnings = []
        for row in self.compare_rows(baseline, max_regression=max_regression):
            if row["status"] != "WARN":
                continue
            drop = -row["delta"]
            warnings.append(
                f"{row['metric']}: {row['current']:.1f} programs/sec is "
                f"{100 * drop:.1f}% below baseline {row['baseline']:.1f}"
            )
        return warnings

    def compare_rows(
        self, baseline: "ThroughputReport", max_regression: float = 0.15
    ) -> List[Dict[str, object]]:
        """The full per-metric diff, one row per metric in either report.

        Each row carries ``metric``, ``baseline``/``current``
        programs/sec (``None`` when absent on that side), the
        fractional ``delta`` (``current/baseline - 1``), and a
        ``status``: ``ok``, ``WARN`` (below baseline past
        ``max_regression``), ``new`` (no baseline), or ``missing``
        (baseline metric this run did not measure).
        """
        rows: List[Dict[str, object]] = []
        for name in sorted(set(self.metrics) | set(baseline.metrics)):
            new = self.metrics.get(name)
            old = baseline.metrics.get(name)
            delta: Optional[float] = None
            if new is None:
                status = "missing"
            elif old is None or old <= 0:
                status = "new"
            else:
                delta = new / old - 1.0
                status = "WARN" if -delta > max_regression else "ok"
            rows.append({
                "metric": name, "baseline": old, "current": new,
                "delta": delta, "status": status,
            })
        return rows

    def markdown_diff(
        self, baseline: "ThroughputReport", max_regression: float = 0.15
    ) -> str:
        """The baseline diff as a markdown table (CI step summaries)."""

        def _rate(value: Optional[float]) -> str:
            return f"{value:,.1f}" if value is not None else "—"

        lines = [
            "### Throughput vs committed baseline",
            "",
            f"Budget {self.budget}, seed {self.seed}, best of "
            f"{self.repeats} — programs/sec, advisory "
            f"(warns >{100 * max_regression:.0f}% below baseline).",
            "",
            "| metric | baseline | current | Δ | status |",
            "|---|---:|---:|---:|---|",
        ]
        for row in self.compare_rows(baseline, max_regression=max_regression):
            delta = row["delta"]
            delta_text = f"{100 * delta:+.1f}%" if delta is not None else "—"
            status = row["status"]
            status_text = "⚠️ WARN" if status == "WARN" else status
            lines.append(
                f"| `{row['metric']}` | {_rate(row['baseline'])} | "
                f"{_rate(row['current'])} | {delta_text} | {status_text} |"
            )
        return "\n".join(lines)


def _best_of(
    fn: Callable[[], object],
    repeats: int,
    observe: Optional[Callable[[float], None]] = None,
) -> float:
    best = None
    for _ in range(repeats):
        # Collect before each timed pass so one stage's garbage (the
        # campaign stages allocate heavily) cannot bill a later stage.
        gc.collect()
        t0 = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - t0
        if observe is not None:
            observe(elapsed)
        if best is None or elapsed < best:
            best = elapsed
    return best if best is not None else 0.0


def _stage_observer(
    stage_observer: Optional[Callable[[str, float], None]], stage: str
) -> Optional[Callable[[float], None]]:
    if stage_observer is None:
        return None
    return lambda seconds: stage_observer(stage, seconds)


def measure_verifier_throughput(
    budget: int = 200,
    seed: int = 42,
    repeats: int = 2,
    profiles: Sequence[str] = BENCH_PROFILES,
    stage_observer: Optional[Callable[[str, float], None]] = None,
) -> Dict[str, float]:
    """Measure the abstract verifier alone: ``verify_<profile>`` stages.

    Programs are pre-generated outside the timed region (generation is
    driver cost, not verifier cost), but each timed pass re-wraps the
    instruction lists in fresh :class:`~repro.bpf.program.Program`
    containers so every verification is *cold* — container maps and the
    CFG are paid inside the measurement, exactly as the fuzz oracle pays
    them per generated program.
    """
    from repro.bpf.program import Program
    from repro.bpf.verifier import Verifier
    from repro.fuzz import generate_program
    from repro.fuzz.driver import program_seed

    metrics: Dict[str, float] = {}
    for profile in profiles:
        insn_lists = [
            list(generate_program(program_seed(seed, i), profile).program.insns)
            for i in range(budget)
        ]

        def run(lists=insn_lists) -> None:
            verifier = Verifier(ctx_size=64)
            for insns in lists:
                verifier.verify(Program(insns))

        metrics[f"verify_{profile}"] = budget / _best_of(
            run, repeats, observe=_stage_observer(
                stage_observer, f"verify_{profile}"
            )
        )

    # verify_repeat: the verdict-cache hit path on the first profile's
    # workload.  The cache is warmed outside the timed region; each
    # timed pass still wraps fresh Program containers, so it pays
    # canonicalization, hashing, lookup, and telemetry-stream replay —
    # everything a repeat submission pays — but never the abstract walk.
    # The ratio verify_repeat / verify_<profiles[0]> is the memoization
    # speedup the ISSUE's acceptance criteria track (>= 10x).
    from repro.bpf.canon import VerdictCache

    repeat_lists = [
        list(generate_program(program_seed(seed, i), profiles[0]).program.insns)
        for i in range(budget)
    ]
    cache = VerdictCache()
    warm = Verifier(ctx_size=64, verdict_cache=cache)
    for insns in repeat_lists:
        warm.verify(Program(insns))

    def run_repeat(lists=repeat_lists, cache=cache) -> None:
        verifier = Verifier(ctx_size=64, verdict_cache=cache)
        for insns in lists:
            verifier.verify(Program(insns))

    metrics["verify_repeat"] = budget / _best_of(
        run_repeat, repeats,
        observe=_stage_observer(stage_observer, "verify_repeat"),
    )
    return metrics


def measure_fuzz_throughput(
    budget: int = 200,
    seed: int = 42,
    repeats: int = 2,
    profiles: Sequence[str] = BENCH_PROFILES,
    campaign_budget: Optional[int] = None,
    stage_observer: Optional[Callable[[str, float], None]] = None,
) -> ThroughputReport:
    """Measure end-to-end pipeline throughput (programs/sec).

    Runs the plain differential driver per opcode profile, the abstract
    verifier alone per profile (``verify_<profile>``), the
    telemetry-only precision campaign, and the full mutation-feedback
    campaign, each ``repeats`` times keeping the best.  This is the
    workload behind ``repro bench`` and the committed
    ``benchmarks/baselines/BENCH_throughput.json``.

    ``stage_observer`` (optional) receives every individual timed pass
    as ``(stage_name, seconds)`` — ``repro bench --json`` feeds these
    into obs histograms for p50/p90/p99 per stage — without touching
    the best-of metrics or requiring observability to be enabled.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    # Imported lazily: repro.fuzz pulls in repro.eval.precision, so a
    # module-level import here would be circular.
    from repro.fuzz import (
        CampaignConfig,
        CampaignSpec,
        run_campaign,
        run_precision_campaign,
    )

    campaign_budget = budget if campaign_budget is None else campaign_budget
    metrics: Dict[str, float] = {}

    for profile in profiles:
        config = CampaignConfig(budget=budget, seed=seed, profile=profile)
        seconds = _best_of(
            lambda: run_campaign(config), repeats,
            observe=_stage_observer(stage_observer, f"driver_{profile}"),
        )
        metrics[f"driver_{profile}"] = budget / seconds

    metrics.update(
        measure_verifier_throughput(
            budget=budget, seed=seed, repeats=repeats, profiles=profiles,
            stage_observer=stage_observer,
        )
    )

    telemetry = CampaignSpec(
        budget=campaign_budget, rounds=1, seed=seed, mutate_fraction=0.0,
        seeds_per_round=0, seed_shrink_per_round=0,
    )
    seconds = _best_of(
        lambda: run_precision_campaign(telemetry), repeats,
        observe=_stage_observer(stage_observer, "campaign_telemetry"),
    )
    metrics["campaign_telemetry"] = campaign_budget / seconds

    feedback = CampaignSpec(budget=campaign_budget, rounds=2, seed=seed)
    seconds = _best_of(
        lambda: run_precision_campaign(feedback), repeats,
        observe=_stage_observer(stage_observer, "campaign_feedback"),
    )
    metrics["campaign_feedback"] = campaign_budget / seconds

    return ThroughputReport(
        budget=budget, seed=seed, repeats=repeats, metrics=metrics
    )
