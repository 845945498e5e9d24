"""``campaign``: precision campaigns, in process, as ``repro campaign`` runs them.

Each timed unit is ``run_precision_campaign(CampaignSpec(budget=BUDGET,
seed=s))`` with every other field at its default (mixed profile, two
rounds, mutation feedback, one worker, no verdict cache); ``BUDGET`` is
``CampaignSpec``'s default too.  A run draws :data:`SEEDS_PER_RUN`
campaign seeds from its ``--seed`` and runs their campaigns in turn
until the run's time is up, so each campaign repeats several times,
spread over the run.  A campaign with a given seed does the same work
every time (its report is byte-identical).  Each repeat's wall time is
scaled to the reference speed by the calibration loop timed right
before and after it (:func:`harness.slowdown`); a campaign's cost is the
median of its scaled repeats.

In a traced run every campaign runs twice in a row, once plain and once
with spans around each layer's entry point (alternating which goes
first), so ``trace.overhead_frac`` compares the same work.
"""

from __future__ import annotations

import gc
import itertools
import random
import statistics
import time
from typing import Dict, List, Optional, Tuple

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
from spans import Tracer, self_by_name

from repro.bpf.interpreter import Machine
from repro.bpf.verifier import Verifier
from repro.fuzz import campaign as campaign_mod
from repro.fuzz.campaign import CampaignSpec, run_precision_campaign
from repro.fuzz.oracle import DifferentialOracle

BUDGET = CampaignSpec.budget
SEEDS_PER_RUN = 6
WARMUP_BUDGET = 200
#: Separates the warm-up campaign's seed stream from the timed ones.
_WARMUP_MIX = 0x5EED_0F_CA_FE

#: Span name per wrapped entry point: ``(owner, attribute, layer)``.
LAYERS = (
    (campaign_mod, "generate_program", "generator"),
    (campaign_mod, "mutate_program", "feedback"),
    (campaign_mod, "shrink_program", "feedback"),
    (DifferentialOracle, "check_program", "oracle"),
    (Verifier, "verify", "verifier"),
    (Machine, "run", "interpreter"),
)
SELF_LAYERS = ("generator", "verifier", "oracle", "interpreter", "feedback", "campaign")


def campaign_seeds(seed: int):
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(32)


def run_specs(seed: int) -> List[CampaignSpec]:
    """The campaigns one run cycles through."""
    return [
        CampaignSpec(budget=BUDGET, seed=s)
        for s in itertools.islice(campaign_seeds(seed), SEEDS_PER_RUN)
    ]


def warm_up(seed: int) -> None:
    run_precision_campaign(
        CampaignSpec(budget=WARMUP_BUDGET, seed=(seed ^ _WARMUP_MIX) & 0xFFFFFFFF)
    )


def _run_one(spec: CampaignSpec, outcome: Outcome, tracer: Optional[Tracer] = None) -> float:
    # Campaigns allocate heavily: collect first, so one campaign's
    # garbage is not billed to the next.
    gc.collect()
    t0 = time.perf_counter()
    if tracer is None:
        result = run_precision_campaign(spec)
    else:
        with tracer.span("campaign"):
            result = run_precision_campaign(spec)
    elapsed = time.perf_counter() - t0
    stats = result.stats
    outcome.attempted += spec.budget
    lost = max(0, spec.budget - stats.executed)
    outcome.failed += stats.violations + stats.quarantined + lost
    if stats.violations or result.quarantined or lost:
        outcome.problems.append(
            f"campaign seed {spec.seed}: {stats.violations} violations, "
            f"{len(result.quarantined)} quarantined batches, "
            f"{stats.executed}/{spec.budget} executed"
        )
    return elapsed


def _traced(spec: CampaignSpec, tracer: Tracer, counts: Dict[str, int], outcome: Outcome) -> float:
    def note_verdict(report) -> None:
        counts["checks"] += 1
        counts["accepted"] += report.verdict == "accepted"

    undo = [
        tracer.wrap(owner, attr, layer,
                    on_result=note_verdict if layer == "oracle" else None)
        for owner, attr, layer in LAYERS
    ]
    try:
        return _run_one(spec, outcome, tracer)
    finally:
        for restore in reversed(undo):
            restore()


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome(attempted=0)
    pin_to_one_cpu()
    warm_up(seed)
    specs = run_specs(seed)
    walls: List[List[float]] = [[] for _ in specs]    # wall times per campaign
    scaled: List[List[float]] = [[] for _ in specs]   # the same at reference speed
    pairs: List[Tuple[float, float]] = []             # (traced, plain), traced runs
    tracer = Tracer()
    counts = {"checks": 0, "accepted": 0}
    setups: List[float] = []
    done = 0
    for deadline in segments(seconds, lambda: probe_setup("campaign", seed), setups):
        while time.perf_counter() < deadline:
            k = done % len(specs)
            spec = specs[k]
            done += 1
            if not trace:
                before = slowdown()
                wall = _run_one(spec, outcome)
                walls[k].append(wall)
                scaled[k].append(wall / ((before + slowdown()) / 2))
                continue
            # Alternate the order so neither side always runs on warmer caches.
            if len(pairs) % 2 == 0:
                p = _run_one(spec, outcome)
                t = _traced(spec, tracer, counts, outcome)
            else:
                t = _traced(spec, tracer, counts, outcome)
                p = _run_one(spec, outcome)
            pairs.append((t, p))

    if not trace:
        # Each campaign's median repeat at reference speed (see
        # harness.slowdown), then the mean over campaigns.
        per_seed = [statistics.median(times) for times in scaled if times]
        outcome.notes.append(
            f"campaign: {done} campaigns of {BUDGET} programs over "
            f"{len(per_seed)} seeds; per seed, fastest wall time "
            + ", ".join(f"{min(times):.3f}s" for times in walls if times)
            + "; median at reference speed "
            + ", ".join(f"{t:.3f}s" for t in per_seed)
        )
        outcome.notes.append(setup_note(setups))
        latency_s = statistics.fmean(per_seed)
        outcome.metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": BUDGET / latency_s,
            "latency_ms": latency_s * 1e3,
            "peak_rss_mb": peak_rss_mb(),
        }
        return outcome

    traced = [t for t, _ in pairs]
    outcome.metrics = layer_metrics(tracer, counts, pairs)
    _check_self_sum(outcome, sum(traced), len(traced))
    tracer.dump(trace_path("campaign", seed))
    return outcome


def layer_metrics(
    tracer: Tracer, counts: Dict[str, int], pairs: List[Tuple[float, float]]
) -> Dict[str, float]:
    n = len(pairs)
    own = self_by_name(tracer.spans)
    calls: Dict[str, int] = {}
    for s in tracer.spans:
        calls[s.name] = calls.get(s.name, 0) + 1
    metrics = {f"{layer}.self_s": own.get(layer, 0) / 1e9 / n for layer in SELF_LAYERS}
    metrics["verifier.calls_per_program"] = calls.get("verifier", 0) / (n * BUDGET)
    metrics["interpreter.runs"] = calls.get("interpreter", 0) / n
    metrics["oracle.accept_ratio"] = counts["accepted"] / max(1, counts["checks"])
    # Each pair runs back to back, so mostly in the same machine state.
    metrics["trace.overhead_frac"] = statistics.median(t / p for t, p in pairs) - 1.0
    return metrics


def _check_self_sum(outcome: Outcome, wall_s: float, n: int) -> None:
    """Layer self times must add up to the traced campaigns' wall time."""
    total = sum(outcome.metrics[f"{layer}.self_s"] for layer in SELF_LAYERS) * n
    gap = abs(total - wall_s) / wall_s
    outcome.notes.append(
        f"campaign trace: layer self times sum to {total:.3f}s of "
        f"{wall_s:.3f}s wall ({100 * gap:.2f}% apart)"
    )
    if gap > 0.02:
        outcome.problems.append("campaign layer self times do not add up to wall time")
