"""Precision-campaign throughput benchmarks.

The campaign layer must not tax the fuzzing loop: telemetry (the
``on_transfer`` hook plus concrete range tracking) rides along with the
containment checks every fuzzed program needs anyway, so campaign
throughput is required to stay within 10% of the bare oracle loop (one
generated program and one fresh oracle per index, nothing around them).
Seed shrinking and mutation are bounded per *round*, not per program,
and are reported separately — they buy coverage concentration, not raw
speed.
"""

from __future__ import annotations

import random
import time

from repro.fuzz import (
    CampaignSpec,
    DifferentialOracle,
    fuzz_spec,
    generate_program,
    mutate_program,
    program_seed,
    run_precision_campaign,
)
from repro.fuzz.campaign import TransferCollector

from .conftest import write_artifact

BUDGET = 300


def _best_seconds(fn, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def _bare_oracle_loop(budget: int = BUDGET, seed: int = 42) -> None:
    """The per-program work of a fuzz run with no campaign around it:
    generate program ``i`` and check it with a fresh oracle, with no
    telemetry, batches, results or merge."""
    spec = CampaignSpec()
    for index in range(budget):
        gen_seed = program_seed(seed, index)
        program = generate_program(
            gen_seed, spec.profile, spec.max_insns, spec.ctx_size
        ).program
        DifferentialOracle(
            ctx_size=spec.ctx_size,
            inputs_per_program=spec.inputs_per_program,
        ).check_program(program, input_seed_base=gen_seed)


def test_telemetry_oracle_single_program(benchmark):
    gp = generate_program(7)
    collector = TransferCollector()
    oracle = DifferentialOracle(
        inputs_per_program=8, on_transfer=collector.record,
        collect_ranges=True,
    )
    report = benchmark(oracle.check_program, gp.program, 7)
    assert report.ok


def test_mutation_throughput(benchmark):
    rng = random.Random(0)
    base = generate_program(1).program
    donor = generate_program(2).program

    mutant = benchmark(mutate_program, base, donor, rng)
    assert mutant.insns[-1].is_exit()


def test_campaign_end_to_end(benchmark):
    def campaign():
        return run_precision_campaign(fuzz_spec(budget=50, seed=42))

    result = benchmark.pedantic(campaign, rounds=3, iterations=1)
    assert result.ok


def test_campaign_throughput_vs_baseline(out_dir):
    """Acceptance: telemetry keeps >= 90% of the bare oracle loop's
    throughput."""
    baseline_s = _best_seconds(_bare_oracle_loop)
    telemetry_s = _best_seconds(
        lambda: run_precision_campaign(fuzz_spec(budget=BUDGET, seed=42))
    )
    feedback_s = _best_seconds(
        lambda: run_precision_campaign(
            CampaignSpec(budget=BUDGET, rounds=2, seed=42)
        )
    )
    baseline_ps = BUDGET / baseline_s
    telemetry_ps = BUDGET / telemetry_s
    feedback_ps = BUDGET / feedback_s
    ratio = telemetry_ps / baseline_ps

    lines = [
        f"Campaign throughput vs baseline (budget {BUDGET}, seed 42):",
        f"  bare oracle loop   : {baseline_ps:7.1f} programs/sec",
        f"  repro fuzz preset  : {telemetry_ps:7.1f} programs/sec "
        f"({100 * ratio:.1f}% of baseline)",
        f"  + mutation feedback: {feedback_ps:7.1f} programs/sec "
        f"(2 rounds, shrinking enabled)",
    ]
    write_artifact(out_dir, "campaign_throughput.txt", "\n".join(lines))
    assert ratio >= 0.9, (
        f"campaign telemetry dropped throughput to {100 * ratio:.1f}% "
        "of the bare oracle loop (>10% regression)"
    )
