"""Fuzz campaign driver: budgeted, parallel, deterministic.

A campaign fuzzes ``budget`` programs.  Program ``i`` is produced from an
RNG stream derived from ``(campaign_seed, i)`` — *not* from worker-local
state — so results are bit-identical regardless of worker count or
scheduling.  Workers (``multiprocessing.Pool``) each handle a slice of
indices; with ``workers=1`` everything runs inline, which keeps
monkeypatched oracles (used by tests to inject transfer-function bugs)
effective and makes single-process debugging trivial.

Violations are shrunk in the parent with the delta-debugging minimizer,
using the same input seeds that exposed them, and recorded into the
corpus alongside the original program.  The driver reports throughput
(programs/sec) — the fuzzing analogue of the paper's "fast" requirement:
a slow oracle caps how much of the program space a campaign can cover.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import faults as _faults
from repro import obs as _obs
from repro.bpf.program import Program

from .corpus import Corpus
from .generator import PROFILES, generate_program
from .oracle import DifferentialOracle
from .resilience import (
    RetryPolicy,
    local_batch_size,
    run_leased_batches,
    slice_batches,
)
from .shrink import shrink_program

__all__ = [
    "CampaignConfig",
    "CampaignStats",
    "CampaignResult",
    "run_campaign",
    "program_seed",
    "shrink_violation",
]

U64 = (1 << 64) - 1

#: Odd multiplier decorrelating per-program RNG streams from the
#: campaign seed (splitmix64's increment).
_STREAM_MIX = 0x9E37_79B9_7F4A_7C15


def program_seed(campaign_seed: int, index: int) -> int:
    """Generator seed for program ``index`` of a campaign.

    Derived from ``(campaign_seed, index)`` only, never from worker-local
    state, so every campaign layer (plain driver, precision campaign)
    gets bit-identical streams regardless of worker count.
    """
    return (campaign_seed * _STREAM_MIX + index * 2_654_435_761 + 1) & U64


@dataclass(frozen=True)
class CampaignConfig:
    """Everything that determines a campaign's outcome."""

    budget: int = 1000
    seed: int = 0
    workers: int = 1
    profile: str = "mixed"
    max_insns: int = 32
    ctx_size: int = 64
    inputs_per_program: int = 8
    shrink: bool = True

    def __post_init__(self) -> None:
        if self.profile not in PROFILES:
            raise KeyError(
                f"unknown profile {self.profile!r}; "
                f"choose from {sorted(PROFILES)}"
            )
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.inputs_per_program < 1:
            raise ValueError("inputs_per_program must be >= 1")
        if self.ctx_size < 0:
            raise ValueError("ctx_size must be >= 0")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass
class CampaignStats:
    """Aggregate campaign counters."""

    budget: int = 0
    executed: int = 0
    accepted: int = 0
    rejected: int = 0
    rejected_clean: int = 0      # rejected but ran fine (imprecision signal)
    violations: int = 0
    containment_checks: int = 0
    elapsed_seconds: float = 0.0
    # Crash-recovery counters (multi-worker path only): lease retries
    # spent and batches lost to quarantine.
    retries: int = 0
    quarantined: int = 0

    @property
    def programs_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.executed / self.elapsed_seconds

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.executed if self.executed else 0.0

    def summary(self) -> str:
        lines = [
            f"programs  : {self.executed}/{self.budget}",
            f"accepted  : {self.accepted} "
            f"({100 * self.acceptance_rate:.1f}%)",
            f"rejected  : {self.rejected} "
            f"(clean replay: {self.rejected_clean})",
            f"checks    : {self.containment_checks} register containments",
            f"violations: {self.violations}",
        ]
        if self.retries or self.quarantined:
            # Only under chaos/real faults — the fault-free summary is
            # byte-stable for goldens.
            lines.append(
                f"resilience: {self.retries} batch retries, "
                f"{self.quarantined} quarantined"
            )
        lines.append(
            f"throughput: {self.programs_per_second:.1f} programs/sec "
            f"({self.elapsed_seconds:.2f}s)"
        )
        return "\n".join(lines)


@dataclass
class CampaignResult:
    """Stats plus every violation found (with shrunk witnesses)."""

    stats: CampaignStats
    corpus: Corpus = field(default_factory=Corpus)

    @property
    def ok(self) -> bool:
        return self.stats.violations == 0 and self.stats.quarantined == 0


#: Campaign config, installed once per worker (pool initializer or
#: inline) instead of pickled into every work item.
_worker_config: Optional[CampaignConfig] = None


def _set_worker_config(
    config: CampaignConfig,
    obs_state: Optional[Tuple[bool, int]] = None,
) -> None:
    global _worker_config
    _worker_config = config
    # Workers inherit the parent's obs switch (so their walks and
    # compiled closures instrument consistently) but no sinks — metrics
    # travel back on each result via the scoped registry.
    if obs_state is not None:
        _obs.init_worker(obs_state)


def _fuzz_index(index: int) -> Dict:
    """Fuzz one program index; returns a JSON-friendly summary.

    Top-level so it pickles for ``multiprocessing.Pool``; the config
    arrives via :func:`_set_worker_config`.
    """
    if _obs.enabled():
        # Merge-on-return: everything this item records (oracle
        # counters, per-op timings from instrumented closures) lands in
        # a private registry and ships back with the result.
        with _obs.scoped_registry() as registry:
            out = _fuzz_index_inner(index)
        out["obs"] = registry.to_dict()
        return out
    return _fuzz_index_inner(index)


def _fuzz_index_inner(index: int) -> Dict:
    config = _worker_config
    assert config is not None, "worker config not installed"
    seed = program_seed(config.seed, index)
    generated = generate_program(
        seed, config.profile, config.max_insns, config.ctx_size
    )
    oracle = DifferentialOracle(
        ctx_size=config.ctx_size,
        inputs_per_program=config.inputs_per_program,
    )
    report = oracle.check_program(generated.program, input_seed_base=seed)
    out: Dict = {
        "index": index,
        "seed": seed,
        "verdict": report.verdict,
        "checks": report.checks,
        "rejected_but_clean": report.rejected_but_clean,
        "violations": [asdict(v) for v in report.violations],
    }
    if report.violations:
        out["bytecode_hex"] = generated.program.to_bytes().hex()
    return out


def _fuzz_index_batch(
    indices: "Sequence[int]", attempt: int, inject: bool
) -> List[Dict]:
    """Lease-runner batch task (see :mod:`repro.fuzz.resilience`).

    The crash key includes the attempt, so an injected crash does not
    deterministically recur on retry; ``inject`` is False on the final
    attempt, which bounds injected chaos without masking real faults.
    """
    out: List[Dict] = []
    for index in indices:
        if inject and _faults.enabled():
            _faults.crash_point("campaign.worker.crash", (index, attempt))
        out.append(_fuzz_index(index))
    return out


def shrink_violation(
    config, bytecode_hex: str, input_seed_base: int
) -> Optional[Program]:
    """Minimize a failing program against the oracle that caught it.

    ``config`` needs only ``ctx_size`` and ``inputs_per_program``, so both
    the plain :class:`CampaignConfig` and the precision campaign's spec
    work here.
    """
    program = Program.from_bytes(bytes.fromhex(bytecode_hex))
    oracle = DifferentialOracle(
        ctx_size=config.ctx_size,
        inputs_per_program=config.inputs_per_program,
    )

    def still_failing(candidate: Program) -> bool:
        return not oracle.check_program(
            candidate, input_seed_base=input_seed_base
        ).ok

    if not still_failing(program):  # non-reproducible; keep the original
        return None
    shrunk, _ = shrink_program(program, still_failing)
    return shrunk


def run_campaign(
    config: CampaignConfig,
    corpus: Optional[Corpus] = None,
    retry_policy: Optional[RetryPolicy] = None,
) -> CampaignResult:
    """Run one campaign to completion and return aggregated results.

    Multi-worker runs recover from worker crashes and hangs via leased
    batches with bounded retry (:mod:`repro.fuzz.resilience`); a batch
    that keeps failing is quarantined (counted on the stats) rather than
    hanging the campaign.
    """
    corpus = corpus if corpus is not None else Corpus()
    stats = CampaignStats(budget=config.budget)
    started = time.perf_counter()

    # Workers get the config once (initializer), work items are bare
    # indices — a budget-size stream of pickled configs was pure
    # serialization overhead.
    indices = range(config.budget)
    if config.workers > 1:
        ledger = run_leased_batches(
            slice_batches(
                indices, local_batch_size(len(indices), config.workers)
            ),
            _fuzz_index_batch,
            config.workers,
            initializer=_set_worker_config,
            initargs=(config, _obs.worker_init_state()),
            policy=retry_policy or RetryPolicy(),
        )
        results = ledger.results
        stats.retries = ledger.retries
        stats.quarantined = len(ledger.quarantined)
    else:
        _set_worker_config(config)
        results = [_fuzz_index(index) for index in indices]

    # Aggregate in index order so reports are stable across worker counts.
    results.sort(key=lambda r: r["index"])
    if _obs.enabled():
        registry = _obs.default_registry()
        for res in results:
            shard = res.pop("obs", None)
            if shard is not None:
                registry.merge_dict(shard)
    for res in results:
        stats.executed += 1
        stats.containment_checks += res["checks"]
        if res["verdict"] == "accepted":
            stats.accepted += 1
        else:
            stats.rejected += 1
            if res["rejected_but_clean"]:
                stats.rejected_clean += 1
        if res["violations"]:
            stats.violations += len(res["violations"])
            shrunk = (
                shrink_violation(config, res["bytecode_hex"], res["seed"])
                if config.shrink
                else None
            )
            corpus.add_violation(
                Program.from_bytes(bytes.fromhex(res["bytecode_hex"])),
                seed=res["seed"],
                profile=config.profile,
                violation=res["violations"][0],
                shrunk=shrunk,
                note=f"index {res['index']}",
            )

    stats.elapsed_seconds = time.perf_counter() - started
    _obs.publish_heartbeat({
        "phase": "fuzz",
        "budget": config.budget,
        "executed": stats.executed,
        "violations": stats.violations,
        "retries": stats.retries,
        "quarantined": stats.quarantined,
        "corpus_size": len(corpus),
        "elapsed_s": round(stats.elapsed_seconds, 3),
        "programs_per_s": round(stats.programs_per_second, 1),
    }, force=True)
    return CampaignResult(stats, corpus)
