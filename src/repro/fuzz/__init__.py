"""``repro.fuzz`` — differential fuzzing of whole BPF programs.

The rest of the repository validates *individual* tnum transfer
functions (SAT at small widths, exhaustive enumeration, randomized
spot-checks).  This package closes the loop at the *system* level: it
generates whole BPF programs, runs each one concretely on the
interpreter (the declared ground truth) across many random inputs, and
checks that every concrete register value is contained in the verifier's
abstract state at the same program point — end-to-end soundness of the
abstract interpretation, including the plumbing the per-operator checks
can't see (branch refinement, state joins, pointer offset tracking,
stack slot typing, 32-bit truncation).

Pipeline
--------
:mod:`~repro.fuzz.generator`
    Seeded, typed random program generator with tunable opcode-mix
    profiles (``mixed``, ``alu``, ``memory``, ``branchy``).  Programs
    are acyclic, structurally valid, and mostly verifier-acceptable.
:mod:`~repro.fuzz.oracle`
    The differential oracle: concrete-vs-abstract containment at every
    executed instruction plus accept/crash cross-checking.
:mod:`~repro.fuzz.shrink`
    Delta-debugging minimizer producing a small failing witness from any
    counterexample (jump offsets are retargeted across deletions).
:mod:`~repro.fuzz.corpus`
    JSON persistence for failures (original + shrunk bytecode) and
    mutation seeds; entries replay exactly via the wire format.
:mod:`~repro.fuzz.mutate`
    Mutation engine (splice, opcode tweak, constant nudge) turning
    corpus seeds back into fresh inputs.
:mod:`~repro.fuzz.campaign`
    The one campaign driver: budgeted, resumable multiprocessing runs
    with per-program RNG streams (deterministic for a given seed
    regardless of worker count) that attribute rejected-but-clean rates,
    γ-size histograms, and tightness deltas to individual transfer
    functions, and feed shrunk near-miss programs back in as mutation
    seeds.  Results merge into a deterministic
    :class:`~repro.eval.precision.PrecisionReport`.  ``repro fuzz`` runs
    its one-round, feedback-free form (:func:`~repro.fuzz.fuzz_spec`).
    A :class:`~repro.fuzz.campaign.CampaignRun` owns a campaign's
    cross-round state and round lifecycle for this driver and the
    distributed coordinator alike.
:mod:`~repro.fuzz.resilience`
    Crash recovery for multi-worker runs: the one lease ledger — per-batch
    leases with bounded retry and jittered backoff, lease timeouts
    (``RetryPolicy.lease_timeout_s``, the only timeout setting), and
    quarantine for batches that keep failing — plus the local runner
    that feeds it worker processes (see ``docs/resilience.md``).
:mod:`~repro.fuzz.dist`
    The same ledger across machines: a coordinator owns the campaign's
    ``CampaignRun`` (corpus and merged report included); stateless
    workers lease batches over HTTP.
    Idempotent ingest and crash-proof checkpoints keep the report
    byte-identical to a single-machine run (see
    ``docs/distributed.md``).  It loads on first use of
    ``Coordinator``, ``CoordinatorConfig`` or ``run_worker``, so
    importing the rest of the package loads no HTTP client code.

Quick start
-----------
>>> from repro.fuzz import fuzz_spec, run_precision_campaign
>>> result = run_precision_campaign(fuzz_spec(budget=100, seed=42))
>>> result.ok
True

Or from the command line::

    repro fuzz --budget 1000 --seed 42 --workers 4
    repro campaign --budget 1000 --rounds 4 --seed 42 --workers 4
"""

from .campaign import (
    CampaignSpec,
    CampaignStateError,
    PrecisionCampaignResult,
    PrecisionCampaignStats,
    fuzz_spec,
    program_seed,
    run_precision_campaign,
)
from .corpus import Corpus, CorpusEntry
from .generator import (
    INTERESTING_IMM64,
    INTERESTING_IMMS,
    PROFILES,
    GeneratedProgram,
    OpcodeProfile,
    ProgramGenerator,
    generate_program,
)
from .mutate import MUTATION_KINDS, mutate_program
from .oracle import DifferentialOracle, OracleReport, Violation
from .resilience import (
    LeaseLedger,
    RetryPolicy,
    run_leased_batches,
    slice_batches,
)
from .shrink import ShrinkStats, shrink_program

_DIST_NAMES = ("Coordinator", "CoordinatorConfig", "run_worker")


def __getattr__(name: str):
    # Lazy on purpose: repro.fuzz.dist loads urllib.request and
    # http.client, which a campaign on one machine never needs.
    if name in _DIST_NAMES:
        from . import dist
        return getattr(dist, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "PROFILES",
    "INTERESTING_IMMS",
    "INTERESTING_IMM64",
    "OpcodeProfile",
    "GeneratedProgram",
    "ProgramGenerator",
    "generate_program",
    "DifferentialOracle",
    "OracleReport",
    "Violation",
    "shrink_program",
    "ShrinkStats",
    "Corpus",
    "CorpusEntry",
    "program_seed",
    "MUTATION_KINDS",
    "mutate_program",
    "CampaignSpec",
    "CampaignStateError",
    "PrecisionCampaignStats",
    "PrecisionCampaignResult",
    "fuzz_spec",
    "run_precision_campaign",
    "RetryPolicy",
    "LeaseLedger",
    "run_leased_batches",
    "slice_batches",
    "Coordinator",
    "CoordinatorConfig",
    "run_worker",
]
