"""Campaign-scale fuzzing with per-operator precision telemetry.

Every program a campaign fuzzes answers *is the verifier sound?*
through the differential oracle; the campaign also answers the paper's
second question — *is it precise?* — at whole-program scale.  A
precision campaign runs in rounds; every program is fuzzed through a
telemetry-carrying oracle that attributes three imprecision signals to
the transfer function that caused them (via the verifier's
``on_transfer`` hook and the interpreter's ``on_step`` replay
observations):

* **rejected-but-clean** events, attributed to the operator at the
  rejecting instruction;
* **γ-size histograms** — the abstract width of every scalar result an
  operator produced;
* **tightness deltas** — abstract-range bits minus the concrete-range
  bits actually observed across replays, the per-operator analogue of
  the paper's Figure-4 set-size ratios.

Between rounds the campaign feeds its own findings back in: shrunk
rejected-but-clean programs and large-tightness near-misses become
*mutation seeds* (:mod:`repro.fuzz.mutate`), so later rounds concentrate
on the imprecision frontier earlier rounds discovered.

``repro fuzz`` is the one-round campaign with that feedback off
(:func:`fuzz_spec`): plain differential fuzzing of freshly generated
programs, telemetry riding along.

Determinism and resumability
----------------------------
Program ``index`` fuzzes a stream derived from ``(campaign_seed,
index)`` only; worker shards are merged in index order; every telemetry
counter is an integer.  The merged :class:`PrecisionReport` therefore
serializes byte-identically for 1, 2, or N workers.  No verdict is
cached between programs or runs: every program gets the live abstract
walk and its own concrete replays.  With a ``state_dir`` the campaign
checkpoints after every round (spec, pool, stats, report, corpus) and a
rerun resumes where it stopped.

One :class:`CampaignRun` owns that cross-round state and the round
lifecycle — resume, round indices, quarantine, and the round end's
merge, checkpoint and heartbeat.  :func:`run_precision_campaign` drives
one on this machine (each round inline or on leased worker processes),
and the distributed coordinator (:mod:`repro.fuzz.dist`) drives one
over HTTP, so the two write the same report and corpus, and the same
checkpoint up to its timing and retry counters.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import faults as _faults
from repro import obs as _obs
from repro.bpf import isa
from repro.bpf.program import Program
from repro.bpf.verifier.absint import step_label
from repro.eval.precision import PrecisionReport

from .corpus import Corpus
from .generator import PROFILES, generate_program
from .mutate import mutate_program
from .oracle import DifferentialOracle
from .resilience import (
    Batch,
    RetryPolicy,
    local_batch_size,
    run_leased_batches,
    slice_batches,
)
from .shrink import shrink_program

__all__ = [
    "CampaignRun",
    "CampaignSpec",
    "CampaignStateError",
    "PrecisionCampaignStats",
    "PrecisionCampaignResult",
    "TransferCollector",
    "fuzz_spec",
    "program_seed",
    "run_precision_campaign",
    "shrink_violation",
]


class CampaignStateError(ValueError):
    """A --state directory cannot be resumed (wrong format or spec)."""

U64 = (1 << 64) - 1

#: Odd multiplier decorrelating per-program RNG streams from the
#: campaign seed (splitmix64's increment).
_STREAM_MIX = 0x9E37_79B9_7F4A_7C15

#: Decorrelates the mutation-decision RNG from the generator stream.
_MUTATE_MIX = 0xD1B5_4A32_D192_ED03

#: Context loads draw offsets in ``[0, ctx_size - 1]`` and instruction
#: offsets are signed 16-bit, so a larger context cannot be generated.
_MAX_GENERATED_CTX_SIZE = 1 << 15

#: The generator's instruction budget is soft: a branch arm's early exit
#: can overrun it by one slot, nested arms double the overrun of the
#: level below (three levels: 1 + 2 + 4) and a closing ``mov r0`` adds
#: one more, so a generated program may hold ``max_insns + 8``
#: instructions, and a program may hold at most ``isa.MAX_INSNS``.
_MAX_GENERATED_INSNS = isa.MAX_INSNS - 8


def program_seed(campaign_seed: int, index: int) -> int:
    """Generator seed for program ``index`` of a campaign.

    Derived from ``(campaign_seed, index)`` only, never from worker-local
    state, so every worker count, transport and resume gets bit-identical
    streams.
    """
    return (campaign_seed * _STREAM_MIX + index * 2_654_435_761 + 1) & U64


_STATE_FORMAT_VERSION = 1
_STATE_FILE = "state.json"
_CORPUS_FILE = "corpus.json"


@dataclass(frozen=True)
class CampaignSpec:
    """Everything that determines a precision campaign's outcome."""

    budget: int = 400               # programs across all rounds
    rounds: int = 2
    seed: int = 0
    workers: int = 1
    profile: str = "mixed"
    max_insns: int = 32
    ctx_size: int = 64
    inputs_per_program: int = 8
    #: probability a post-round-0 program mutates a pool seed instead of
    #: being generated fresh
    mutate_fraction: float = 0.5
    pool_limit: int = 64            # mutation seeds kept (newest win)
    seeds_per_round: int = 8        # pool admissions per round
    seed_shrink_per_round: int = 4  # rejected-clean seeds shrunk per round
    #: tightness delta (bits) an accepted program must show to enter the
    #: pool as a near-miss seed
    tightness_seed_threshold: int = 16
    shrink: bool = True             # minimize soundness violations
    #: replay step budget — mutants can contain (verifier-rejected)
    #: loops, so replays must be bounded; fresh programs are acyclic and
    #: at most ``isa.MAX_INSNS`` long, so it never binds on them
    step_limit: int = 4096

    def __post_init__(self) -> None:
        if self.profile not in PROFILES:
            raise KeyError(
                f"unknown profile {self.profile!r}; "
                f"choose from {sorted(PROFILES)}"
            )
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.inputs_per_program < 1:
            raise ValueError("inputs_per_program must be >= 1")
        if self.ctx_size < 0:
            raise ValueError("ctx_size must be >= 0")
        if self.ctx_size > _MAX_GENERATED_CTX_SIZE:
            raise ValueError(
                f"ctx_size must be <= {_MAX_GENERATED_CTX_SIZE}"
            )
        if self.max_insns > _MAX_GENERATED_INSNS:
            raise ValueError(f"max_insns must be <= {_MAX_GENERATED_INSNS}")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if not 0.0 <= self.mutate_fraction <= 1.0:
            raise ValueError("mutate_fraction must be within [0, 1]")


@dataclass
class PrecisionCampaignStats:
    """Aggregate campaign counters (timing included, so not diffable —
    determinism lives in the :class:`PrecisionReport`)."""

    budget: int = 0
    executed: int = 0
    accepted: int = 0
    rejected: int = 0
    rejected_clean: int = 0
    violations: int = 0
    containment_checks: int = 0
    mutants: int = 0
    seeds_pooled: int = 0
    rounds_completed: int = 0
    elapsed_seconds: float = 0.0
    # Crash-recovery counters (defaults keep pre-resilience checkpoints
    # loadable): lease retries spent and batches lost to quarantine.
    retries: int = 0
    quarantined: int = 0

    @property
    def programs_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.executed / self.elapsed_seconds

    def summary(self) -> str:
        lines = [
            f"programs  : {self.executed}/{self.budget} "
            f"({self.rounds_completed} rounds, {self.mutants} mutants)",
            f"accepted  : {self.accepted}",
            f"rejected  : {self.rejected} "
            f"(clean replay: {self.rejected_clean})",
            f"checks    : {self.containment_checks} register containments",
            f"seed pool : {self.seeds_pooled} mutation seeds admitted",
            f"violations: {self.violations}",
        ]
        if self.retries or self.quarantined:
            # Only under chaos/real faults — the fault-free summary is
            # byte-stable for goldens.
            lines.append(
                f"resilience: {self.retries} batch retries, "
                f"{self.quarantined} quarantined"
            )
        lines += [
            f"throughput: {self.programs_per_second:.1f} programs/sec "
            f"({self.elapsed_seconds:.2f}s)",
        ]
        return "\n".join(lines)


@dataclass
class PrecisionCampaignResult:
    """Stats, corpus, merged telemetry, and the final mutation pool."""

    stats: PrecisionCampaignStats
    corpus: Corpus
    report: PrecisionReport
    pool: List[str] = field(default_factory=list)   # bytecode hex
    #: poison-batch payloads (see :meth:`CampaignRun.quarantine`) — also
    #: written under ``<state_dir>/poison/`` when the campaign has a
    #: state directory.
    quarantined: List[Dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.stats.violations == 0 and not self.quarantined


def fuzz_spec(**fields) -> CampaignSpec:
    """The campaign ``repro fuzz`` runs: one round of freshly generated
    programs with no mutation and no seed admission, so it fuzzes
    program ``i`` from ``program_seed(seed, i)`` for every ``i`` below
    the budget.  ``fields`` are any other :class:`CampaignSpec` fields.
    """
    return CampaignSpec(
        rounds=1, mutate_fraction=0.0, seeds_per_round=0,
        seed_shrink_per_round=0, **fields,
    )


def _op_entry() -> Dict:
    """A worker-side per-operator record: the counters of
    :class:`~repro.eval.precision.OperatorStats`, keyed by field name,
    as they cross the process boundary and the dist wire."""
    return {
        "occurrences": 0, "gamma_hist": {},
        "tightness_sum": 0, "tightness_count": 0, "tightness_max": 0,
        "rejections": 0, "rejected_clean": 0,
    }


class TransferCollector:
    """Gathers per-operator telemetry during one program's verification.

    ``ops`` maps operator labels to :func:`_op_entry` records and
    accumulates their γ-size histograms; the programs of a campaign
    batch share one map.  ``at`` remembers, per instruction index, the
    label and abstract interval of the scalar result produced there, for
    the tightness comparison against the concrete ranges the replay
    observes.
    """

    def __init__(self, ops: Optional[Dict[str, Dict]] = None) -> None:
        self.ops: Dict[str, Dict] = {} if ops is None else ops
        self.at: Dict[int, Tuple[str, int, int]] = {}

    def record(self, idx: int, label: str, scalar) -> None:
        entry = self.ops.get(label)
        if entry is None:
            entry = self.ops[label] = _op_entry()
        entry["occurrences"] += 1
        hist = entry["gamma_hist"]
        # ScalarValue.gamma_bits, reading each field once.
        tnum = scalar.tnum
        umin = scalar.interval.umin
        umax = scalar.interval.umax
        if tnum.value & tnum.mask or umin > umax:   # bottom
            hist[0] = hist.get(0, 0) + 1
            return
        bits = min(bin(tnum.mask).count("1"), (umax - umin).bit_length())
        hist[bits] = hist.get(bits, 0) + 1
        if not label.startswith("refine_"):
            self._note_at(idx, label, umin, umax)

    def record_at(self, idx: int, label: str, scalar) -> None:
        """:meth:`record` for ``at`` alone, with the same skips: the
        near-miss predicate reads nothing else."""
        if label.startswith("refine_"):
            return
        tnum = scalar.tnum
        umin = scalar.interval.umin
        umax = scalar.interval.umax
        if not (tnum.value & tnum.mask or umin > umax):   # not bottom
            self._note_at(idx, label, umin, umax)

    def _note_at(self, idx: int, label: str, umin: int, umax: int) -> None:
        prev = self.at.get(idx)
        if prev is None:
            self.at[idx] = (label, umin, umax)
        elif umin < prev[1] or umax > prev[2]:
            # An index always carries the same label (it depends only
            # on the opcode), so only a wider span needs a new entry.
            self.at[idx] = (label, min(prev[1], umin), max(prev[2], umax))


#: Per-round worker state — the campaign spec and the mutation-seed
#: pool — installed once per worker (fork/spawn initializer or inline)
#: instead of pickled per work item.
_worker_spec: Optional[CampaignSpec] = None
_worker_pool: Tuple[str, ...] = ()
#: Pool programs decoded lazily, at most once per worker per round: many
#: work items mutate the same base seed, and a decoded ``Program``
#: carries its cached compiled form (for concrete replay) with it.
_worker_pool_programs: Dict[int, Program] = {}


def _set_worker_state(
    spec: CampaignSpec,
    pool: Tuple[str, ...],
    obs_state: Optional[bool] = None,
) -> None:
    global _worker_spec, _worker_pool, _worker_pool_programs
    _worker_spec = spec
    _worker_pool = pool
    _worker_pool_programs = {}
    # Workers inherit the parent's obs switch (walks and runs must time
    # consistently) but no sinks — metrics return with each result via
    # the scoped registry.
    if obs_state is not None:
        _obs.init_worker(obs_state)


def _pool_program(index: int) -> Program:
    program = _worker_pool_programs.get(index)
    if program is None:
        program = _worker_pool_programs[index] = Program.from_bytes(
            bytes.fromhex(_worker_pool[index])
        )
    return program


def _telemetry_oracle(
    spec: CampaignSpec, collector: Optional[TransferCollector]
):
    return DifferentialOracle(
        ctx_size=spec.ctx_size,
        inputs_per_program=spec.inputs_per_program,
        on_transfer=collector.record if collector is not None else None,
        collect_ranges=True,
        step_limit=spec.step_limit,
    )


def _iter_tightness(collector: TransferCollector, report):
    """Yield ``(label, delta)`` tightness observations for one program,
    in no particular order: every consumer sums, counts, takes a max or
    tests ``any``."""
    at = collector.at
    for idx, span in report.concrete_ranges.items():
        recorded = at.get(idx)
        if recorded is None:
            continue  # pointer result or untracked op
        label, umin, umax = recorded
        abstract_bits = (umax - umin).bit_length()
        observed_bits = (span[1] - span[0]).bit_length()
        yield label, max(0, abstract_bits - observed_bits)


def _program_for_index(
    spec: CampaignSpec,
    pool: Tuple[str, ...],
    index: int,
    get_pool_program: Callable[[int], Program],
) -> Tuple[int, str, Program]:
    """Regenerate the exact program campaign ``index`` fuzzes.

    Pure function of ``(spec, pool, index)`` — shared by the worker-side
    fuzz path and the parent-side poison-batch writer, so a quarantined
    batch's artifact names precisely the programs the round lost.
    ``get_pool_program(i)`` returns pool entry ``i`` decoded; each
    caller passes its own decode cache.
    """
    seed = program_seed(spec.seed, index)
    generated = generate_program(
        seed, spec.profile, spec.max_insns, spec.ctx_size
    )
    program = generated.program
    origin = "fresh"
    if pool:
        mut_rng = random.Random(seed ^ _MUTATE_MIX)
        if mut_rng.random() < spec.mutate_fraction:
            base = get_pool_program(mut_rng.randrange(len(pool)))
            program = mutate_program(
                base, donor=generated.program, rng=mut_rng,
                max_insns=spec.max_insns,
            )
            origin = "mutant"
    return seed, origin, program


def _fuzz_one(index: int, ops: Dict[str, Dict]) -> Dict:
    """Fuzz one campaign index with telemetry; JSON-friendly result.

    The spec and mutation pool arrive via :func:`_set_worker_state`;
    the per-operator telemetry goes into ``ops``, the batch's map.
    """
    if _obs.enabled():
        # Merge-on-return: oracle counters and per-op verifier timings
        # recorded by this item ship back with the result, leaving the
        # deterministic telemetry payload untouched.
        with _obs.scoped_registry() as registry:
            out = _fuzz_one_inner(index, ops)
        out["obs"] = registry.to_dict()
        return out
    return _fuzz_one_inner(index, ops)


def _fuzz_batch(
    indices: "Sequence[int]", attempt: int, inject: bool
) -> List[Dict]:
    """Lease-runner batch task: fuzz each index, with crash injection.

    Top-level so it pickles across the process boundary.  The batch's
    programs record their telemetry into one per-operator map, which the
    first result carries (the others carry ``{}``): every value in it
    is a sum or a maximum, so the merged report does not depend on which
    program a count came from, and a round holds one map per batch
    instead of one per program.

    The crash key includes the attempt number, so an injected crash does
    not deterministically recur on retry; ``inject`` is False on the
    final attempt (:class:`RetryPolicy.fault_free_final_attempt`), which
    bounds injected chaos without masking real faults.
    """
    ops: Dict[str, Dict] = {}
    out: List[Dict] = []
    for index in indices:
        if inject and _faults.enabled():
            _faults.crash_point("campaign.worker.crash", (index, attempt))
        out.append(_fuzz_one(index, ops))
    if out:
        out[0]["ops"] = ops
    return out


def _fuzz_one_inner(index: int, ops: Dict[str, Dict]) -> Dict:
    spec = _worker_spec
    assert spec is not None, "worker spec not installed"
    pool = _worker_pool
    seed, origin, program = _program_for_index(
        spec, pool, index, get_pool_program=_pool_program
    )

    collector = TransferCollector(ops)
    oracle = _telemetry_oracle(spec, collector)
    report = oracle.check_program(program, input_seed_base=seed)

    near_miss = False
    for label, delta in _iter_tightness(collector, report):
        entry = ops[label]
        entry["tightness_sum"] += delta
        entry["tightness_count"] += 1
        if delta > entry["tightness_max"]:
            entry["tightness_max"] = delta
        if delta >= spec.tightness_seed_threshold:
            near_miss = True

    reject_label: Optional[str] = None
    if report.verdict == "rejected":
        # reject_pc is None for whole-program CFG rejections (mutants
        # with loops or dead code) — a policy rejection the oracle
        # already refuses to count as a clean false positive.  The label
        # is the obs layer's per-operator timer name, so precision and
        # cost attribution rank over the same label space.
        reject_label = (
            step_label(program.insns[report.reject_pc])
            if report.reject_pc is not None
            else "cfg"
        )
        entry = ops.get(reject_label)
        if entry is None:
            entry = ops[reject_label] = _op_entry()
        entry["rejections"] += 1
        if report.rejected_but_clean:
            entry["rejected_clean"] += 1

    out: Dict = {
        "index": index,
        "seed": seed,
        "origin": origin,
        "verdict": report.verdict,
        "checks": report.checks,
        "rejected_but_clean": bool(report.rejected_but_clean),
        "reject_label": reject_label,
        # A violating program is a soundness witness, not an imprecision
        # one — it must not enter the mutation pool as a near-miss.
        "near_miss": (
            near_miss
            and report.verdict == "accepted"
            and not report.violations
        ),
        "violations": [asdict(v) for v in report.violations],
        # The batch's map rides on its first result (see _fuzz_batch).
        "ops": {},
    }
    # The merge reads the hex to shrink a violation, and to admit a
    # mutation seed only when the spec admits any.
    if report.violations or (
        spec.seeds_per_round > 0
        and (out["rejected_but_clean"] or out["near_miss"])
    ):
        out["bytecode_hex"] = program.to_bytes().hex()
    return out


def _merge_result(report: PrecisionReport, res: Dict) -> None:
    """Fold one worker result into the report (index order = stable)."""
    report.programs += 1
    if res["verdict"] == "accepted":
        report.accepted += 1
    else:
        report.rejected += 1
        if res["rejected_but_clean"]:
            report.rejected_clean += 1
    if res["origin"] == "mutant":
        report.mutants += 1
    report.violations += len(res["violations"])
    for label, entry in res["ops"].items():
        report.operator(label).merge_counts(entry)


def shrink_violation(
    spec: CampaignSpec, bytecode_hex: str, input_seed_base: int
) -> Optional[Program]:
    """Minimize a failing program against the oracle that caught it;
    None when the failure does not reproduce."""
    program = Program.from_bytes(bytes.fromhex(bytecode_hex))
    oracle = DifferentialOracle(
        ctx_size=spec.ctx_size,
        inputs_per_program=spec.inputs_per_program,
    )

    def still_failing(candidate: Program) -> bool:
        return not oracle.check_program(
            candidate, input_seed_base=input_seed_base
        ).ok

    if not still_failing(program):  # non-reproducible; keep the original
        return None
    shrunk, _ = shrink_program(program, still_failing)
    return shrunk


def _still_rejected_clean(
    spec: CampaignSpec,
    oracle: DifferentialOracle,
    program: Program,
    input_seed_base: int,
) -> bool:
    rep = oracle.check_program(program, input_seed_base=input_seed_base)
    # reject_pc is None for structural (CFG) rejections — shrinking must
    # not drift an imprecision witness into a dead-code witness.
    return (
        rep.verdict == "rejected"
        and bool(rep.rejected_but_clean)
        and rep.reject_pc is not None
    )


def _still_near_miss(
    spec: CampaignSpec,
    oracle: DifferentialOracle,
    program: Program,
    input_seed_base: int,
) -> bool:
    collector = TransferCollector()
    oracle.on_transfer = collector.record_at
    threshold = spec.tightness_seed_threshold

    def may_reach_threshold(result) -> bool:
        # A tightness delta never exceeds its abstract range's bits, so
        # when no recorded result is that wide the walk alone answers.
        return result.ok and any(
            (umax - umin).bit_length() >= threshold
            for _, umin, umax in collector.at.values()
        )

    rep = oracle.check_program(
        program, input_seed_base=input_seed_base,
        replay_if=may_reach_threshold,
    )
    if rep.verdict != "accepted" or rep.violations:
        return False
    return any(
        delta >= threshold for _, delta in _iter_tightness(collector, rep)
    )


def _shrink_seed(
    spec: CampaignSpec, program: Program, input_seed_base: int, kind: str
) -> Program:
    """Minimize a mutation-seed candidate while it keeps its property:
    still rejected-but-clean, or still showing a near-miss tightness
    delta.  One oracle (and verifier) serves every candidate; the
    near-miss predicate points its telemetry hook at a fresh collector
    per candidate."""
    if kind == "rejected-clean":
        predicate = _still_rejected_clean
        oracle = DifferentialOracle(
            ctx_size=spec.ctx_size,
            inputs_per_program=spec.inputs_per_program,
            step_limit=spec.step_limit,
        )
    else:
        predicate = _still_near_miss
        oracle = _telemetry_oracle(spec, None)
    shrunk, _ = shrink_program(
        program,
        lambda p: predicate(spec, oracle, p, input_seed_base),
        max_candidates=150,
    )
    return shrunk


# -- the campaign's cross-round state -------------------------------------------


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    if _faults.enabled() and _faults.fire("campaign.checkpoint.torn"):
        # Chaos: die after the temp write, before the rename — the
        # window a non-atomic writer would corrupt.  The previous
        # complete checkpoint must survive untouched.
        tmp.write_text(text[: len(text) // 2])
        return
    tmp.write_text(text)
    os.replace(tmp, path)


class CampaignRun:
    """One campaign's cross-round state and round lifecycle.

    Owns everything that outlives a round — spec, stats, merged report,
    mutation pool, corpus, quarantined payloads and state directory —
    and the steps around each round: :meth:`indices` names its
    programs, :meth:`quarantine` records the batches it lost, and
    :meth:`end_round` merges, checkpoints and publishes a heartbeat.
    :func:`run_precision_campaign` and the distributed
    :class:`~repro.fuzz.dist.Coordinator` each drive one, so both merge,
    checkpoint and report alike; they differ only in how a round's
    programs get fuzzed.

    With ``state_dir`` the run resumes from its checkpoint when there is
    one; the checkpointed corpus then wins over ``corpus``, which would
    drop entries the resumed report already counts.  An unusable
    directory or another spec's checkpoint raises
    :class:`CampaignStateError` here, before any fuzzing.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        state_dir: Optional["str | Path"] = None,
        corpus: Optional[Corpus] = None,
    ) -> None:
        self.spec = spec
        self.state_path = None if state_dir is None else Path(state_dir)
        loaded = None
        if self.state_path is not None:
            try:
                self.state_path.mkdir(parents=True, exist_ok=True)
            except (FileExistsError, NotADirectoryError) as exc:
                raise CampaignStateError(
                    f"state path {self.state_path} is not usable as a "
                    f"directory: {exc}"
                ) from exc
            loaded = self._load()
        if loaded is None:
            self.stats = PrecisionCampaignStats(budget=spec.budget)
            self.report = PrecisionReport()
            self.pool: List[str] = []
            self.corpus = corpus if corpus is not None else Corpus()
        else:
            self.stats, self.report, self.pool, self.corpus = loaded
        #: poison-batch payloads (see :meth:`quarantine`)
        self.quarantined: List[Dict] = []
        self._started = time.perf_counter()

    @property
    def round(self) -> int:
        """The round in progress: how many rounds have merged."""
        return self.stats.rounds_completed

    @property
    def finished(self) -> bool:
        return self.stats.rounds_completed >= self.spec.rounds

    def indices(self) -> range:
        """The campaign indices of the round in progress: the budget in
        ``rounds`` consecutive runs, the first ``budget % rounds`` of
        them one program longer."""
        per, extra = divmod(self.spec.budget, self.spec.rounds)
        rnd = self.round
        start = rnd * per + min(rnd, extra)
        return range(start, start + per + (1 if rnd < extra else 0))

    def quarantine(self, batches: Sequence[Batch], write: bool = True) -> None:
        """Count and record the round's quarantined ledger rows.

        Each row becomes a payload carrying its attempt count, failure
        fingerprints *and* the regenerated programs the round lost —
        everything needed to replay the batch in isolation (the fuzz
        stream is a pure function of ``(spec, pool, index)``).  With
        ``write`` and a state directory it is also written to one JSON
        file under ``<state_dir>/poison/``; a resume re-counting a
        quarantine whose file exists passes ``write=False``.
        """
        self.stats.quarantined += len(batches)
        pool = tuple(self.pool)
        pool_programs: Dict[int, Program] = {}

        def get_pool_program(i: int) -> Program:
            program = pool_programs.get(i)
            if program is None:
                program = pool_programs[i] = Program.from_bytes(
                    bytes.fromhex(pool[i])
                )
            return program

        for batch in batches:
            programs = []
            for index in batch.indices:
                seed, origin, program = _program_for_index(
                    self.spec, pool, index, get_pool_program=get_pool_program
                )
                programs.append({
                    "index": index,
                    "seed": seed,
                    "origin": origin,
                    "bytecode_hex": program.to_bytes().hex(),
                })
            payload = {
                "batch_id": batch.batch_id,
                "indices": list(batch.indices),
                "attempts": batch.attempt,
                "fingerprints": list(batch.failures),
                "round": self.round,
                "programs": programs,
                "fault_plan": _faults.worker_init_state(),
            }
            self.quarantined.append(payload)
            if write and self.state_path is not None:
                poison_dir = self.state_path / "poison"
                poison_dir.mkdir(parents=True, exist_ok=True)
                # The attempt-count suffix (plus a collision bump) keeps a
                # resume that re-quarantines the same batch from silently
                # overwriting the earlier artifact — each quarantine event
                # leaves its own file.
                stem = (
                    f"round-{self.round:03d}-batch-{batch.batch_id:03d}"
                    f"-a{batch.attempt:02d}"
                )
                path = poison_dir / f"{stem}.json"
                bump = 1
                while path.exists():
                    bump += 1
                    path = poison_dir / f"{stem}.{bump}.json"
                _atomic_write(
                    path,
                    json.dumps(payload, indent=2, sort_keys=True) + "\n",
                )

    def end_round(
        self, results: List[Dict], phase: str, **live: object
    ) -> None:
        """Close the round in progress with its ``results``.

        Merges them, advances the round, adds the round's wall time,
        checkpoints to the state directory, and publishes one heartbeat:
        ``phase``, the campaign's counters and ``live`` (what only the
        driver knows, such as its worker count).

        This is the campaign's determinism core: results sort on their
        campaign index, the report merges in that order, and
        mutation-seed admission follows index order too — so the merged
        :class:`PrecisionReport`, the next round's pool and the corpus
        are byte-identical for any worker count, transport (in-process
        pipes or HTTP), or kill schedule.  Results may have round-tripped
        through JSON (the dist wire format and the coordinator's round
        checkpoint both do): every field this reads is JSON-stable.
        """
        spec, stats, report = self.spec, self.stats, self.report
        pool, corpus = self.pool, self.corpus
        results.sort(key=lambda r: r["index"])
        if _obs.enabled():
            registry = _obs.default_registry()
            for res in results:
                shard = res.pop("obs", None)
                if shard is not None:
                    registry.merge_dict(shard)

        for res in results:
            stats.containment_checks += res["checks"]
            _merge_result(report, res)
            if res["violations"]:
                program = Program.from_bytes(
                    bytes.fromhex(res["bytecode_hex"])
                )
                shrunk = (
                    shrink_violation(spec, res["bytecode_hex"], res["seed"])
                    if spec.shrink
                    else None
                )
                corpus.add_violation(
                    program,
                    seed=res["seed"],
                    profile=spec.profile,
                    violation=res["violations"][0],
                    shrunk=shrunk,
                    note=f"index {res['index']} ({res['origin']})",
                )

        # Mutation-seed admission: shrunk rejected-but-clean programs
        # first, then shrunk near-miss accepted programs, at most
        # ``seeds_per_round`` in total, newest kept on overflow.  All
        # choices follow index order, so the pool is identical whatever
        # the worker count.
        pool_set = set(pool)
        admitted = 0
        rejected_clean = [
            r for r in results
            if r["rejected_but_clean"] and "bytecode_hex" in r
        ]
        near_misses = [
            r for r in results if r["near_miss"] and "bytecode_hex" in r
        ]
        # Both candidate lists are bounded *before* shrinking: each
        # shrink costs up to 150 oracle evaluations, and pool-collision
        # skips must not pull ever more candidates into that cost.
        candidates = [
            (res, "rejected-clean")
            for res in rejected_clean[: spec.seed_shrink_per_round]
        ] + [
            (res, "near-miss")
            for res in near_misses[: spec.seeds_per_round]
        ]
        for res, kind in candidates:
            if admitted >= spec.seeds_per_round:
                break
            program = Program.from_bytes(bytes.fromhex(res["bytecode_hex"]))
            seed_prog = _shrink_seed(spec, program, res["seed"], kind)
            hex_code = seed_prog.to_bytes().hex()
            if hex_code in pool_set:
                continue
            pool.append(hex_code)
            pool_set.add(hex_code)
            corpus.add_seed(
                seed_prog, seed=res["seed"], profile=spec.profile,
                note=f"{kind} index {res['index']} "
                     f"(shrunk to {len(seed_prog)} insns)",
            )
            admitted += 1
        stats.seeds_pooled += admitted
        if len(pool) > spec.pool_limit:
            del pool[: len(pool) - spec.pool_limit]

        # Scalar counters derive from the (deterministic) report so the
        # two never drift; only timing/checks live on stats alone.
        stats.executed = report.programs
        stats.accepted = report.accepted
        stats.rejected = report.rejected
        stats.rejected_clean = report.rejected_clean
        stats.mutants = report.mutants
        stats.violations = report.violations

        stats.rounds_completed += 1
        now = time.perf_counter()
        stats.elapsed_seconds += now - self._started
        self._started = now
        if self.state_path is not None:
            self._save()
        if _obs.enabled():
            _obs.publish_heartbeat({
                "phase": phase,
                "round": stats.rounds_completed,
                "rounds": spec.rounds,
                "budget": spec.budget,
                "executed": stats.executed,
                "accepted": stats.accepted,
                "rejected_clean": stats.rejected_clean,
                "violations": stats.violations,
                "retries": stats.retries,
                "quarantined": stats.quarantined,
                "corpus_size": len(corpus),
                "pool_size": len(pool),
                "elapsed_s": round(stats.elapsed_seconds, 3),
                "programs_per_s": round(stats.programs_per_second, 1),
                # Where verifier time goes, so a long campaign's live
                # snapshot answers the paper's cost question per operator.
                "top_verifier_ops": [
                    {
                        "op": label,
                        "total_s": round(t.total_ns / 1e9, 6),
                        "calls": t.count,
                    }
                    for label, t in
                    _obs.default_registry().top_timers("verifier", 5)
                ],
                **live,
            })

    def result(self) -> PrecisionCampaignResult:
        return PrecisionCampaignResult(
            self.stats, self.corpus, self.report, self.pool,
            quarantined=list(self.quarantined),
        )

    # -- the checkpoint -----------------------------------------------------

    def _save(self) -> None:
        self.state_path.mkdir(parents=True, exist_ok=True)
        payload = {
            "format_version": _STATE_FORMAT_VERSION,
            "spec": asdict(self.spec),
            "stats": asdict(self.stats),
            # Wall-clock/throughput at checkpoint time, so `ls`-ing a long
            # campaign's state dir answers "how fast is it going" without
            # replaying anything.  Deliberately *outside* the report: the
            # PrecisionReport stays byte-identical across machines/timing.
            "elapsed_s": round(self.stats.elapsed_seconds, 3),
            "programs_per_s": round(self.stats.programs_per_second, 1),
            "report": self.report.to_dict(),
            "pool": self.pool,
        }
        # Write-then-rename so an interrupted checkpoint never corrupts the
        # files a resume depends on.
        _atomic_write(
            self.state_path / _STATE_FILE,
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
        )
        _atomic_write(
            self.state_path / _CORPUS_FILE, self.corpus.to_json() + "\n"
        )

    def _load(
        self,
    ) -> Optional[Tuple[PrecisionCampaignStats, PrecisionReport, List[str], Corpus]]:
        path = self.state_path / _STATE_FILE
        if not path.exists():
            return None
        try:
            payload = json.loads(path.read_text())
            if payload.get("format_version") != _STATE_FORMAT_VERSION:
                raise CampaignStateError(
                    f"unsupported campaign state format "
                    f"{payload.get('format_version')!r}"
                )
            # ``workers`` is outcome-neutral (reports are byte-identical
            # for any worker count), so resuming on different cores is
            # fine.
            saved_spec = dict(payload["spec"], workers=self.spec.workers)
            if saved_spec != asdict(self.spec):
                raise CampaignStateError(
                    "campaign state was produced by a different spec; "
                    "use a fresh --state directory or matching options"
                )
            stats = PrecisionCampaignStats(**payload["stats"])
            report = PrecisionReport.from_dict(payload["report"])
            corpus_path = self.state_path / _CORPUS_FILE
            corpus = (
                Corpus.load(corpus_path) if corpus_path.exists() else Corpus()
            )
            return stats, report, list(payload["pool"]), corpus
        except CampaignStateError:
            raise
        except (ValueError, KeyError, TypeError) as exc:
            raise CampaignStateError(
                f"corrupt campaign state in {self.state_path}: {exc}"
            )


# -- the campaign loop ----------------------------------------------------------


def run_precision_campaign(
    spec: CampaignSpec,
    corpus: Optional[Corpus] = None,
    state_dir: Optional["str | Path"] = None,
    stop_after_rounds: Optional[int] = None,
    retry_policy: Optional[RetryPolicy] = None,
) -> PrecisionCampaignResult:
    """Run (or resume) a precision campaign.

    With ``state_dir`` the campaign checkpoints after each round and a
    later call with the same spec resumes from the last checkpoint (the
    checkpointed corpus wins over a caller-supplied ``corpus`` then).
    ``stop_after_rounds`` bounds how many *additional* rounds this call
    executes (used to exercise resumption; ``None`` runs to completion).

    ``retry_policy`` governs crash recovery in the multi-worker path
    (see :mod:`repro.fuzz.resilience`): a worker that dies or hangs
    mid-batch costs a bounded retry, and a batch that keeps failing is
    quarantined (recorded on the result, and as a poison artifact under
    ``<state_dir>/poison/``) instead of hanging the round.  It is a
    runtime knob, deliberately outside the spec — the report stays
    byte-identical to a fault-free run whenever no batch is actually
    quarantined.
    """
    retry_policy = retry_policy or RetryPolicy()
    run = CampaignRun(spec, state_dir, corpus)
    rounds_this_call = 0
    while not run.finished and (
        stop_after_rounds is None or rounds_this_call < stop_after_rounds
    ):
        indices = run.indices()
        # The spec and seed pool are shipped once per worker per round
        # (not once per work item) — the pool alone can hold pool_limit
        # programs of bytecode, so work items stay bare indices.
        round_pool = tuple(run.pool)
        leased = spec.workers > 1 and len(indices) > 1
        with _obs.tracer().span(
            "campaign.round", round=run.round, programs=len(indices),
            workers=spec.workers if leased else 1,
        ):
            if leased:
                ledger = run_leased_batches(
                    slice_batches(
                        indices, local_batch_size(len(indices), spec.workers)
                    ),
                    _fuzz_batch,
                    spec.workers,
                    initializer=_set_worker_state,
                    initargs=(spec, round_pool, _obs.worker_init_state()),
                    policy=retry_policy,
                )
                results = ledger.results
                run.stats.retries += ledger.retries
                run.quarantine(ledger.quarantined)
            else:
                _set_worker_state(spec, round_pool)
                results = _fuzz_batch(indices, 0, False)
        run.end_round(results, "campaign")
        rounds_this_call += 1
    return run.result()
