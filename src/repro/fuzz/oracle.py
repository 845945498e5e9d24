"""Differential oracle: concrete execution vs. abstract verification.

The interpreter is the ground truth.  For every program the verifier
*accepts*, the oracle replays it concretely on many random inputs and
checks two soundness properties at every executed instruction:

* **containment** — each concrete register value is a member of the
  verifier's abstract value at the same program point (scalar values via
  ``γ(tnum × interval)``; pointers via their region and abstract offset);
* **no accepted crashes** — a concrete run of an accepted program never
  faults (no out-of-bounds access, no bad opcode, no divergence).

Rejection is conservative and therefore never *unsound*; the oracle
still executes rejected programs once and records whether the run was
clean, which measures the verifier's false-positive (imprecision) rate
without flagging it as a bug.

Every check runs the live abstract walk.  The oracle stores no verdicts
between programs, so a change to the verifier shows up in the very next
check.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs as _obs
from repro.bpf import isa
from repro.bpf.interpreter import CTX_BASE, STACK_BASE, ExecutionError, Machine
from repro.bpf.program import Program, ProgramError
from repro.bpf.verifier import VerificationResult, Verifier
from repro.bpf.verifier.state import AbstractState, RegKind, Region

__all__ = ["Violation", "OracleReport", "DifferentialOracle"]

U64 = (1 << 64) - 1

#: Concrete base address and name of each abstract pointer region.
#: Stack offsets are relative to the frame *top* (r10's address),
#: matching ``RegState.stack_ptr``.
_REGIONS = {
    Region.STACK: (STACK_BASE + isa.STACK_SIZE, Region.STACK.value),
    Region.CTX: (CTX_BASE, Region.CTX.value),
}


@dataclass(frozen=True)
class Violation:
    """One observed soundness failure."""

    kind: str               # "containment" | "pointer" | "accepted_crash"
    #: "unverified_pc" when execution reaches a pc the verifier pruned
    pc: Optional[int]       # instruction index, if known
    register: Optional[int]
    concrete: Optional[int]
    input_seed: int
    message: str

    def __str__(self) -> str:
        where = f"pc {self.pc}" if self.pc is not None else "?"
        return f"[{self.kind}] {where}: {self.message}"


@dataclass
class OracleReport:
    """Outcome of differentially testing one program."""

    verdict: str                      # "accepted" | "rejected"
    runs: int = 0
    checks: int = 0                   # register containment checks done
    violations: List[Violation] = field(default_factory=list)
    #: for rejected programs: True when a concrete replay ran cleanly,
    #: i.e. the rejection was (at least on that input) imprecision.
    rejected_but_clean: Optional[bool] = None
    reject_reason: Optional[str] = None
    #: instruction index the verifier rejected at (None when accepted or
    #: when the rejection was structural, e.g. a CFG error).
    reject_pc: Optional[int] = None
    #: when range collection is on: per ALU instruction index, the
    #: [min, max] concrete result observed across every replay — the
    #: ground-truth range the campaign compares abstract ranges against.
    concrete_ranges: Dict[int, List[int]] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        tag = "OK" if self.ok else f"{len(self.violations)} VIOLATIONS"
        return f"{self.verdict} runs={self.runs} checks={self.checks}: {tag}"


class DifferentialOracle:
    """Runs whole programs through verifier and interpreter and compares.

    ``inputs_per_program`` concrete replays are made per accepted
    program, each with context bytes drawn from a per-input RNG stream
    derived from ``(input_seed_base, i)`` — deterministic and
    independent of execution order.
    """

    def __init__(
        self,
        ctx_size: int = 64,
        inputs_per_program: int = 8,
        max_violations: int = 4,
        on_transfer: Optional[Callable] = None,
        collect_ranges: bool = False,
        step_limit: int = 1_000_000,
    ) -> None:
        self.ctx_size = ctx_size
        self.inputs_per_program = inputs_per_program
        self.max_violations = max_violations
        #: forwarded to :class:`Verifier` — per-operator attribution for
        #: the campaign's precision telemetry.
        self.on_transfer = on_transfer
        #: track per-ALU-instruction concrete result ranges during replay.
        self.collect_ranges = collect_ranges
        #: interpreter step budget; campaigns lower it so mutated programs
        #: with (verifier-rejected) loops cannot stall a replay.
        self.step_limit = step_limit
        #: one verifier reused across every checked program (its per-run
        #: ``states_at`` and ``on_transfer`` are reset per call).
        self._verifier = Verifier(
            ctx_size=self.ctx_size,
            collect_states=True,
            on_transfer=self.on_transfer,
        )
        #: ``(input_seed_base, seeds, contexts)`` of the last replays.
        self._last_inputs: Optional[Tuple[int, List[int], List[bytes]]] = None

    # -- public API ---------------------------------------------------------

    def check_program(
        self,
        program: Program,
        input_seed_base: int = 0,
        *,
        replay_if: Optional[Callable[[VerificationResult], bool]] = None,
    ) -> OracleReport:
        """Verify ``program``, then replay it concretely and compare.

        ``replay_if``, when given, sees the walk's result before any
        step is built or replay made; when it returns False the report
        carries only the verdict (``runs == 0``).  Callers that need
        just the walk's answer, such as shrink predicates, skip the
        replays with it.
        """
        # One predicate check when obs is off; when on, the whole check
        # runs under a (sampled) span and tallies its counters on exit.
        if not _obs.enabled():
            return self._check_program(program, input_seed_base, replay_if)
        with _obs.tracer().sampled_span(
            "oracle.check_program", insns=len(program)
        ):
            report = self._check_program(program, input_seed_base, replay_if)
        reg = _obs.default_registry()
        reg.counter("oracle.programs").inc()
        reg.counter(f"oracle.{report.verdict}").inc()
        reg.counter("oracle.replays").inc(report.runs)
        reg.counter("oracle.containment_checks").inc(report.checks)
        if report.violations:
            reg.counter("oracle.violations").inc(len(report.violations))
            reg.counter("oracle.containment_failures").inc(sum(
                1 for v in report.violations
                if v.kind in ("containment", "pointer")
            ))
        if report.rejected_but_clean:
            reg.counter("oracle.rejected_clean").inc()
        return report

    def _check_program(
        self,
        program: Program,
        input_seed_base: int,
        replay_if: Optional[Callable[[VerificationResult], bool]],
    ) -> OracleReport:
        verifier = self._verifier
        verifier.states_at = {}
        # Re-read per call: callers may (re)wire the telemetry hook on
        # the oracle after construction, as the near-miss shrink
        # predicate does for each candidate.
        verifier.on_transfer = self.on_transfer
        result = verifier.verify(program)

        if replay_if is not None and not replay_if(result):
            return OracleReport(
                verdict="accepted" if result.ok else "rejected"
            )

        if not result.ok:
            report = OracleReport(
                verdict="rejected",
                reject_reason="; ".join(result.error_messages()) or None,
            )
            structural = bool(result.errors) and result.errors[0].structural
            if structural:
                # A CFG rejection (loops, dead code) is policy, not
                # imprecision — replaying tells us nothing and can burn
                # the whole step limit on a looping mutant.
                report.rejected_but_clean = False
            else:
                if result.errors:
                    report.reject_pc = result.errors[0].insn_index
                report.rejected_but_clean = self._replay_clean(
                    program, input_seed_base
                )
                report.runs = 1
            return report

        steps = self._build_steps(program, verifier.states_at)
        report = OracleReport(verdict="accepted")
        # Replay batching: everything that is per-program (not per-input)
        # is computed exactly once — the replay steps derived from the
        # verifier's states — and a single Machine is reset per input
        # instead of reallocated.  The per-input seeds and context
        # buffers are kept across calls with the same seed base.
        seeds, ctxs = self._inputs(input_seed_base)
        machine = Machine(step_limit=self.step_limit)
        for seed, ctx in zip(seeds, ctxs):
            machine.reset(ctx)
            self._run_one(machine, program, steps, seed, report)
            report.runs += 1
            if len(report.violations) >= self.max_violations:
                break
        return report

    # -- replay steps ---------------------------------------------------------

    def _build_steps(
        self, program: Program, states_at: Dict[int, AbstractState]
    ) -> List[Tuple]:
        """One replay step per instruction, built once per program.

        Every replay checks the same abstract state at the same program
        point, so the per-register work — skipping NOT_INIT registers,
        unpacking the tnum/interval pair, resolving the pointer region
        base — is hoisted out of the replay loop.  A register's check is
        ``(notmask, value, umin, umax, base, obj, region)``: a concrete
        value ``c`` is a member when ``c & notmask == value`` and ``umin
        <= c <= umax``, applied to ``(c - base) & U64`` for pointers.
        ``obj`` (the abstract scalar) and ``region`` are kept only for
        violation messages.  Copy-on-write states share ``RegState``
        objects across instructions and registers, so each check is
        built and classified once per distinct object (by identity: the
        states keep them alive for the whole build).

        Most checks admit exactly one concrete value: a scalar constant,
        or a pointer at a constant offset (r1, r10).  A step is
        ``(getter, expected, rest, entries, dst)``: ``getter``, an
        ``operator.itemgetter`` over those registers (None when there
        are none), must return ``expected`` (``(base + offset) & U64``
        for a pointer); ``rest`` holds the ``(reg, check)`` pairs of the
        other registers, and ``entries`` every pair in register order,
        which the violation path reports from.  ``entries`` is None at a
        program point the verifier never reached.  ``dst`` is the
        register an ALU instruction writes when ranges are collected,
        else -1.
        """
        steps: List[Tuple] = []
        built: Dict[int, Tuple] = {}
        not_init = RegKind.NOT_INIT  # hoisted: an Enum member read is slow
        for idx, insn in enumerate(program.insns):
            dst = insn.dst if self.collect_ranges and insn.is_alu() else -1
            state = states_at.get(idx)
            if state is None:
                steps.append((None, None, None, None, dst))
                continue
            const_regs: List[int] = []
            singles: List[int] = []
            rest: List[Tuple] = []
            entries: List[Tuple] = []
            for r in range(isa.MAX_REG):
                # get_reg: a plain read must not un-share the COW state's
                # register list (the ``regs`` property materializes
                # ownership because its callers may mutate in place).
                abstract = state.get_reg(r)
                if abstract.kind is not_init:
                    continue  # no claim made; nothing to contradict
                known = built.get(id(abstract))
                if known is None:
                    if abstract.kind is RegKind.SCALAR:
                        scalar = abstract.scalar
                        base = region = None
                    else:
                        scalar = abstract.offset
                        base, region = _REGIONS[abstract.region]
                    t, iv = scalar.tnum, scalar.interval
                    notmask, value = ~t.mask & U64, t.value
                    umin, umax = iv.umin, iv.umax
                    if notmask == U64 and umin <= value <= umax:
                        single: Optional[int] = value
                    elif umin == umax and umin & notmask == value:
                        single = umin
                    else:
                        single = None
                    if single is not None and base is not None:
                        single = (base + single) & U64
                    known = built[id(abstract)] = (
                        (notmask, value, umin, umax, base, scalar, region),
                        single,
                    )
                check, single = known
                entry = (r, check)
                entries.append(entry)
                if single is None:
                    rest.append(entry)
                else:
                    const_regs.append(r)
                    singles.append(single)
            # A one-item itemgetter returns the item, not a 1-tuple.
            getter = operator.itemgetter(*const_regs) if const_regs else None
            expected = singles[0] if len(singles) == 1 else tuple(singles)
            steps.append((getter, expected, rest, entries, dst))
        return steps

    # -- concrete replay ------------------------------------------------------

    def _make_ctx(self, seed: int) -> bytes:
        return random.Random(seed).randbytes(self.ctx_size)

    def _inputs(self, input_seed_base: int) -> Tuple[List[int], List[bytes]]:
        """Per-input seeds and context bytes for one seed base.

        The last base's inputs are kept: a shrink checks every candidate
        program against the same inputs.
        """
        last = self._last_inputs
        if last is None or last[0] != input_seed_base:
            seeds = [
                (input_seed_base * 1_000_003 + i) & U64
                for i in range(self.inputs_per_program)
            ]
            last = self._last_inputs = (
                input_seed_base, seeds, [self._make_ctx(s) for s in seeds]
            )
        return last[1], last[2]

    def _replay_clean(self, program: Program, seed: int) -> bool:
        machine = Machine(ctx=self._make_ctx(seed), step_limit=self.step_limit)
        try:
            machine.run(program)
            return True
        except (ExecutionError, ProgramError):
            # ProgramError here means control fell off the end or landed
            # mid-lddw — a crash for cross-checking purposes.
            return False

    def _run_one(
        self,
        machine: Machine,
        program: Program,
        steps: List[Tuple],
        seed: int,
        report: OracleReport,
    ) -> None:
        # Range tracking carries the previous step's index and ALU
        # destination: the result instruction p wrote is read from the
        # registers at the step that follows it.  Interpreter registers
        # are already masked to 64 bits.
        prev_idx = prev_dst = -1
        ranges = report.concrete_ranges
        violations = report.violations
        max_violations = self.max_violations
        # The fast form counts every entry of a step at once, as the loop
        # below does unless a violation, or a cut-off of zero, stops it
        # early.
        fast_ok = max_violations > 0

        def on_step(idx: int, regs: List[int]) -> None:
            nonlocal prev_idx, prev_dst
            getter, expected, rest, entries, dst = steps[idx]
            if prev_dst >= 0:
                result = regs[prev_dst]
                span = ranges.get(prev_idx)
                if span is None:
                    ranges[prev_idx] = [result, result]
                elif result < span[0]:
                    span[0] = result
                elif result > span[1]:
                    span[1] = result
            prev_idx, prev_dst = idx, dst
            if entries is None:
                violations.append(Violation(
                    "unverified_pc", idx, None, None, seed,
                    "execution reached an instruction the verifier "
                    "considered unreachable",
                ))
                return
            if fast_ok and not violations:
                # Fast form: when every register is contained, the count
                # is the step's length.  Otherwise the loop below redoes
                # the step and reports in order.
                if getter is None or getter(regs) == expected:
                    for r, (notmask, value, umin, umax, base, _, _) in rest:
                        c = regs[r]
                        if base is not None:
                            c = (c - base) & U64
                        if not (c & notmask == value and umin <= c <= umax):
                            break
                    else:
                        report.checks += len(entries)
                        return
            checks = 0
            for r, (notmask, value, umin, umax, base, obj, region) in entries:
                concrete = regs[r]
                checks += 1
                # A pointer's base + offset must account for the address.
                c = concrete if base is None else (concrete - base) & U64
                if not (c & notmask == value and umin <= c <= umax):
                    if base is None:
                        violations.append(Violation(
                            "containment", idx, r, concrete, seed,
                            f"r{r} = {concrete:#x} escapes abstract {obj}",
                        ))
                    else:
                        violations.append(Violation(
                            "pointer", idx, r, concrete, seed,
                            f"r{r} = {concrete:#x} has {region} "
                            f"offset {c:#x} outside {obj}",
                        ))
                if len(violations) >= max_violations:
                    break
            report.checks += checks

        try:
            machine.run(program, on_step=on_step)
        except ExecutionError as exc:
            violations.append(Violation(
                "accepted_crash", exc.pc, None, None, seed,
                f"accepted program crashed concretely: {exc}",
            ))
        except ProgramError as exc:
            violations.append(Violation(
                "accepted_crash", None, None, None, seed,
                f"accepted program fell off the instruction stream: {exc}",
            ))
