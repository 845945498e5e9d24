"""The abstract interpretation engine — a miniature BPF verifier.

Walks the (acyclic, fully reachable) CFG in reverse post-order, propagating
:class:`AbstractState` through every instruction with the tnum × interval
reduced product as the scalar domain.  Conditional jumps *refine* the
branched-on register in each successor state, which is how facts like
``r1 < 64`` flow into later bounds checks — the mechanism the paper's
introduction sketches with the ``x ≤ 8`` example.  Every refinement but
``jset``'s is a :class:`ScalarValue` method (``refine_ult``,
``refine_slt`` and the rest), signed and unsigned alike.

Safety checks enforced (each mirrors a kernel check):

* no read of an uninitialized register or stack slot;
* pointer arithmetic limited to ``add``/``sub`` with scalars, and pointer
  difference within one region;
* every memory access in bounds and sufficiently aligned for all
  executions (tnum alignment, interval bounds);
* no pointer stores into the context (pointer-leak prevention);
* ``exit`` requires an initialized scalar r0 (no pointer leaks via r0);
* r10 (frame pointer) is read-only.

:meth:`Verifier.verify` is the one abstract walk.  It decodes each
instruction as it visits it and dispatches through
:meth:`Verifier._transfer` and :meth:`Verifier._branch` — the same
methods :class:`~repro.bpf.verifier.paths.PathSensitiveVerifier`
explores paths with — and keeps nothing between calls: no per-program
compiled form, no module-level cache of walk state and no verdict cache
(only :class:`~repro.api.service.VerificationService` caches verdicts,
above the walk).  Once per basic block it checks the optional
``deadline_s`` watchdog and the ``verify.hang`` fault site; with
:mod:`repro.obs` enabled it charges each instruction's time to a
``verifier`` timer labelled by :func:`step_label`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple, TypeVar

from repro import faults as _faults
from repro import obs as _obs
from repro.bpf import isa
from repro.bpf.cfg import CFGError, build_cfg
from repro.bpf.insn import Instruction
from repro.bpf.program import Program
from repro.domains.interval import Interval
from repro.domains.product import ScalarValue
from repro.core.tnum import Tnum
from repro.core.lattice import meet as tnum_meet

from .errors import VerificationResult, VerifierError
from .memory import check_mem_access, load_stack, store_stack
from .state import AbstractState, RegState, Region

__all__ = ["Verifier", "verify_program", "transfer_label", "step_label"]

U64 = (1 << 64) - 1


def transfer_label(insn: Instruction) -> Optional[str]:
    """Telemetry label for the tnum transfer an instruction applies.

    Scalar ALU instructions map to ``"<op><width>"`` (``mul64``,
    ``arsh32``, ...); conditional jumps map to ``"refine_<op><width>"``
    (the branch-refinement transfer).  Instructions that do not exercise
    a scalar transfer function — plain 64-bit moves, ``lddw``, loads,
    stores, ``ja``/``call``/``exit`` — return ``None``.  32-bit moves
    are labelled (``mov32``) because subregister truncation is itself a
    transfer the campaign wants attributed.

    The label depends only on the opcode byte, so results are memoized;
    the walk resolves one per telemetry event.
    """
    try:
        return _LABEL_CACHE[insn.opcode]
    except KeyError:
        label = _LABEL_CACHE[insn.opcode] = _transfer_label_uncached(insn)
        return label


_LABEL_CACHE: Dict[int, Optional[str]] = {}


def _transfer_label_uncached(insn: Instruction) -> Optional[str]:
    cls = insn.cls()
    if cls in (isa.CLS_ALU, isa.CLS_ALU64):
        op = isa.BPF_OP(insn.opcode)
        width = 64 if cls == isa.CLS_ALU64 else 32
        if op == isa.ALU_MOV and width == 64:
            return None
        name = isa.ALU_OP_NAMES.get(op)
        return f"{name}{width}" if name else None
    if insn.is_cond_jump():
        op = isa.BPF_OP(insn.opcode)
        width = 64 if cls == isa.CLS_JMP else 32
        name = isa.JMP_OP_NAMES.get(op)
        return f"refine_{name}{width}" if name else None
    return None


def step_label(insn: Instruction) -> str:
    """Operator label an instruction's verifier work is charged to.

    The transfer-function name where one exists (``mul64``,
    ``refine_jgt64``, ...), else a structural class (``load``,
    ``store``, ``lddw``, ``mov64``, a jump mnemonic, ``exit``).  Shared
    by the campaign's rejection attribution and the obs per-operator
    timing, so "which operator costs time" and "which operator loses
    precision" rank over the same label space.
    """
    label = transfer_label(insn)
    if label is not None:
        return label
    if insn.is_lddw():
        return "lddw"
    cls = insn.cls()
    if cls == isa.CLS_LDX:
        return "load"
    if cls in (isa.CLS_ST, isa.CLS_STX):
        return "store"
    if cls in (isa.CLS_ALU, isa.CLS_ALU64):
        return "mov64"
    if insn.is_exit():
        return "exit"
    if insn.is_jump():
        return isa.JMP_OP_NAMES.get(isa.BPF_OP(insn.opcode), "jump")
    return "other"


#: Dispatch table for the plain binary scalar transfers — resolved once
#: at import instead of an if-chain per instruction (shift and mov/neg
#: ops need width-aware handling and stay in :func:`_scalar_alu`).
_SCALAR_BINOP: Dict[int, Callable[[ScalarValue, ScalarValue], ScalarValue]] = {
    isa.ALU_ADD: ScalarValue.add,
    isa.ALU_SUB: ScalarValue.sub,
    isa.ALU_MUL: ScalarValue.mul,
    isa.ALU_AND: ScalarValue.and_,
    isa.ALU_OR: ScalarValue.or_,
    isa.ALU_XOR: ScalarValue.xor,
    isa.ALU_DIV: ScalarValue.div,
    isa.ALU_MOD: ScalarValue.mod,
}

#: Comparison mirroring for "constant <op> register" refinement:
#: ``c <op> r`` holds iff ``r <mirror(op)> c``.
_MIRRORED_OPS = {
    isa.JMP_JEQ: isa.JMP_JEQ,
    isa.JMP_JNE: isa.JMP_JNE,
    isa.JMP_JGT: isa.JMP_JLT,
    isa.JMP_JGE: isa.JMP_JLE,
    isa.JMP_JLT: isa.JMP_JGT,
    isa.JMP_JLE: isa.JMP_JGE,
    isa.JMP_JSGT: isa.JMP_JSLT,
    isa.JMP_JSGE: isa.JMP_JSLE,
    isa.JMP_JSLT: isa.JMP_JSGT,
    isa.JMP_JSLE: isa.JMP_JSGE,
}


#: What a context load of each size reads: the bytes are unknown, so a
#: narrow load is an unknown zero-extended value.  One register per size,
#: shared by every load.
_CTX_LOADS: Dict[int, RegState] = {
    size: RegState.from_scalar(ScalarValue.from_range(0, (1 << (8 * size)) - 1))
    for size in (1, 2, 4)
}
_CTX_LOADS[8] = RegState.unknown()


# -- transfer primitives -------------------------------------------------------


def _read_reg(state: AbstractState, reg: int, idx: int) -> RegState:
    r = state.get_reg(reg)
    if not r.is_init():
        raise VerifierError(idx, f"read of uninitialized register r{reg}")
    return r


def _write_reg(state: AbstractState, reg: int, value: RegState, idx: int) -> None:
    if reg == isa.FP_REG:
        raise VerifierError(idx, "write to read-only frame pointer r10")
    state.set_reg(reg, value)


def _subreg(value: ScalarValue) -> ScalarValue:
    """The zero-extended 32-bit subregister view (kernel ``tnum_subreg``).

    The 64-bit interval survives truncation whenever the low 32 bits
    provably do not wrap across the range: the span must fit in 32
    bits and the low words must stay ordered (``lo32(umin) <=
    lo32(umax)``), which together rule out crossing a 2^32 boundary.
    """
    iv = value.interval
    if iv.umin == iv.umax:
        # Reduced constants truncate exactly — skip the cast/meet chain.
        return ScalarValue.const(iv.umin & 0xFFFF_FFFF)
    t32 = value.tnum.cast(32).cast(64)
    if not iv.is_bottom() and iv.umax - iv.umin <= 0xFFFF_FFFF:
        lo, hi = iv.umin & 0xFFFF_FFFF, iv.umax & 0xFFFF_FFFF
        if lo <= hi:
            return ScalarValue.make(
                t32, Interval(lo, hi, value.width)
            )
    return ScalarValue.from_tnum(t32)


def _truncate32(reg: RegState, idx: int) -> RegState:
    if reg.is_ptr():
        raise VerifierError(idx, "32-bit operation on pointer")
    return RegState.from_scalar(_subreg(reg.scalar))


def _shift_method(op: int, is64: bool) -> Callable[[ScalarValue, int], ScalarValue]:
    """Pre-resolved shift transfer for one (op, width)."""
    if op == isa.ALU_ARSH and not is64:
        # 32-bit arithmetic shift replicates bit 31, which the 64-bit
        # arshift transfer cannot see.  Hoist the subregister into the
        # top half, shift there (bit 31 is now the sign bit), and bring
        # it back down — each step is a sound 64-bit transfer, so the
        # composition is too.
        def method(d: ScalarValue, s: int) -> ScalarValue:
            return d.lshift(32).arshift(s).rshift(32)

        return method
    return {
        isa.ALU_LSH: ScalarValue.lshift,
        isa.ALU_RSH: ScalarValue.rshift,
        isa.ALU_ARSH: ScalarValue.arshift,
    }[op]


def _shift_alu(
    method: Callable[[ScalarValue, int], ScalarValue],
    width: int,
    dst: ScalarValue,
    src: ScalarValue,
) -> ScalarValue:
    if dst.is_bottom() or src.is_bottom():
        return ScalarValue.bottom()
    if src.is_const():
        # Concrete semantics mask the count to the op width.
        return method(dst, src.const_value() & (width - 1))
    # Unknown shift amount: join over feasible counts via tnums.
    if src.umax() < width:
        results = [method(dst, s) for s in range(src.umin(), src.umax() + 1)]
        out = results[0]
        for r in results[1:]:
            out = out.join(r)
        return out
    return ScalarValue.top()


def _scalar_alu(
    op: int, dst: ScalarValue, src: ScalarValue, idx: int, is64: bool
) -> ScalarValue:
    binop = _SCALAR_BINOP.get(op)
    if binop is not None:
        return binop(dst, src)
    if op in (isa.ALU_LSH, isa.ALU_RSH, isa.ALU_ARSH):
        width = 64 if is64 else 32
        return _shift_alu(_shift_method(op, is64), width, dst, src)
    raise VerifierError(idx, f"unsupported ALU op {op:#04x}")


def _pointer_alu(
    state: AbstractState,
    dst_reg: int,
    idx: int,
    op: int,
    dst: RegState,
    src: RegState,
) -> RegState:
    """Pointer add/sub (64-bit only); writes the result and returns it."""
    if op == isa.ALU_ADD:
        if dst.is_ptr() and src.is_scalar():
            result = RegState.pointer(dst.region, dst.offset.add(src.scalar))
        elif dst.is_scalar() and src.is_ptr():
            result = RegState.pointer(src.region, src.offset.add(dst.scalar))
        else:
            raise VerifierError(idx, "addition of two pointers")
    elif op == isa.ALU_SUB:
        if dst.is_ptr() and src.is_scalar():
            result = RegState.pointer(dst.region, dst.offset.sub(src.scalar))
        elif dst.is_ptr() and src.is_ptr():
            if dst.region != src.region:
                raise VerifierError(idx, "subtraction of cross-region pointers")
            result = RegState.from_scalar(dst.offset.sub(src.offset))
        else:
            raise VerifierError(idx, "cannot subtract pointer from scalar")
    else:
        raise VerifierError(
            idx, f"pointer arithmetic only supports add/sub, got {op:#04x}"
        )
    _write_reg(state, dst_reg, result, idx)
    return result


# -- branch refinement builders ------------------------------------------------
#
# ``_REFINERS[op](value, bound)`` returns the refined ``(taken,
# fall-through)`` scalars for ``value <op> bound``; the walk resolves it
# per visit through :meth:`Verifier._refine`.


def _refine_jset(value: ScalarValue, bound: int) -> Tuple[None, ScalarValue]:
    # Fall-through means (value & bound) == 0: those bits are 0.
    cleared = tnum_meet(value.tnum, Tnum(0, ~bound & U64, 64))
    return None, ScalarValue.make(cleared, value.interval)


def _apply_refinement(
    taken: AbstractState,
    fall: AbstractState,
    reg: int,
    taken_scalar: Optional[ScalarValue],
    fall_scalar: Optional[ScalarValue],
    note: Optional[Callable[[int, str, ScalarValue], None]],
    idx: int,
    label: Optional[str],
) -> None:
    """Install a refinement pair into the branch successor states.

    Single source of truth for the write / infeasibility-flag /
    telemetry protocol: both operand orientations (register-vs-bound and
    mirrored constant-on-left) go through here.
    """
    if taken_scalar is not None:
        taken.set_reg(reg, RegState.from_scalar(taken_scalar))
        if taken_scalar.is_bottom():
            taken.infeasible = True
    if fall_scalar is not None:
        fall.set_reg(reg, RegState.from_scalar(fall_scalar))
        if fall_scalar.is_bottom():
            fall.infeasible = True
    if note is not None and label is not None:
        if taken_scalar is not None:
            note(idx, label, taken_scalar)
        if fall_scalar is not None:
            note(idx, label, fall_scalar)


_REFINERS: Dict[
    int, Callable[[ScalarValue, int], Tuple[Optional[ScalarValue], Optional[ScalarValue]]]
] = {
    isa.JMP_JEQ: lambda v, b: (v.refine_eq(b), v.refine_ne(b)),
    isa.JMP_JNE: lambda v, b: (v.refine_ne(b), v.refine_eq(b)),
    isa.JMP_JGT: lambda v, b: (v.refine_ugt(b), v.refine_ule(b)),
    isa.JMP_JGE: lambda v, b: (v.refine_uge(b), v.refine_ult(b)),
    isa.JMP_JLT: lambda v, b: (v.refine_ult(b), v.refine_uge(b)),
    isa.JMP_JLE: lambda v, b: (v.refine_ule(b), v.refine_ugt(b)),
    isa.JMP_JSET: _refine_jset,
    isa.JMP_JSGT: lambda v, b: (v.refine_sgt(b), v.refine_sle(b)),
    isa.JMP_JSGE: lambda v, b: (v.refine_sge(b), v.refine_slt(b)),
    isa.JMP_JSLT: lambda v, b: (v.refine_slt(b), v.refine_sge(b)),
    isa.JMP_JSLE: lambda v, b: (v.refine_sle(b), v.refine_sgt(b)),
}


_R = TypeVar("_R")


def _timed(
    fn: Callable[[AbstractState, Instruction, int], _R],
) -> Callable[[AbstractState, Instruction, int], _R]:
    """Wrap ``_transfer`` or ``_branch`` in a per-operator timer.

    The registry is resolved through :func:`repro.obs.record_op_time` at
    call time, so worker-scoped registries (merge-on-return) see the
    samples.
    """
    clock = time.perf_counter_ns
    record = _obs.record_op_time

    def timed(state: AbstractState, insn: Instruction, idx: int) -> _R:
        t0 = clock()
        try:
            return fn(state, insn, idx)
        finally:
            record("verifier", step_label(insn), clock() - t0)

    return timed


@dataclass
class Verifier:
    """Verify one program; optionally retain per-instruction states.

    ``ctx_size`` is the size in bytes of the context object r1 points to
    at entry (kernel programs get a type-specific ctx; we use a flat
    blob).

    Subclassing note: the walk dispatches every instruction through
    :meth:`_transfer` and every block-ending conditional jump through
    :meth:`_branch` (which refines through :meth:`_refine`), so
    overriding those methods changes :meth:`verify` and
    :class:`PathSensitiveVerifier` alike.  The ALU, memory and
    refinement helpers they call are module-level functions; patch those
    in the module to hook below that layer.
    """

    ctx_size: int = 64
    collect_states: bool = False
    #: entry abstract state per instruction index (populated when
    #: ``collect_states`` is set) — used by differential tests.
    states_at: Dict[int, AbstractState] = field(default_factory=dict)
    #: per-operator attribution hook: called as ``(idx, label, scalar)``
    #: with the abstract result of every scalar transfer (ALU results and
    #: branch refinements, labelled per :func:`transfer_label`).  Used by
    #: the fuzz campaign's precision telemetry.
    on_transfer: Optional[Callable[[int, str, ScalarValue], None]] = None
    #: wall-clock watchdog for the walk: when set, the walk checks
    #: ``time.monotonic()`` once per basic block (the path-sensitive
    #: walk once per state) and stops with a structured timeout
    #: rejection (``VerifierError.timeout``) instead of running
    #: unbounded.  The service never caches a timeout — the
    #: deadline is a property of the *request*, not the program.
    deadline_s: Optional[float] = None

    # -- public API -----------------------------------------------------------

    def verify(self, program: Program) -> VerificationResult:
        """Verify ``program`` in one walk over its CFG.

        Visits the blocks in reverse post-order, joining at merges.
        """
        try:
            cfg = build_cfg(program)
        except CFGError as exc:
            err = VerifierError(0, f"bad control flow: {exc}", structural=True)
            return VerificationResult(False, [err])

        # Timed or untimed, chosen once per call: with obs off the loop
        # calls the transfer methods directly and carries no timing code.
        transfer, branch = self._transfer, self._branch
        if _obs.enabled():
            transfer, branch = _timed(transfer), _timed(branch)
        insns = program.insns
        blocks = cfg.blocks
        collect = self.collect_states
        merge = self._merge_into
        in_states: Dict[int, AbstractState] = {0: AbstractState.entry_state()}
        processed = 0
        # Watchdog and fault site, both hoisted: with no deadline and no
        # armed fault plan (the default) the loop pays two falsy local
        # checks per *block*, nothing per instruction.
        check_deadline = self._deadline_check()
        hang_s = 0.0
        if _faults.enabled() and _faults.fire("verify.hang"):
            hang_s = _faults.arg("verify.hang")
        try:
            for block_id in cfg.reverse_post_order():
                block = blocks[block_id]
                if hang_s:
                    time.sleep(hang_s)
                if check_deadline is not None:
                    check_deadline(block.start, processed)
                entry = in_states.get(block_id)
                if entry is None:
                    continue  # no feasible path in (dead branch)
                state = entry.copy()
                end = block.end
                for idx in range(block.start, end + 1):
                    if collect:
                        self._record(idx, state)
                    processed += 1
                    insn = insns[idx]
                    if idx == end and insn.is_cond_jump():
                        fall, taken = branch(state, insn, idx)
                        fall_to, taken_to = block.successors
                        # Refinement can prove an edge infeasible (a
                        # register refined to ⊥); such edges are dead
                        # paths and must not be analyzed.
                        if not fall.infeasible:
                            merge(in_states, fall_to, fall)
                        if not taken.infeasible:
                            merge(in_states, taken_to, taken)
                        break
                    transfer(state, insn, idx)
                else:  # the block ends in exit, ja, or a fall-through
                    if insns[end].is_exit():
                        self._check_exit(state, end)
                    else:
                        for succ in block.successors:
                            merge(in_states, succ, state)
        except VerifierError as exc:
            return VerificationResult(False, [exc], processed)
        return VerificationResult(True, [], processed)

    def _deadline_check(self) -> Optional[Callable[[int, int], None]]:
        """The walk's watchdog, started now; None without a deadline.

        ``check(idx, processed)`` raises the structured timeout
        rejection once ``deadline_s`` has passed; :meth:`verify` and
        the path-sensitive walk share it.
        """
        deadline_s = self.deadline_s
        if deadline_s is None:
            return None
        deadline_at = time.monotonic() + deadline_s

        def check(idx: int, processed: int) -> None:
            if time.monotonic() > deadline_at:
                raise VerifierError(
                    idx,
                    f"verification exceeded its {deadline_s:g}s "
                    f"deadline after {processed} instructions",
                    timeout=True,
                )

        return check

    # -- state plumbing -----------------------------------------------------------

    def _record(self, idx: int, state: AbstractState) -> None:
        # ``copy`` is O(1) (copy-on-write), so recording every
        # instruction shares containers within straight-line runs
        # instead of cloning the full state per visit.
        if idx in self.states_at:
            self.states_at[idx] = self.states_at[idx].join(state)
        else:
            self.states_at[idx] = state.copy()

    @staticmethod
    def _feasible(state: AbstractState) -> bool:
        """A refined-to-⊥ state describes no execution — O(1) flag check.

        The flag is set at refinement time (the only place a ⊥ scalar
        can enter a register: transfers and joins of feasible states
        never produce one).
        """
        return not state.infeasible

    @staticmethod
    def _merge_into(
        in_states: Dict[int, AbstractState], block_id: int, state: AbstractState
    ) -> None:
        existing = in_states.get(block_id)
        if existing is None:
            in_states[block_id] = state.copy()
        elif not state.leq(existing):
            in_states[block_id] = existing.join(state)
        # else: the recorded state already covers this one — joining
        # would rebuild an equal state (join is exact at the lub when
        # one side is below the other), so keep the existing object.

    def _check_exit(self, state: AbstractState, idx: int) -> None:
        r0 = state.get_reg(0)
        if not r0.is_init():
            raise VerifierError(idx, "exit with uninitialized r0")
        if r0.is_ptr():
            raise VerifierError(idx, "exit would leak a pointer in r0")

    # -- instruction transfer ---------------------------------------------------------

    def _transfer(self, state: AbstractState, insn: Instruction, idx: int) -> None:
        cls = insn.cls()
        if insn.is_exit():
            return  # checked by the walk at block exit
        if insn.is_lddw():
            state.set_reg(insn.dst, RegState.const(insn.imm & U64))
            return
        if cls in (isa.CLS_ALU, isa.CLS_ALU64):
            self._alu(state, insn, idx, is64=(cls == isa.CLS_ALU64))
            return
        if cls == isa.CLS_LDX:
            self._load(state, insn, idx)
            return
        if cls in (isa.CLS_ST, isa.CLS_STX):
            self._store(state, insn, idx)
            return
        if insn.is_jump():
            op = isa.BPF_OP(insn.opcode)
            if op == isa.JMP_JA:
                return
            if op == isa.JMP_CALL:
                self._call(state, insn, idx)
                return
        raise VerifierError(idx, f"unsupported opcode {insn.opcode:#04x}")

    # Re-exposed for tests that check subregister truncation directly.
    _subreg = staticmethod(_subreg)

    # -- ALU ------------------------------------------------------------------------

    def _note_transfer(self, idx: int, insn: Instruction, reg: RegState) -> None:
        if self.on_transfer is None or not reg.is_scalar():
            return
        label = transfer_label(insn)
        if label is not None:
            self.on_transfer(idx, label, reg.scalar)

    def _alu(self, state: AbstractState, insn: Instruction, idx: int, is64: bool) -> None:
        op = isa.BPF_OP(insn.opcode)

        if op == isa.ALU_MOV:
            src = (
                RegState.const(insn.imm & U64)
                if insn.uses_imm()
                else _read_reg(state, insn.src, idx)
            )
            if not is64:
                src = _truncate32(src, idx)
            _write_reg(state, insn.dst, src, idx)
            self._note_transfer(idx, insn, src)
            return

        if op == isa.ALU_NEG:
            dst = _read_reg(state, insn.dst, idx)
            if dst.is_ptr():
                raise VerifierError(idx, "arithmetic negation of pointer")
            result = RegState.from_scalar(dst.scalar.neg())
            if not is64:
                result = _truncate32(result, idx)
            _write_reg(state, insn.dst, result, idx)
            self._note_transfer(idx, insn, result)
            return

        dst = _read_reg(state, insn.dst, idx)
        src = (
            RegState.const(insn.imm & U64)
            if insn.uses_imm()
            else _read_reg(state, insn.src, idx)
        )

        # Pointer arithmetic (64-bit only, kernel rule).
        if dst.is_ptr() or src.is_ptr():
            if not is64:
                raise VerifierError(idx, "32-bit arithmetic on pointer")
            result = _pointer_alu(state, insn.dst, idx, op, dst, src)
            self._note_transfer(idx, insn, result)
            return

        dst_s, src_s = dst.scalar, src.scalar
        if not is64:
            # 32-bit ops read the zero-extended subregisters.  Operand
            # truncation (not just result truncation) is required for
            # soundness: division, modulo and right shifts do not commute
            # with truncation, so computing them on the 64-bit abstract
            # values and masking afterwards claims wrong results.
            dst_s = _subreg(dst_s)
            src_s = _subreg(src_s)
        result = _scalar_alu(op, dst_s, src_s, idx, is64)
        reg = RegState.from_scalar(result)
        if not is64:
            reg = _truncate32(reg, idx)
        _write_reg(state, insn.dst, reg, idx)
        self._note_transfer(idx, insn, reg)

    # -- memory ---------------------------------------------------------------------

    def _load(self, state: AbstractState, insn: Instruction, idx: int) -> None:
        ptr = _read_reg(state, insn.src, idx)
        size = insn.size_bytes()
        off = check_mem_access(state, ptr, insn.off, size, idx, self.ctx_size)
        if ptr.region == Region.STACK:
            value = load_stack(state, ptr, insn.off, size, idx, off)
        else:
            value = _CTX_LOADS[size]
        _write_reg(state, insn.dst, value, idx)

    def _store(self, state: AbstractState, insn: Instruction, idx: int) -> None:
        ptr = _read_reg(state, insn.dst, idx)
        size = insn.size_bytes()
        if insn.cls() == isa.CLS_STX:
            value = _read_reg(state, insn.src, idx)
        else:
            value = RegState.const(insn.imm & U64)
        off = check_mem_access(state, ptr, insn.off, size, idx, self.ctx_size)
        if ptr.region == Region.CTX and value.is_ptr():
            raise VerifierError(idx, "pointer store to ctx would leak an address")
        if ptr.region == Region.STACK:
            store_stack(state, ptr, insn.off, size, value, idx, off)

    # -- calls --------------------------------------------------------------------------

    def _call(self, state: AbstractState, insn: Instruction, idx: int) -> None:
        # Helpers receive r1-r5 and return an unknown scalar in r0;
        # caller-saved registers are clobbered (kernel ABI).
        regs = state.regs
        regs[0] = RegState.unknown()
        not_init = RegState.not_init()
        for reg in range(1, 6):
            regs[reg] = not_init

    # -- branches ------------------------------------------------------------------------

    def _branch(
        self, state: AbstractState, insn: Instruction, idx: int
    ) -> Tuple[AbstractState, AbstractState]:
        """Return (fall-through state, taken state) with refinements.

        ``fall`` reuses the incoming state and ``taken`` is a
        copy-on-write copy — the no-refinement paths (pointer compares,
        non-fitting 32-bit compares, unknown bounds) therefore share
        containers instead of cloning the full state twice.
        """
        dst = _read_reg(state, insn.dst, idx)
        src: Optional[RegState] = None
        if insn.uses_imm():
            src_val: Optional[int] = insn.imm & U64
        else:
            src = _read_reg(state, insn.src, idx)
            src_val = (
                src.scalar.const_value()
                if src.is_scalar() and src.scalar.is_const()
                else None
            )

        fall = state
        taken = state.copy()
        if insn.cls() != isa.CLS_JMP:
            # A 32-bit compare agrees with the 64-bit one when both the
            # register and the bound provably sit in [0, 2^31): there the
            # 32- and 64-bit views (signed or unsigned) all coincide, so
            # the same refinement applies. Otherwise skip (sound).
            fits = (
                dst.is_scalar()
                and dst.scalar.umax() <= 0x7FFF_FFFF
                and src_val is not None
                and src_val <= 0x7FFF_FFFF
            )
            if not fits:
                return fall, taken

        note = self.on_transfer
        label = transfer_label(insn)
        op = isa.BPF_OP(insn.opcode)
        if dst.is_scalar() and src_val is not None:
            taken_scalar, fall_scalar = self._refine(dst.scalar, op, src_val)
            _apply_refinement(
                taken, fall, insn.dst, taken_scalar, fall_scalar,
                note, idx, label,
            )
        elif (
            src is not None
            and src.is_scalar()
            and dst.is_scalar()
            and dst.scalar.is_const()
        ):
            # Constant on the left: refine the register operand with the
            # mirrored comparison (c < r ⇔ r > c, etc.).
            mirrored = _MIRRORED_OPS.get(op)
            if mirrored is not None:
                bound = dst.scalar.const_value()
                taken_scalar, fall_scalar = self._refine(
                    src.scalar, mirrored, bound
                )
                _apply_refinement(
                    taken, fall, insn.src, taken_scalar, fall_scalar,
                    note, idx, label,
                )
        return fall, taken

    @staticmethod
    def _refine(
        value: ScalarValue, op: int, bound: int
    ) -> Tuple[Optional[ScalarValue], Optional[ScalarValue]]:
        """Refined (taken, fall-through) values for ``value <op> bound``."""
        refiner = _REFINERS.get(op)
        if refiner is None:
            return None, None
        return refiner(value, bound)


def verify_program(program: Program, ctx_size: int = 64) -> VerificationResult:
    """Convenience wrapper: verify with default settings."""
    return Verifier(ctx_size=ctx_size).verify(program)
