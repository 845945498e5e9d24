"""Decode-once compiled form of a BPF program: the interpreter's engine.

Finding an instruction by slot (``index_at_slot``), classifying it
(``cls()`` / ``BPF_OP()`` / ``uses_imm()``), masking its immediate and
computing its jump-target slot do not depend on machine state, so this
module does all of it in a single compile pass: each instruction becomes
a *step closure* ``fn(machine, regs) -> next_index`` with its operands
resolved, its immediate pre-masked, and its jump target translated from
slot space to instruction-index space.  The interpreter's hot loop
(:meth:`repro.bpf.interpreter.Machine.run`) then reduces to
``idx = code[idx](machine, regs)``.

Errors are *lazy*: an unsupported opcode on a never-executed path
compiles to a closure that raises only when reached.  Results, step
counts, ``on_step`` streams, final memory and error messages are pinned
by the frozen golden in ``tests/bpf/test_compiled.py`` over every opcode
× width, every error path, generator programs and campaign mutants; its
digests were recorded while a decode-every-step reference interpreter
agreed with this engine on every case.

Exit closures return :data:`EXIT_INDEX` (-1); the run loop treats any
negative next-index as program exit.

Compiling never looks at :mod:`repro.obs`.  A run with obs on asks for
:meth:`CompiledProgram.timed_steps`, which wraps each closure in a
per-operator timer the first time and keeps the wrapped list, so a run
with obs off executes the bare closures.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, TYPE_CHECKING

from repro import obs as _obs

from . import isa
from .insn import Instruction
from .interpreter import (
    CTX_BASE,
    STACK_BASE,
    U32,
    U64,
    ExecutionError,
    _s32,
    _s64,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .interpreter import Machine
    from .program import Program

__all__ = ["CompiledProgram", "compile_program", "StepFn", "EXIT_INDEX"]

_SIGN64 = 1 << 63
_SIGN32 = 1 << 31
_WRAP64 = 1 << 64
_WRAP32 = 1 << 32

#: Sentinel next-index returned by ``exit`` closures.
EXIT_INDEX = -1

#: A compiled instruction: advances the machine one step and returns the
#: next instruction index (or :data:`EXIT_INDEX`).
StepFn = Callable[["Machine", List[int]], int]


class CompiledProgram:
    """Dense decoded form: one step closure + source slot per instruction."""

    __slots__ = ("steps", "slots", "total_slots", "_insns", "_timed")

    def __init__(
        self,
        steps: List[StepFn],
        slots: List[int],
        total_slots: int,
        insns: List[Instruction],
    ) -> None:
        self.steps = steps
        #: slot address per instruction index — error paths only.
        self.slots = slots
        self.total_slots = total_slots
        self._insns = insns
        self._timed: Optional[List[StepFn]] = None

    def __len__(self) -> int:
        return len(self.steps)

    def timed_steps(self) -> List[StepFn]:
        """``steps``, each wrapped to record its time in an ``interp``
        timer; built on the first run with obs on, then kept."""
        timed = self._timed
        if timed is None:
            timed = self._timed = [
                _timed_step(step, _concrete_label(insn))
                for step, insn in zip(self.steps, self._insns)
            ]
        return timed


# -- ALU op kernels ----------------------------------------------------------
#
# Each kernel maps (dst_operand, src_operand) -> raw result; the closure
# masks the result to the op width.  Shift counts are masked inside the
# kernel because the mask differs per width (63 vs 31); division and
# modulo carry BPF's defined by-zero semantics.

_ALU64_FN = {
    isa.ALU_ADD: lambda a, b: a + b,
    isa.ALU_SUB: lambda a, b: a - b,
    isa.ALU_MUL: lambda a, b: a * b,
    isa.ALU_DIV: lambda a, b: a // b if b else 0,
    isa.ALU_MOD: lambda a, b: a % b if b else a,
    isa.ALU_AND: lambda a, b: a & b,
    isa.ALU_OR: lambda a, b: a | b,
    isa.ALU_XOR: lambda a, b: a ^ b,
    isa.ALU_LSH: lambda a, b: a << (b & 63),
    isa.ALU_RSH: lambda a, b: a >> (b & 63),
    isa.ALU_ARSH: lambda a, b: (a - _WRAP64 if a & _SIGN64 else a) >> (b & 63),
}

_ALU32_FN = {
    isa.ALU_ADD: lambda a, b: a + b,
    isa.ALU_SUB: lambda a, b: a - b,
    isa.ALU_MUL: lambda a, b: a * b,
    isa.ALU_DIV: lambda a, b: a // b if b else 0,
    isa.ALU_MOD: lambda a, b: a % b if b else a,
    isa.ALU_AND: lambda a, b: a & b,
    isa.ALU_OR: lambda a, b: a | b,
    isa.ALU_XOR: lambda a, b: a ^ b,
    isa.ALU_LSH: lambda a, b: a << (b & 31),
    isa.ALU_RSH: lambda a, b: a >> (b & 31),
    isa.ALU_ARSH: lambda a, b: (a - _WRAP32 if a & _SIGN32 else a) >> (b & 31),
}

# -- conditional-jump comparators --------------------------------------------

_UCMP = {
    isa.JMP_JEQ: lambda a, b: a == b,
    isa.JMP_JNE: lambda a, b: a != b,
    isa.JMP_JGT: lambda a, b: a > b,
    isa.JMP_JGE: lambda a, b: a >= b,
    isa.JMP_JLT: lambda a, b: a < b,
    isa.JMP_JLE: lambda a, b: a <= b,
    isa.JMP_JSET: lambda a, b: bool(a & b),
}

_SCMP = {
    isa.JMP_JSGT: lambda a, b: a > b,
    isa.JMP_JSGE: lambda a, b: a >= b,
    isa.JMP_JSLT: lambda a, b: a < b,
    isa.JMP_JSLE: lambda a, b: a <= b,
}


def _raiser(pc: int, message: str) -> StepFn:
    """A closure raising :class:`ExecutionError` only when executed."""

    def step(m: "Machine", regs: List[int]) -> int:
        raise ExecutionError(pc, message)

    return step


def _compile_alu(
    insn: Instruction, is64: bool, nxt: int, pc: int
) -> StepFn:
    op = isa.BPF_OP(insn.opcode)
    dst = insn.dst
    src = insn.src
    use_imm = insn.uses_imm()

    if op == isa.ALU_MOV:
        if use_imm:
            const = insn.imm & (U64 if is64 else U32)

            def step(m: "Machine", regs: List[int]) -> int:
                regs[dst] = const
                return nxt

        elif is64:

            def step(m: "Machine", regs: List[int]) -> int:
                regs[dst] = regs[src]
                return nxt

        else:

            def step(m: "Machine", regs: List[int]) -> int:
                regs[dst] = regs[src] & U32
                return nxt

        return step

    if op == isa.ALU_NEG:
        if is64:

            def step(m: "Machine", regs: List[int]) -> int:
                regs[dst] = -regs[dst] & U64
                return nxt

        else:

            def step(m: "Machine", regs: List[int]) -> int:
                regs[dst] = -(regs[dst] & U32) & U32
                return nxt

        return step

    fn = (_ALU64_FN if is64 else _ALU32_FN).get(op)
    if fn is None:
        return _raiser(pc, f"unsupported ALU op {op:#04x}")

    if is64:
        if use_imm:
            imm = insn.imm & U64

            def step(m: "Machine", regs: List[int]) -> int:
                regs[dst] = fn(regs[dst], imm) & U64
                return nxt

        else:

            def step(m: "Machine", regs: List[int]) -> int:
                regs[dst] = fn(regs[dst], regs[src]) & U64
                return nxt

    else:
        if use_imm:
            imm = insn.imm & U32

            def step(m: "Machine", regs: List[int]) -> int:
                regs[dst] = fn(regs[dst] & U32, imm) & U32
                return nxt

        else:

            def step(m: "Machine", regs: List[int]) -> int:
                regs[dst] = fn(regs[dst] & U32, regs[src] & U32) & U32
                return nxt

    return step


def _compile_jump(
    program: "Program", insn: Instruction, idx: int, nxt: int, pc: int
) -> StepFn:
    op = isa.BPF_OP(insn.opcode)
    dst = insn.dst
    src = insn.src

    if op == isa.JMP_JA:
        target = program.index_at_slot(program.jump_target_slot(idx))

        def step(m: "Machine", regs: List[int]) -> int:
            return target

        return step

    if op == isa.JMP_CALL:
        helper_id = insn.imm

        def step(m: "Machine", regs: List[int]) -> int:
            helper = m.helpers.get(helper_id)
            if helper is None:
                raise ExecutionError(pc, f"unknown helper {helper_id}")
            regs[0] = helper(regs[1], regs[2], regs[3], regs[4], regs[5]) & U64
            regs[1] = regs[2] = regs[3] = regs[4] = regs[5] = 0
            return nxt

        return step

    is32 = isa.BPF_CLASS(insn.opcode) == isa.CLS_JMP32
    use_imm = insn.uses_imm()
    target = program.index_at_slot(program.jump_target_slot(idx))

    ucmp = _UCMP.get(op)
    if ucmp is not None:
        if use_imm:
            bound = insn.imm & (U32 if is32 else U64)
            if is32:

                def step(m: "Machine", regs: List[int]) -> int:
                    return target if ucmp(regs[dst] & U32, bound) else nxt

            else:

                def step(m: "Machine", regs: List[int]) -> int:
                    return target if ucmp(regs[dst], bound) else nxt

        elif is32:

            def step(m: "Machine", regs: List[int]) -> int:
                return target if ucmp(regs[dst] & U32, regs[src] & U32) else nxt

        else:

            def step(m: "Machine", regs: List[int]) -> int:
                return target if ucmp(regs[dst], regs[src]) else nxt

        return step

    scmp = _SCMP.get(op)
    if scmp is not None:
        if use_imm:
            sbound = _s32(insn.imm) if is32 else _s64(insn.imm & U64)
            if is32:

                def step(m: "Machine", regs: List[int]) -> int:
                    return target if scmp(_s32(regs[dst]), sbound) else nxt

            else:

                def step(m: "Machine", regs: List[int]) -> int:
                    return target if scmp(_s64(regs[dst]), sbound) else nxt

        elif is32:

            def step(m: "Machine", regs: List[int]) -> int:
                return target if scmp(_s32(regs[dst]), _s32(regs[src])) else nxt

        else:

            def step(m: "Machine", regs: List[int]) -> int:
                return target if scmp(_s64(regs[dst]), _s64(regs[src])) else nxt

        return step

    return _raiser(pc, f"unsupported jump op {op:#04x}")


def _compile_mem(insn: Instruction, cls: int, nxt: int, pc: int) -> StepFn:
    size = isa.SIZE_BYTES[isa.BPF_SIZE(insn.opcode)]
    off = insn.off
    dst = insn.dst
    src = insn.src
    stack_size = isa.STACK_SIZE

    if cls == isa.CLS_LDX:

        def step(m: "Machine", regs: List[int]) -> int:
            addr = (regs[src] + off) & U64
            o = addr - STACK_BASE
            if 0 <= o and o + size <= stack_size:
                regs[dst] = int.from_bytes(m.stack[o:o + size], "little")
                return nxt
            o = addr - CTX_BASE
            if 0 <= o and o + size <= len(m.ctx):
                regs[dst] = int.from_bytes(m.ctx[o:o + size], "little")
                return nxt
            raise ExecutionError(
                pc, f"out-of-bounds access at {addr:#x} size {size}"
            )

        return step

    value_mask = (1 << (8 * size)) - 1

    if cls == isa.CLS_STX:

        def step(m: "Machine", regs: List[int]) -> int:
            addr = (regs[dst] + off) & U64
            data = (regs[src] & value_mask).to_bytes(size, "little")
            o = addr - STACK_BASE
            if 0 <= o and o + size <= stack_size:
                m.stack[o:o + size] = data
                return nxt
            o = addr - CTX_BASE
            if 0 <= o and o + size <= len(m.ctx):
                m.ctx[o:o + size] = data
                return nxt
            raise ExecutionError(
                pc, f"out-of-bounds access at {addr:#x} size {size}"
            )

        return step

    # CLS_ST: immediate store, value fully resolved at compile time.
    data = ((insn.imm & U64) & value_mask).to_bytes(size, "little")

    def step(m: "Machine", regs: List[int]) -> int:
        addr = (regs[dst] + off) & U64
        o = addr - STACK_BASE
        if 0 <= o and o + size <= stack_size:
            m.stack[o:o + size] = data
            return nxt
        o = addr - CTX_BASE
        if 0 <= o and o + size <= len(m.ctx):
            m.ctx[o:o + size] = data
            return nxt
        raise ExecutionError(
            pc, f"out-of-bounds access at {addr:#x} size {size}"
        )

    return step


def _compile_insn(
    program: "Program", insn: Instruction, idx: int, pc: int
) -> StepFn:
    nxt = idx + 1

    if insn.is_exit():

        def step(m: "Machine", regs: List[int]) -> int:
            return EXIT_INDEX

        return step

    if insn.is_lddw():
        imm64 = insn.imm & U64
        dst = insn.dst

        def step(m: "Machine", regs: List[int]) -> int:
            regs[dst] = imm64
            return nxt

        return step

    cls = isa.BPF_CLASS(insn.opcode)
    if cls in (isa.CLS_ALU, isa.CLS_ALU64):
        return _compile_alu(insn, cls == isa.CLS_ALU64, nxt, pc)
    if cls in (isa.CLS_JMP, isa.CLS_JMP32):
        return _compile_jump(program, insn, idx, nxt, pc)
    if cls in (isa.CLS_LDX, isa.CLS_ST, isa.CLS_STX):
        return _compile_mem(insn, cls, nxt, pc)
    return _raiser(pc, f"unsupported opcode {insn.opcode:#04x}")


def _concrete_label(insn: Instruction) -> str:
    """Per-op timing label for the concrete side (obs instrumentation).

    Built from the ISA name tables alone — the concrete pipeline must
    not import the verifier's transfer-label machinery.
    """
    cls = isa.BPF_CLASS(insn.opcode)
    if insn.is_exit():
        return "exit"
    if insn.is_lddw():
        return "lddw"
    if cls in (isa.CLS_ALU, isa.CLS_ALU64):
        name = isa.ALU_OP_NAMES.get(isa.BPF_OP(insn.opcode), "alu")
        return f"{name}{64 if cls == isa.CLS_ALU64 else 32}"
    if cls in (isa.CLS_JMP, isa.CLS_JMP32):
        op = isa.BPF_OP(insn.opcode)
        if op == isa.JMP_JA:
            return "ja"
        if op == isa.JMP_CALL:
            return "call"
        name = isa.JMP_OP_NAMES.get(op, "jmp")
        return f"{name}{64 if cls == isa.CLS_JMP else 32}"
    if cls == isa.CLS_LDX:
        return "load"
    if cls in (isa.CLS_ST, isa.CLS_STX):
        return "store"
    return "other"


def _timed_step(step: StepFn, label: str) -> StepFn:
    """Per-op timing shim for runs with obs on.

    The registry is resolved through the obs module at call time so
    worker-scoped registries (merge-on-return) receive the samples.
    """
    clock = time.perf_counter_ns
    record = _obs.record_op_time

    def timed(m: "Machine", regs: List[int]) -> int:
        t0 = clock()
        try:
            return step(m, regs)
        finally:
            record("interp", label, clock() - t0)

    return timed


def compile_program(program: "Program") -> CompiledProgram:
    """Decode every instruction exactly once into step closures."""
    steps: List[StepFn] = []
    slots: List[int] = []
    for idx, insn in enumerate(program.insns):
        pc = program.slot_of(idx)
        slots.append(pc)
        steps.append(_compile_insn(program, insn, idx, pc))
    return CompiledProgram(steps, slots, program.total_slots, program.insns)
