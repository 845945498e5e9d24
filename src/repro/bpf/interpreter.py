"""Concrete BPF interpreter.

Executes programs with real 64-bit machine semantics: wrapping arithmetic,
BPF's defined division-by-zero behaviour (``x/0 == 0``, ``x%0 == x``),
32-bit subregister ops that zero-extend, and little-endian stack/context
memory.  The interpreter is the *ground truth* against which the abstract
verifier is differentially tested: any value produced by a concrete run
must be contained in the verifier's abstract value at the same point.

Pointers are modelled as integers in a flat address space with the stack
and the context placed at fixed, well-separated bases.  That keeps
pointer arithmetic honest (r10-8 really is an address) while letting the
machine detect out-of-bounds accesses.

:meth:`Machine.run` executes the program's decode-once compiled form
(:mod:`repro.bpf.compiled`), one closure call per step; with
:mod:`repro.obs` on, it runs the timed closures instead, chosen once per
run as :meth:`~repro.bpf.verifier.Verifier.verify` chooses its loop.
Its outputs are pinned by a frozen golden (``tests/bpf/test_compiled.py``),
recorded while a decode-every-step reference interpreter still ran
beside it and agreed on every case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro import obs as _obs

from . import isa
from .program import Program, ProgramError

__all__ = ["Machine", "ExecutionError", "ExecutionResult", "STACK_BASE", "CTX_BASE"]

U64 = (1 << 64) - 1
U32 = (1 << 32) - 1

#: Flat-address-space bases. r10 starts at STACK_BASE + STACK_SIZE and the
#: valid stack bytes are [STACK_BASE, STACK_BASE + STACK_SIZE).
STACK_BASE = 0x1000_0000
CTX_BASE = 0x2000_0000

#: Zero template for in-place stack resets (see :meth:`Machine.reset`).
_ZERO_STACK = bytes(isa.STACK_SIZE)


class ExecutionError(RuntimeError):
    """A concrete run crashed: bad memory, bad register, or divergence."""

    def __init__(self, pc: int, message: str) -> None:
        super().__init__(f"pc {pc}: {message}")
        self.pc = pc


@dataclass
class ExecutionResult:
    """Outcome of a concrete run: r0 at ``exit`` and the steps taken."""

    return_value: int
    steps: int


def _s64(x: int) -> int:
    return x - (1 << 64) if x & (1 << 63) else x


def _s32(x: int) -> int:
    x &= U32
    return x - (1 << 32) if x & (1 << 31) else x


class Machine:
    """A concrete BPF machine: registers, stack, context memory."""

    def __init__(
        self,
        ctx: bytes = b"",
        helpers: Optional[Dict[int, Callable[..., int]]] = None,
        step_limit: int = 1_000_000,
    ) -> None:
        self.ctx = bytearray(ctx)
        self.stack = bytearray(isa.STACK_SIZE)
        self.helpers = helpers or {}
        self.step_limit = step_limit
        self.regs = [0] * isa.MAX_REG

    def reset(self, ctx: bytes) -> None:
        """Reuse this machine for a fresh run with new context bytes.

        Equivalent to constructing ``Machine(ctx=ctx, ...)`` with the
        same helpers/limits, but without reallocating the stack — the
        differential oracle resets one machine per replay input instead
        of building ``inputs_per_program`` machines per program.
        """
        self.ctx = bytearray(ctx)
        self.stack[:] = _ZERO_STACK

    # -- execution ----------------------------------------------------------

    def run(
        self,
        program: Program,
        r1: int = CTX_BASE,
        on_step: Optional[Callable[[int, List[int]], None]] = None,
    ) -> ExecutionResult:
        """Execute to ``exit``; returns r0.  ``r1`` defaults to the context
        pointer, matching the BPF calling convention.

        ``on_step`` is invoked with ``(insn_index, regs)`` before each
        instruction executes — the observation point differential oracles
        compare against the verifier's per-instruction entry states, and
        the one way to trace a run.  Without it the run takes a hot loop
        that makes one closure call per step and nothing else.  With obs
        on, each step's time goes to an ``interp`` timer.
        """
        compiled = program.compiled()
        code = compiled.timed_steps() if _obs.enabled() else compiled.steps
        slots = compiled.slots
        n = len(code)
        regs = self.regs = [0] * isa.MAX_REG
        regs[1] = r1
        regs[isa.FP_REG] = STACK_BASE + isa.STACK_SIZE

        limit = self.step_limit
        steps = 0
        idx = 0

        if on_step is None:
            # The replay hot loop: one closure call per step.
            while True:
                if steps >= limit:
                    pc = slots[idx] if idx < n else compiled.total_slots
                    raise ExecutionError(pc, "step limit exceeded")
                steps += 1
                if idx >= n:
                    raise ProgramError(
                        f"slot {compiled.total_slots} is not an "
                        f"instruction boundary"
                    )
                nxt = code[idx](self, regs)
                if nxt < 0:
                    return ExecutionResult(regs[0], steps)
                idx = nxt

        while True:
            if steps >= limit:
                pc = slots[idx] if idx < n else compiled.total_slots
                raise ExecutionError(pc, "step limit exceeded")
            steps += 1
            if idx >= n:
                raise ProgramError(
                    f"slot {compiled.total_slots} is not an "
                    f"instruction boundary"
                )
            on_step(idx, regs)
            nxt = code[idx](self, regs)
            if nxt < 0:
                return ExecutionResult(regs[0], steps)
            idx = nxt
