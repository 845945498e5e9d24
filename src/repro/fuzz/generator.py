"""Seeded, typed random BPF program generator.

Emits *verifier-plausible* programs: instruction operands are chosen
against a shadow type state (which registers hold initialized scalars,
which hold pointers, which stack slots have been written), so the bulk of
generated programs get past the verifier's structural checks and give the
differential oracle real abstract states to compare against.  Programs
are always structurally valid (`Program` construction succeeds), acyclic
(forward branches only, so every run terminates), and end in ``exit``
with a scalar in r0.

Generation is driven by an :class:`OpcodeProfile` — a weighted mix over
instruction categories (64/32-bit ALU, branch diamonds with
reconvergence, stack and context loads/stores, constrained pointer
arithmetic, wide immediates).  Profiles let a campaign steer toward the
operators under test: ``alu`` stresses the paper's scalar transfer
functions, ``memory`` stresses bounds/alignment checking, ``branchy``
stresses branch refinement and state joins.

Everything is deterministic in the supplied seed: the same
``(seed, profile, max_insns)`` triple always yields bit-identical
bytecode, which is what makes campaign results reproducible and corpus
entries replayable.

Precision campaigns extend generation with *mutation feedback*
(:mod:`repro.fuzz.mutate`): shrunk near-miss and rejected-but-clean
programs re-enter as mutation seeds, spliced against freshly generated
donors and perturbed with the same :data:`INTERESTING_IMMS` /
:data:`INTERESTING_IMM64` boundary constants used here.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.bpf import isa
from repro.bpf.builder import ProgramBuilder
from repro.bpf.program import Program

__all__ = [
    "OpcodeProfile",
    "PROFILES",
    "GeneratedProgram",
    "ProgramGenerator",
    "generate_program",
    "INTERESTING_IMMS",
    "INTERESTING_IMM64",
]

U64 = (1 << 64) - 1

#: Immediates that exercise carries, sign boundaries, and tnum masks far
#: better than uniform draws do.  Shared with the mutation engine's
#: constant-nudge pass.
INTERESTING_IMMS = [
    0, 1, 2, 3, 7, 8, 15, 16, 31, 32, 63, 64, 255, 256, 4095, 4096,
    0x7FFF, 0x8000, 0xFFFF, 0x7FFF_FFFF, -1, -2, -7, -8, -256, -4096,
    -0x8000_0000,
]

INTERESTING_IMM64 = [
    0, 1, (1 << 32) - 1, 1 << 32, (1 << 63) - 1, 1 << 63, U64,
    0xAAAA_AAAA_AAAA_AAAA, 0x5555_5555_5555_5555, 0x0123_4567_89AB_CDEF,
]

#: ALU ops applied between scalars (NEG is emitted separately; MOV has
#: its own categories).
_SCALAR_OPS = [
    "add", "sub", "mul", "div", "mod", "and", "or", "xor",
]
_SHIFT_OPS = ["lsh", "rsh", "arsh"]

_COND_JUMPS = [
    "jeq", "jne", "jgt", "jge", "jlt", "jle", "jset",
    "jsgt", "jsge", "jslt", "jsle",
]


@dataclass(frozen=True)
class OpcodeProfile:
    """A weighted opcode mix; weights need not be normalized."""

    name: str
    weights: Dict[str, float]

    def categories(self) -> Tuple[List[str], List[float]]:
        cats = sorted(self.weights)
        return cats, [self.weights[c] for c in cats]


PROFILES: Dict[str, OpcodeProfile] = {
    "mixed": OpcodeProfile("mixed", {
        "alu_imm": 4.0, "alu_reg": 3.0, "alu32": 2.0, "shift": 2.0,
        "mov_imm": 3.0, "mov_reg": 1.5, "lddw": 1.0, "neg": 0.5,
        "branch": 2.0, "stack_store": 2.0, "stack_load": 1.5,
        "ctx_load": 1.5, "ptr_arith": 1.0, "var_ptr_load": 0.5,
    }),
    "alu": OpcodeProfile("alu", {
        "alu_imm": 6.0, "alu_reg": 5.0, "alu32": 3.0, "shift": 3.0,
        "mov_imm": 3.0, "mov_reg": 1.0, "lddw": 2.0, "neg": 1.0,
        "branch": 1.0,
    }),
    "memory": OpcodeProfile("memory", {
        "alu_imm": 2.0, "mov_imm": 2.0, "stack_store": 4.0,
        "stack_load": 3.0, "ctx_load": 3.0, "ptr_arith": 2.5,
        "var_ptr_load": 1.5, "branch": 1.0,
    }),
    "branchy": OpcodeProfile("branchy", {
        "alu_imm": 3.0, "alu_reg": 2.0, "mov_imm": 2.0,
        "branch": 5.0, "stack_store": 1.0, "ctx_load": 1.0,
    }),
}


@dataclass
class GeneratedProgram:
    """A generated program plus the recipe that reproduces it."""

    program: Program
    seed: int
    profile: str
    max_insns: int
    ctx_size: int = 64


@dataclass
class _TypeState:
    """Shadow types tracked during generation (mirrors verifier kinds).

    ``scalars`` — registers provably holding initialized scalars;
    ``stack_ptrs`` — registers holding a stack pointer at a *known
    constant* frame offset; ``ctx_ok`` — whether r1 still holds the
    context pointer; ``written`` — 8-aligned frame offsets whose slot has
    been fully written.
    """

    scalars: Set[int] = field(default_factory=set)
    stack_ptrs: Dict[int, int] = field(default_factory=dict)
    ctx_ok: bool = True
    written: Set[int] = field(default_factory=set)

    def copy(self) -> "_TypeState":
        return _TypeState(
            set(self.scalars), dict(self.stack_ptrs), self.ctx_ok,
            set(self.written),
        )

    def merge(self, other: "_TypeState") -> "_TypeState":
        """Post-reconvergence state: facts that hold on *both* arms.

        Mirrors the verifier's join: mixed kinds become unusable, stack
        pointers survive only when both arms agree on the offset, and a
        slot counts as written only when every path wrote it.
        """
        ptrs = {
            r: off for r, off in self.stack_ptrs.items()
            if other.stack_ptrs.get(r) == off
        }
        return _TypeState(
            self.scalars & other.scalars,
            ptrs,
            self.ctx_ok and other.ctx_ok,
            self.written & other.written,
        )

    def clobber(self, reg: int) -> None:
        self.scalars.discard(reg)
        self.stack_ptrs.pop(reg, None)
        if reg == 1:
            self.ctx_ok = False


class ProgramGenerator:
    """Generates one program per :meth:`generate` call, deterministically.

    A generator instance is cheap; campaigns build one per program index
    so results are independent of worker scheduling.
    """

    def __init__(
        self,
        seed: int,
        profile: str = "mixed",
        max_insns: int = 32,
        ctx_size: int = 64,
    ) -> None:
        if profile not in PROFILES:
            raise KeyError(
                f"unknown profile {profile!r}; choose from {sorted(PROFILES)}"
            )
        self.seed = seed
        self.profile = PROFILES[profile]
        self._plan = _PLANS[profile]
        self.max_insns = max(4, max_insns)
        self.ctx_size = ctx_size
        self._rng = random.Random(seed)
        self._label = 0

    # -- public API ---------------------------------------------------------

    def generate(self) -> GeneratedProgram:
        rng = self._rng
        b = ProgramBuilder()
        state = _TypeState()
        self._label = 0

        # r0 starts as a scalar so any early exit is well-typed.
        b.mov_imm(0, self._imm(rng))
        state.scalars.add(0)

        budget = self.max_insns - 2  # entry mov + trailing exit
        self._sequence(b, rng, state, budget, depth=0)

        if 0 not in state.scalars:
            b.mov_imm(0, self._imm(rng))
        b.exit_()
        program = b.build()
        return GeneratedProgram(
            program, self.seed, self.profile.name, self.max_insns,
            self.ctx_size,
        )

    # -- sequencing ---------------------------------------------------------

    def _sequence(
        self,
        b: ProgramBuilder,
        rng: random.Random,
        state: _TypeState,
        budget: int,
        depth: int,
    ) -> int:
        """Emit instructions worth roughly ``budget`` slots; returns cost."""
        emitters, cum_weights = self._plan
        spent = 0
        while spent < budget:
            emit = rng.choices(emitters, cum_weights=cum_weights)[0]
            remaining = budget - spent
            cost = emit(self, b, rng, state, remaining, depth)
            if cost == 0:
                # Category wasn't applicable (no operands / no budget):
                # fall back to something always emittable.
                cost = self._emit_mov_imm(b, rng, state, remaining, depth)
            spent += cost
        return spent

    def _fresh_label(self, tag: str) -> str:
        self._label += 1
        return f"{tag}_{self._label}"

    # -- operand selection --------------------------------------------------

    @staticmethod
    def _imm(rng: random.Random) -> int:
        if rng.random() < 0.6:
            return rng.choice(INTERESTING_IMMS)
        return rng.randint(-(1 << 31), (1 << 31) - 1)

    def _scalar_reg(
        self, rng: random.Random, state: _TypeState
    ) -> Optional[int]:
        if not state.scalars:
            return None
        return rng.choice(sorted(state.scalars))

    def _writable_reg(self, rng: random.Random, state: _TypeState) -> int:
        """A register we may overwrite.  r10 is never writable; r1 is
        preserved most of the time so context loads stay available."""
        pool = [r for r in range(10) if r != 1 or rng.random() < 0.05]
        return rng.choice(pool)

    # -- categories ----------------------------------------------------------
    # Each _emit_* returns the number of instructions emitted (0 = not
    # applicable in the current state/budget).

    def _emit_mov_imm(self, b, rng, state: _TypeState, budget, depth) -> int:
        dst = self._writable_reg(rng, state)
        b.mov_imm(dst, self._imm(rng), is64=rng.random() < 0.8)
        state.clobber(dst)
        state.scalars.add(dst)
        return 1

    def _emit_mov_reg(self, b, rng, state: _TypeState, budget, depth) -> int:
        src = self._scalar_reg(rng, state)
        if src is None:
            return 0
        dst = self._writable_reg(rng, state)
        b.mov_reg(dst, src)
        state.clobber(dst)
        state.scalars.add(dst)
        return 1

    def _emit_lddw(self, b, rng, state: _TypeState, budget, depth) -> int:
        if budget < 2:
            return 0
        dst = self._writable_reg(rng, state)
        imm = (
            rng.choice(INTERESTING_IMM64)
            if rng.random() < 0.6
            else rng.randint(0, U64)
        )
        b.ld_imm64(dst, imm)
        state.clobber(dst)
        state.scalars.add(dst)
        return 2

    def _emit_alu_imm(self, b, rng, state: _TypeState, budget, depth) -> int:
        dst = self._scalar_reg(rng, state)
        if dst is None:
            return 0
        b.alu_imm(rng.choice(_SCALAR_OPS), dst, self._imm(rng))
        return 1

    def _emit_alu_reg(self, b, rng, state: _TypeState, budget, depth) -> int:
        dst = self._scalar_reg(rng, state)
        src = self._scalar_reg(rng, state)
        if dst is None or src is None:
            return 0
        b.alu_reg(rng.choice(_SCALAR_OPS), dst, src)
        return 1

    def _emit_alu32(self, b, rng, state: _TypeState, budget, depth) -> int:
        dst = self._scalar_reg(rng, state)
        if dst is None:
            return 0
        if rng.random() < 0.5:
            src = self._scalar_reg(rng, state)
            if src is None:
                return 0
            b.alu_reg(rng.choice(_SCALAR_OPS), dst, src, is64=False)
        else:
            b.alu_imm(rng.choice(_SCALAR_OPS), dst, self._imm(rng), is64=False)
        return 1

    def _emit_neg(self, b, rng, state: _TypeState, budget, depth) -> int:
        dst = self._scalar_reg(rng, state)
        if dst is None:
            return 0
        b.neg(dst, is64=rng.random() < 0.8)
        return 1

    def _emit_shift(self, b, rng, state: _TypeState, budget, depth) -> int:
        """Shifts with in-range amounts (kernel rejects width-or-larger).

        Immediate shifts draw from ``[0, width)``.  Register shifts mask
        the amount first, keeping the concrete modular-shift semantics
        and the verifier's bounded-join in agreement.
        """
        dst = self._scalar_reg(rng, state)
        if dst is None:
            return 0
        op = rng.choice(_SHIFT_OPS)
        is64 = rng.random() < 0.7
        width = 64 if is64 else 32
        if rng.random() < 0.7 or len(state.scalars) < 2:
            b.alu_imm(op, dst, rng.randrange(width), is64=is64)
            return 1
        amt = self._scalar_reg(rng, state)
        if amt is None or amt == dst:
            b.alu_imm(op, dst, rng.randrange(width), is64=is64)
            return 1
        if budget < 2:
            return 0
        b.alu_imm("and", amt, width - 1)
        b.alu_reg(op, dst, amt, is64=is64)
        return 2

    def _emit_branch(self, b, rng, state: _TypeState, budget, depth) -> int:
        """A forward if/else diamond with reconvergence.

        ::

            jcc  rX, K, then_n
            ... else arm ...
            ja   join_n
          then_n:
            ... then arm ... [maybe mov r0, K; exit]
          join_n:
        """
        if budget < 6 or depth >= 3:
            return 0
        dst = self._scalar_reg(rng, state)
        if dst is None:
            return 0
        then_label = self._fresh_label("then")
        join_label = self._fresh_label("join")
        op = rng.choice(_COND_JUMPS)
        is64 = rng.random() < 0.8
        src = self._scalar_reg(rng, state)
        if src is not None and src != dst and rng.random() < 0.4:
            b.jmp_reg(op, dst, src, then_label, is64=is64)
        else:
            b.jmp_imm(op, dst, self._imm(rng), then_label, is64=is64)

        arm_budget = max(1, (budget - 3) // 2)
        else_state = state.copy()
        else_cost = self._sequence(b, rng, else_state, arm_budget, depth + 1)
        b.ja(join_label)

        b.label(then_label)
        then_state = state.copy()
        then_cost = self._sequence(b, rng, then_state, arm_budget, depth + 1)
        cost = 2 + else_cost + then_cost  # + jcc and ja
        if rng.random() < 0.15:
            # Early exit on the taken arm; the join stays reachable via
            # the else arm so no dead code is created.
            b.mov_imm(0, self._imm(rng))
            b.exit_()
            cost += 2
            # The merged state is whatever survives the else arm.
            merged = else_state
        else:
            merged = else_state.merge(then_state)
        b.label(join_label)

        state.scalars = merged.scalars
        state.stack_ptrs = merged.stack_ptrs
        state.ctx_ok = merged.ctx_ok
        state.written = merged.written
        return cost

    def _stack_slot(self, rng: random.Random) -> int:
        """An 8-aligned frame offset in a compact window near the top."""
        return -8 * rng.randint(1, 8)

    def _emit_stack_store(self, b, rng, state: _TypeState, budget, depth) -> int:
        off = self._stack_slot(rng)
        base_reg, base_off = self._stack_base(rng, state)
        rel = off - base_off
        if not -(1 << 15) <= rel < (1 << 15):
            return 0
        size = rng.choice([1, 2, 4, 8, 8])  # bias to full slots
        if size != 8 and rng.random() < 0.5:
            # Sub-word stores at aligned sub-offsets degrade the slot to
            # MISC — still a written slot for later loads.
            sub = rng.randrange(0, 8, size)
            rel += sub
        src = self._scalar_reg(rng, state)
        if src is not None and rng.random() < 0.7:
            b.stx(base_reg, rel, src, size=size)
        else:
            imm = self._imm(rng) & 0x7FFF_FFFF
            b.st_imm(base_reg, rel, imm, size=size)
        state.written.add(off)
        return 1

    def _emit_stack_load(self, b, rng, state: _TypeState, budget, depth) -> int:
        if not state.written:
            return 0
        off = rng.choice(sorted(state.written))
        base_reg, base_off = self._stack_base(rng, state)
        rel = off - base_off
        dst = self._writable_reg(rng, state)
        b.ldx(dst, base_reg, rel, size=8)
        state.clobber(dst)
        state.scalars.add(dst)
        return 1

    def _stack_base(
        self, rng: random.Random, state: _TypeState
    ) -> Tuple[int, int]:
        """r10 or a tracked derived stack pointer, with its frame offset."""
        if state.stack_ptrs and rng.random() < 0.4:
            reg = rng.choice(sorted(state.stack_ptrs))
            return reg, state.stack_ptrs[reg]
        return isa.FP_REG, 0

    def _emit_ptr_arith(self, b, rng, state: _TypeState, budget, depth) -> int:
        """Derive a stack pointer: rX = r10; rX -= 8k (constant)."""
        if budget < 2:
            return 0
        dst = rng.choice([r for r in range(6, 10)])
        delta = 8 * rng.randint(1, 8)
        b.mov_reg(dst, isa.FP_REG)
        b.alu_imm("sub", dst, delta)
        state.clobber(dst)
        state.stack_ptrs[dst] = -delta
        return 2

    def _emit_ctx_load(self, b, rng, state: _TypeState, budget, depth) -> int:
        if not state.ctx_ok:
            return 0
        sizes = [s for s in (1, 2, 4, 8) if s <= self.ctx_size]
        if not sizes:  # context too small to load from at all
            return 0
        size = rng.choice(sizes)
        off = rng.randrange(0, self.ctx_size - size + 1, size)
        dst = self._writable_reg(rng, state)
        if dst == 1:
            dst = 0
        b.ldx(dst, 1, off, size=size)
        state.clobber(dst)
        state.scalars.add(dst)
        return 1

    def _emit_var_ptr_load(
        self, b, rng, state: _TypeState, budget, depth
    ) -> int:
        """Constrained variable-offset pointer arithmetic.

        Writes a 4-slot window, masks a scalar to an 8-aligned value in
        ``[0, 24]``, adds it to a derived stack pointer, and loads.  The
        verifier proves this safe only because the tnum knows the low
        three bits are zero — the paper's marquee use case.
        """
        if budget < 8:
            return 0
        idx = self._scalar_reg(rng, state)
        if idx is None:
            return 0
        base = -64 + 8 * rng.randint(0, 4)  # window [base, base+24]
        for k in range(4):
            b.st_imm(isa.FP_REG, base + 8 * k, self._imm(rng) & 0xFFFF, size=8)
            state.written.add(base + 8 * k)
        ptr = rng.choice([r for r in range(6, 10) if r != idx])
        b.alu_imm("and", idx, 24)
        b.mov_reg(ptr, isa.FP_REG)
        b.alu_reg("add", ptr, idx)
        dst = rng.choice([r for r in range(6) if r != idx and r != 1])
        b.ldx(dst, ptr, base, size=8)
        state.clobber(ptr)
        state.clobber(dst)
        state.scalars.add(dst)
        return 8


def _sampling_plan(
    profile: OpcodeProfile,
) -> Tuple[List[Callable[..., int]], List[float]]:
    """A profile's emitters in category order, with their cumulative
    weights: what ``rng.choices`` would otherwise rebuild per draw."""
    cats, weights = profile.categories()
    return (
        [getattr(ProgramGenerator, f"_emit_{cat}") for cat in cats],
        list(itertools.accumulate(weights)),
    )


#: Per profile name, resolved once instead of per instruction.
_PLANS = {name: _sampling_plan(p) for name, p in PROFILES.items()}


def generate_program(
    seed: int,
    profile: str = "mixed",
    max_insns: int = 32,
    ctx_size: int = 64,
) -> GeneratedProgram:
    """Generate one program from a seed (convenience wrapper)."""
    return ProgramGenerator(seed, profile, max_insns, ctx_size).generate()
