"""Mutation engine: feed corpus seeds back into the campaign.

A precision campaign keeps a pool of *seeds* — rejected-but-clean
programs (the verifier's false positives) and accepted programs with
large tightness deltas (near-misses), both shrunk to the smallest
program that keeps the property.  Each mutation derives a new program
from a seed:

* **splice** — a prefix of the seed joined to a suffix of a freshly
  generated donor program, with every surviving jump retargeted (or
  clamped to the trailing ``exit``) so the result stays structurally
  valid;
* **opcode tweak** — swap one scalar ALU op for another in the same
  family (``add`` → ``mul``), flip an instruction's 32/64-bit width, or
  swap a conditional-jump predicate (``jlt`` → ``jsle``);
* **constant nudge** — perturb one immediate: off-by-one, single bit
  flip, sign flip, or replacement with a boundary constant from
  :data:`~repro.fuzz.generator.INTERESTING_IMMS`.

Mutants stay near the imprecision frontier the seed found, which is what
makes the feedback loop productive: programs that *almost* verified
probe the same transfer functions from new angles.  Every mutation is
deterministic in the supplied RNG, preserving campaign reproducibility.
Mutants are always constructible :class:`Program` objects but are *not*
guaranteed acyclic — the verifier rejects any loop the splice created,
and campaign replays run under a small step limit.
"""

from __future__ import annotations

import dataclasses
import random
from typing import List, Optional

from repro.bpf import isa
from repro.bpf.insn import Instruction
from repro.bpf.program import Program, ProgramError

from .generator import INTERESTING_IMM64, INTERESTING_IMMS
from .shrink import is_retargetable_jump, slot_prefix

__all__ = ["MUTATION_KINDS", "mutate_program"]

U64 = (1 << 64) - 1

MUTATION_KINDS = ("splice", "opcode", "constant")

_EXIT = Instruction(isa.CLS_JMP | isa.JMP_EXIT)

_ALU_FAMILY = [
    isa.ALU_ADD, isa.ALU_SUB, isa.ALU_MUL, isa.ALU_DIV, isa.ALU_MOD,
    isa.ALU_AND, isa.ALU_OR, isa.ALU_XOR, isa.ALU_LSH, isa.ALU_RSH,
    isa.ALU_ARSH,
]
_JMP_FAMILY = [
    isa.JMP_JEQ, isa.JMP_JNE, isa.JMP_JGT, isa.JMP_JGE, isa.JMP_JLT,
    isa.JMP_JLE, isa.JMP_JSET, isa.JMP_JSGT, isa.JMP_JSGE, isa.JMP_JSLT,
    isa.JMP_JSLE,
]


def _normalize(
    insns: List[Instruction], max_insns: int
) -> Optional[Program]:
    """Make an instruction soup structurally valid.

    Truncates to ``max_insns``, guarantees a trailing ``exit``, and
    clamps any jump whose target is no longer an instruction boundary to
    that trailing ``exit``.  Returns ``None`` if a valid program cannot
    be built.
    """
    insns = list(insns[: max(1, max_insns)])
    if not insns[-1].is_exit():
        if len(insns) >= max_insns:
            insns[-1] = _EXIT
        else:
            insns.append(_EXIT)

    slots = slot_prefix(insns)
    boundaries = set(slots)
    exit_slot = slots[-1]
    for k, insn in enumerate(insns):
        if not is_retargetable_jump(insn):
            continue
        target = slots[k] + insn.slots() + insn.off
        if target not in boundaries:
            off = exit_slot - (slots[k] + insn.slots())
            if not -(1 << 15) <= off < (1 << 15):
                return None
            insns[k] = dataclasses.replace(insn, off=off)
    try:
        return Program(insns)
    except (ProgramError, ValueError):
        return None


def _splice(
    base: Program, donor: Program, rng: random.Random, max_insns: int
) -> Optional[Program]:
    a, b = list(base.insns), list(donor.insns)
    cut_a = rng.randint(1, len(a))
    cut_b = rng.randint(0, max(0, len(b) - 1))
    return _normalize(a[:cut_a] + b[cut_b:], max_insns)


def _opcode_tweak(
    base: Program, rng: random.Random, max_insns: int
) -> Optional[Program]:
    insns = list(base.insns)
    candidates = [
        k for k, insn in enumerate(insns)
        if (insn.is_alu() and isa.BPF_OP(insn.opcode) in _ALU_FAMILY)
        or (insn.is_cond_jump() and isa.BPF_OP(insn.opcode) in _JMP_FAMILY)
    ]
    if not candidates:
        return None
    k = rng.choice(candidates)
    insn = insns[k]
    op = isa.BPF_OP(insn.opcode)
    if insn.is_alu():
        if rng.random() < 0.25:
            # Flip the 32/64-bit width; op and operands survive as-is.
            opcode = insn.opcode ^ (isa.CLS_ALU ^ isa.CLS_ALU64)
        else:
            new_op = rng.choice([o for o in _ALU_FAMILY if o != op])
            opcode = (insn.opcode & 0x0F) | new_op
    else:
        new_op = rng.choice([o for o in _JMP_FAMILY if o != op])
        opcode = (insn.opcode & 0x0F) | new_op
    insns[k] = dataclasses.replace(insn, opcode=opcode)
    return _normalize(insns, max_insns)


def _nudged_imm(insn: Instruction, rng: random.Random) -> int:
    imm = insn.imm
    if insn.is_lddw():
        choice = rng.randrange(4)
        if choice == 0:
            value = rng.choice(INTERESTING_IMM64)
        elif choice == 1:
            value = imm + rng.choice((-1, 1))
        elif choice == 2:
            value = imm ^ (1 << rng.randrange(64))
        else:
            value = -imm
        return value & U64
    choice = rng.randrange(4)
    if choice == 0:
        value = rng.choice(INTERESTING_IMMS)
    elif choice == 1:
        value = imm + rng.choice((-1, 1))
    elif choice == 2:
        # Bit 31 included: the mask-and-sign-wrap below folds a flipped
        # sign bit back into s32 range.
        value = imm ^ (1 << rng.randrange(32))
    else:
        value = -imm
    value &= 0xFFFF_FFFF
    return value - (1 << 32) if value >= (1 << 31) else value


def _constant_nudge(
    base: Program, rng: random.Random, max_insns: int
) -> Optional[Program]:
    insns = list(base.insns)
    candidates = [
        k for k, insn in enumerate(insns)
        if insn.is_lddw()
        or insn.cls() == isa.CLS_ST
        or (insn.is_alu() and insn.uses_imm()
            and isa.BPF_OP(insn.opcode) != isa.ALU_NEG)
        or (insn.is_cond_jump() and insn.uses_imm())
    ]
    if not candidates:
        return None
    k = rng.choice(candidates)
    insns[k] = dataclasses.replace(insns[k], imm=_nudged_imm(insns[k], rng))
    return _normalize(insns, max_insns)


def mutate_program(
    base: Program,
    donor: Program,
    rng: random.Random,
    max_insns: int = 32,
) -> Program:
    """Derive one mutant of ``base``; falls back to ``base`` unchanged.

    ``donor`` supplies splice material (campaigns pass the freshly
    generated program for the same index, so determinism is preserved).
    """
    order = list(MUTATION_KINDS)
    rng.shuffle(order)
    for kind in order:
        if kind == "splice":
            mutant = _splice(base, donor, rng, max_insns)
        elif kind == "opcode":
            mutant = _opcode_tweak(base, rng, max_insns)
        else:
            mutant = _constant_nudge(base, rng, max_insns)
        if mutant is not None:
            return mutant
    return base
