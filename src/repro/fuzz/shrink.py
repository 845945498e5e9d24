"""Delta-debugging minimizer for counterexample programs.

Given a program and a predicate ("still fails the oracle"), repeatedly
deletes instruction chunks ddmin-style and simplifies immediates until a
fixpoint.  Deleting from a BPF program is not free — jump offsets count
encoding slots — so candidates are rebuilt by *retargeting*: every kept
jump's absolute target is recomputed against the surviving instruction
list (a jump whose target was deleted falls through to the next survivor).
Structurally invalid candidates (bad offsets, no exit) are simply skipped;
the predicate is only consulted on well-formed programs.

The result is the smallest failing witness the pass structure can reach —
in practice a handful of instructions, which is what makes fuzzer
failures actionable.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Optional

from repro.bpf import isa
from repro.bpf.insn import Instruction
from repro.bpf.program import Program, ProgramError

__all__ = ["shrink_program", "ShrinkStats", "slot_prefix"]

Predicate = Callable[[Program], bool]


@dataclasses.dataclass
class ShrinkStats:
    """Bookkeeping for one shrink run."""

    initial_insns: int = 0
    final_insns: int = 0
    candidates_tried: int = 0
    candidates_failing: int = 0


def slot_prefix(insns: List[Instruction]) -> List[int]:
    """Encoding-slot address of each instruction (shared with mutate)."""
    slots, s = [], 0
    for insn in insns:
        slots.append(s)
        s += insn.slots()
    return slots


def _jump_target_index(
    insns: List[Instruction], slots: List[int], j: int
) -> Optional[int]:
    """Absolute instruction index a jump at ``j`` targets (None = invalid)."""
    insn = insns[j]
    target_slot = slots[j] + insn.slots() + insn.off
    try:
        return slots.index(target_slot)
    except ValueError:
        return None


def is_retargetable_jump(insn: Instruction) -> bool:
    """A jump with a target offset: not ``exit``, not ``call`` (shared
    with mutate)."""
    return (
        insn.is_jump()
        and not insn.is_exit()
        and isa.BPF_OP(insn.opcode) != isa.JMP_CALL
    )


def rebuild_without(
    insns: List[Instruction], keep: List[int]
) -> Optional[Program]:
    """Build a program from the ``keep`` indices, retargeting jumps.

    Returns ``None`` when the candidate cannot be made structurally
    valid (e.g. a jump would point past the end, or offsets overflow).
    """
    old_slots = slot_prefix(insns)
    keep_set = set(keep)

    # Old target index for each kept jump, resolved before deletion.
    old_targets = {}
    for j in keep:
        if is_retargetable_jump(insns[j]):
            t = _jump_target_index(insns, old_slots, j)
            if t is None:
                return None
            old_targets[j] = t

    # Map old index -> new index; deleted targets fall through to the
    # next surviving instruction.
    new_index = {}
    kept_sorted = sorted(keep_set)
    for new_i, old_i in enumerate(kept_sorted):
        new_index[old_i] = new_i

    def resolve(old_target: int) -> Optional[int]:
        for old_i in kept_sorted:
            if old_i >= old_target:
                return new_index[old_i]
        return None

    new_insns = [insns[i] for i in kept_sorted]
    new_slots = slot_prefix(new_insns)
    for j, old_t in old_targets.items():
        new_j = new_index[j]
        new_t = resolve(old_t)
        if new_t is None:
            return None
        off = new_slots[new_t] - (new_slots[new_j] + new_insns[new_j].slots())
        if not -(1 << 15) <= off < (1 << 15):
            return None
        new_insns[new_j] = dataclasses.replace(new_insns[new_j], off=off)

    try:
        return Program(new_insns)
    except (ProgramError, ValueError):
        return None


def _try(
    candidate: Optional[Program], predicate: Predicate, stats: ShrinkStats
) -> bool:
    if candidate is None:
        return False
    stats.candidates_tried += 1
    if predicate(candidate):
        stats.candidates_failing += 1
        return True
    return False


def _delete_pass(
    insns: List[Instruction],
    predicate: Predicate,
    stats: ShrinkStats,
    max_candidates: int,
) -> List[Instruction]:
    """ddmin: delete chunks of halving size until 1-instruction granularity."""
    chunk = max(1, len(insns) // 2)
    while chunk >= 1:
        i = 0
        while i < len(insns):
            if stats.candidates_tried >= max_candidates:
                return insns
            keep = [k for k in range(len(insns)) if not (i <= k < i + chunk)]
            if not keep:
                i += chunk
                continue
            candidate = rebuild_without(insns, keep)
            if _try(candidate, predicate, stats):
                insns = list(candidate.insns)
                # stay at the same position: the list shifted left
            else:
                i += chunk
        chunk //= 2
    return insns


def _simplify_pass(
    insns: List[Instruction],
    predicate: Predicate,
    stats: ShrinkStats,
    max_candidates: int,
) -> List[Instruction]:
    """Zero out immediates where the failure survives it."""
    for i, insn in enumerate(insns):
        if stats.candidates_tried >= max_candidates:
            break
        for simpler in (0, 1):
            if insn.imm == simpler or insn.is_jump():
                continue
            trial = list(insns)
            trial[i] = dataclasses.replace(insn, imm=simpler)
            candidate = rebuild_without(trial, list(range(len(trial))))
            if _try(candidate, predicate, stats):
                insns = trial
                break
    return insns


def shrink_program(
    program: Program,
    predicate: Predicate,
    max_rounds: int = 8,
    max_candidates: int = 2000,
) -> "tuple[Program, ShrinkStats]":
    """Minimize ``program`` while ``predicate`` (still-failing) holds.

    ``predicate`` must already be True for ``program`` and must be
    deterministic, or the shrink walk is meaningless.
    """
    stats = ShrinkStats(initial_insns=len(program.insns))
    insns = list(program.insns)
    for _ in range(max_rounds):
        before = len(insns)
        insns = _delete_pass(insns, predicate, stats, max_candidates)
        insns = _simplify_pass(insns, predicate, stats, max_candidates)
        if len(insns) == before or stats.candidates_tried >= max_candidates:
            break
    stats.final_insns = len(insns)
    return Program(insns), stats
