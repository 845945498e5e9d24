"""Constant-offset memory accesses at every offset around each region.

Each case walks one ``ldx``, ``stx`` or ``st`` of size 1, 2, 4 or 8
through r10, through a derived stack pointer (``r6 = r10; r6 -= 16``)
and through the context pointer r1, at every offset from just below its
region to just above it, and checks the verdict, the exact rejection
reason and what the access leaves behind against the rules below,
written out on plain integers:

* stack: the window ``[t, t + size)`` lies in ``[-STACK_SIZE, 0)``;
* context: the window lies in ``[0, ctx_size)``;
* both: ``t`` is a multiple of ``size``;
* a stack load needs a written slot; only an aligned 8-byte load
  returns a spilled register as it was spilled, and a partial load of
  a spilled pointer is rejected;
* only an aligned 8-byte store spills a register; a narrower one turns
  the slots it touches into ``MISC`` and cannot store a pointer;
* no pointer is stored into the context.
"""

from typing import Dict, List, Optional, Tuple

import pytest

from repro.bpf import isa
from repro.bpf.builder import ProgramBuilder
from repro.bpf.verifier import Verifier
from repro.bpf.verifier.state import RegState, StackSlot
from repro.domains.product import ScalarValue

U64 = (1 << 64) - 1
CTX_SIZE = 64
SIZES = (1, 2, 4, 8)
IMM = 7

#: base register -> (region, the base's own constant offset)
BASES: Dict[int, Tuple[str, int]] = {
    isa.FP_REG: ("stack", 0),
    6: ("stack", -16),
    1: ("ctx", 0),
}
#: what each kind of case does: a load into r2 (from an empty stack, or
#: after spilling a scalar or a pointer into the slot it reads) or a
#: store of a scalar register, an immediate or a pointer
STACK_KINDS = ("load", "load_spilled_scalar", "load_spilled_ptr",
               "store_reg", "store_imm", "store_ptr")
CTX_KINDS = ("load", "store_reg", "store_imm", "store_ptr")

#: the registers the prelude leaves in r1 and r10
CTX_PTR = RegState.ctx_ptr()
STACK_PTR = RegState.stack_ptr()


def totals(region: str) -> range:
    """Every region offset the sweep tries, 8 bytes past each end."""
    if region == "stack":
        return range(-isa.STACK_SIZE - 8, 8 + 1)
    return range(-8, CTX_SIZE + 8 + 1)


def window_error(region: str, t: int, size: int) -> Optional[str]:
    if region == "stack":
        if t < -isa.STACK_SIZE:
            return (f"stack access below frame: offset may be {t} "
                    f"< -{isa.STACK_SIZE}")
        if t + size > 0:
            return f"stack access above frame top: offset may reach {t}+{size}"
    else:
        if t < 0:
            return f"ctx access below start: offset may be {t}"
        if t + size > CTX_SIZE:
            return (f"ctx access out of bounds: offset may reach "
                    f"{t}+{size} > {CTX_SIZE}")
    if t % size:
        return (f"misaligned {region} access: offset {t & U64:064b} "
                f"not {size}-byte aligned")
    return None


Outcome = Tuple[Optional[int], Optional[str], object]


def build(base: int, kind: str, t: int, size: int):
    """The case's program and the index of its access instruction."""
    region, base_off = BASES[base]
    off = t - base_off
    b = ProgramBuilder()
    n = 0
    if base == 6:
        b.mov_reg(6, isa.FP_REG).alu_imm("sub", 6, 16)
        n += 2
    slot = t // 8 * 8
    if kind.startswith("load_spilled") and -isa.STACK_SIZE <= slot < 0:
        if kind == "load_spilled_scalar":
            b.st_imm(isa.FP_REG, slot, IMM, size=8)
        else:
            b.stx(isa.FP_REG, slot, 1, size=8)
        n += 1
    if kind.startswith("load"):
        b.ldx(2, base, off, size=size)
    elif kind == "store_reg":
        b.mov_imm(2, IMM)
        n += 1
        b.stx(base, off, 2, size=size)
    elif kind == "store_imm":
        b.st_imm(base, off, IMM, size=size)
    else:
        b.stx(base, off, isa.FP_REG if region == "ctx" else 1, size=size)
    b.mov_imm(0, 0).exit_()
    return b.build(), n


def walk(base: int, kind: str, t: int, size: int) -> Outcome:
    """Verdict as ``(error index, reason, left behind)``: ``r2`` after a
    load, the stack after a stack store, else None."""
    program, _ = build(base, kind, t, size)
    verifier = Verifier(ctx_size=CTX_SIZE, collect_states=True)
    result = verifier.verify(program)
    if not result.ok:
        err = result.errors[0]
        return err.insn_index, err.reason, None
    at_exit = verifier.states_at[len(program.insns) - 1]
    if kind.startswith("load"):
        return None, None, at_exit.get_reg(2)
    if BASES[base][0] == "stack":
        return None, None, dict(at_exit.stack)
    return None, None, None


def expect(base: int, kind: str, t: int, size: int) -> Outcome:
    region = BASES[base][0]
    _, idx = build(base, kind, t, size)
    reason = window_error(region, t, size)
    if reason is not None:
        return idx, reason, None
    if region == "ctx":
        if kind == "store_ptr":
            return idx, "pointer store to ctx would leak an address", None
        if kind != "load":
            return None, None, None
        if size == 8:
            return None, None, RegState.unknown()
        return None, None, RegState.from_scalar(
            ScalarValue.from_range(0, (1 << (8 * size)) - 1)
        )
    whole = size == 8 and t % 8 == 0
    if kind == "load":
        return idx, f"read of uninitialized stack at {t}", None
    if kind.startswith("load_spilled"):
        spilled = RegState.const(IMM) if kind.endswith("scalar") else CTX_PTR
        if whole:
            return None, None, spilled
        if spilled.is_ptr():
            return idx, "partial read of spilled pointer", None
        return None, None, RegState.unknown()
    value = CTX_PTR if kind == "store_ptr" else RegState.const(IMM)
    if whole:
        return None, None, {t: StackSlot.spill(value)}
    if value.is_ptr():
        return idx, "cannot spill pointer with partial-width store", None
    first, last = t // 8 * 8, (t + size - 1) // 8 * 8
    return None, None, {s: StackSlot.misc() for s in range(first, last + 8, 8)}


CASES = [
    pytest.param(base, kind, id=f"r{base}-{kind}")
    for base, (region, _) in BASES.items()
    for kind in (STACK_KINDS if region == "stack" else CTX_KINDS)
]


@pytest.mark.parametrize("base,kind", CASES)
def test_constant_offset_verdicts(base, kind):
    region = BASES[base][0]
    mismatches: List[Tuple[int, int, Outcome, Outcome]] = []
    checked = 0
    for t in totals(region):
        for size in SIZES:
            got, want = walk(base, kind, t, size), expect(base, kind, t, size)
            checked += 1
            if got != want:
                mismatches.append((t, size, got, want))
    assert checked == len(totals(region)) * len(SIZES)
    assert not mismatches, (
        f"{len(mismatches)} of {checked} accesses differ; first: "
        f"{mismatches[:3]}"
    )


def test_sweep_reaches_every_outcome():
    """The sweep is not vacuous: across sizes and offsets it accepts,
    and it rejects for each of the reasons above."""
    reasons = set()
    accepted = 0
    for base, (region, _) in BASES.items():
        for kind in (STACK_KINDS if region == "stack" else CTX_KINDS):
            for t in totals(region):
                for size in SIZES:
                    _, reason, _ = expect(base, kind, t, size)
                    if reason is None:
                        accepted += 1
                    else:
                        reasons.add(reason.split(":")[0].split(" at ")[0])
    assert accepted > 1000
    assert reasons == {
        "stack access below frame", "stack access above frame top",
        "misaligned stack access", "ctx access below start",
        "ctx access out of bounds", "misaligned ctx access",
        "read of uninitialized stack", "partial read of spilled pointer",
        "cannot spill pointer with partial-width store",
        "pointer store to ctx would leak an address",
    }
