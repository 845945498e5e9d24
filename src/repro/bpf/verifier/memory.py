"""Memory access checking — where tnum precision becomes safety.

The verifier must prove every load/store lands inside a valid region with
correct alignment *for all executions*.  Both checks consume the abstract
scalar state:

* **bounds**: the pointer's abstract byte offset contributes its
  ``[umin, umax]`` interval; the whole access window must fall inside the
  region;
* **alignment**: the kernel checks alignment with ``tnum_is_aligned`` on
  the offset's tnum — the tnum domain is what makes ``x & ~7`` provably
  8-aligned even when ``x`` itself is unknown.  This is exactly the "x ≤ 8"
  style inference the paper's introduction motivates.

Stack layout convention: the frame pointer (r10) is the *top* of the
frame; valid bytes are offsets ``[-STACK_SIZE, 0)`` relative to it.
"""

from __future__ import annotations

from typing import Optional

from repro.bpf import isa
from repro.core.tnum import Tnum
from repro.domains.interval import signed_bounds
from repro.domains.product import ScalarValue

from .errors import VerifierError
from .state import AbstractState, RegState, Region, StackSlot

__all__ = ["check_mem_access", "load_stack", "store_stack"]

U64 = (1 << 64) - 1


def _signed(value: int) -> int:
    """A 64-bit offset as a signed int (stack offsets are negative)."""
    return value - (1 << 64) if value >= (1 << 63) else value


def _check_window(
    region: Region, lo: int, hi: int, size: int, insn_index: int, ctx_size: int
) -> None:
    """Reject an access whose signed offset may lie anywhere in ``[lo, hi]``
    unless its whole window stays inside the region.

    For the context the upper bound is also the unsigned one: once
    ``lo >= 0`` the offset's interval lies below 2**63.
    """
    if region is Region.STACK:
        if lo < -isa.STACK_SIZE:
            raise VerifierError(
                insn_index,
                f"stack access below frame: offset may be {lo} < -{isa.STACK_SIZE}",
            )
        if hi + size > 0:
            raise VerifierError(
                insn_index,
                f"stack access above frame top: offset may reach {hi}+{size}",
            )
    elif region is Region.CTX:
        if lo < 0:
            raise VerifierError(
                insn_index, f"ctx access below start: offset may be {lo}"
            )
        if hi + size > ctx_size:
            raise VerifierError(
                insn_index,
                f"ctx access out of bounds: offset may reach "
                f"{hi}+{size} > {ctx_size}",
            )
    else:  # pragma: no cover - regions are exhaustive
        raise VerifierError(insn_index, f"unknown region {region}")


def check_mem_access(
    state: AbstractState,
    ptr: RegState,
    insn_offset: int,
    size: int,
    insn_index: int,
    ctx_size: int,
) -> Optional[int]:
    """Check one load/store against the pointed-to region.

    ``insn_offset`` is the constant displacement encoded in the
    instruction; the register's own abstract offset is added to it.  The
    window must fall inside the region for every offset the pointer may
    hold, and the offset must be aligned to ``size``: the kernel's
    ``tnum_is_aligned(reg->var_off, size)``, which needs the tnum's low
    bits *known* zero.

    A pointer whose offset is a constant (kernel ``tnum_is_const``) is
    checked on plain ints, and the access's signed offset into the region
    is returned for :func:`load_stack` / :func:`store_stack` to reuse;
    a variable offset returns None.
    """
    if not ptr.is_ptr():
        raise VerifierError(insn_index, "memory access through non-pointer")
    region = ptr.region
    base = ptr.offset.reduced_const()
    if base is not None:
        off = _signed((base + insn_offset) & U64)
        _check_window(region, off, off, size, insn_index, ctx_size)
        if not off & (size - 1):
            return off
        offset = Tnum.const(off)  # built for the message only
    else:
        total = ptr.offset.add(ScalarValue.const(insn_offset))
        iv = total.interval
        lo, hi = signed_bounds(iv.umin, iv.umax, iv.width)
        _check_window(region, lo, hi, size, insn_index, ctx_size)
        offset = total.tnum
        if offset.is_aligned(size):
            return None
    raise VerifierError(
        insn_index,
        f"misaligned {region.value} access: offset {offset} not {size}-byte aligned",
    )


def store_stack(
    state: AbstractState,
    ptr: RegState,
    insn_offset: int,
    size: int,
    value: RegState,
    insn_index: int,
    off: Optional[int],
) -> None:
    """Update stack-slot tracking for a store (bounds already checked).

    ``off`` is the signed frame offset :func:`check_mem_access` returned,
    or None to derive it here from ``ptr`` and ``insn_offset``.
    """
    if off is None:
        total = ptr.offset.add(ScalarValue.const(insn_offset))
        if not total.is_const():
            # Variable-offset stack writes poison precision; the classic
            # verifier rejects variable writes outright. We do the same.
            raise VerifierError(
                insn_index, "variable-offset stack write/read of tracked slot"
            )
        off = _signed(total.const_value())
    slot = (off // 8) * 8  # base of the containing 8-byte slot
    if size == 8 and off % 8 == 0:
        state.set_slot(slot, StackSlot.spill(value))
        return
    if value.is_ptr():
        raise VerifierError(
            insn_index, "cannot spill pointer with partial-width store"
        )
    # Partial writes degrade every touched slot to MISC.
    last = ((off + size - 1) // 8) * 8
    misc = StackSlot.misc()
    for s in range(slot, last + 8, 8):
        state.set_slot(s, misc)


def load_stack(
    state: AbstractState,
    ptr: RegState,
    insn_offset: int,
    size: int,
    insn_index: int,
    off: Optional[int],
) -> RegState:
    """Read back a tracked stack slot (bounds already checked).

    ``off`` is as for :func:`store_stack`.  Constant offsets read
    precisely (spilled registers come back exactly).  Variable offsets
    are permitted — this is where tnum alignment shines — provided every
    slot the window may touch is initialized and holds no pointer; the
    result is then an unknown scalar (kernel
    ``check_stack_range_initialized`` behaviour).
    """
    if off is None:
        total = ptr.offset.add(ScalarValue.const(insn_offset))
        if not total.is_const():
            return _load_variable(state, total, size, insn_index)
        off = _signed(total.const_value())
    entry = state.slot_for((off // 8) * 8)
    if entry.kind == StackSlot.UNWRITTEN:
        raise VerifierError(insn_index, f"read of uninitialized stack at {off}")
    if entry.kind == StackSlot.SPILL and size == 8 and off % 8 == 0:
        return entry.value
    if entry.kind == StackSlot.SPILL and entry.value.is_ptr():
        raise VerifierError(insn_index, "partial read of spilled pointer")
    return RegState.unknown()


def _load_variable(
    state: AbstractState, total: ScalarValue, size: int, insn_index: int
) -> RegState:
    """:func:`load_stack` at a variable offset ``total``."""
    iv = total.interval
    smin, smax = signed_bounds(iv.umin, iv.umax, iv.width)
    first = (smin // 8) * 8
    last = ((smax + size - 1) // 8) * 8
    for slot in range(first, last + 8, 8):
        entry = state.slot_for(slot)
        if entry.kind == StackSlot.UNWRITTEN:
            raise VerifierError(
                insn_index,
                f"variable-offset read may touch uninitialized stack at {slot}",
            )
        if entry.kind == StackSlot.SPILL and entry.value.is_ptr():
            raise VerifierError(
                insn_index,
                f"variable-offset read may leak spilled pointer at {slot}",
            )
    return RegState.unknown()
