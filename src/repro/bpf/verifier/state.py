"""Abstract machine state for the BPF verifier.

A register is one of:

* ``NOT_INIT`` — never written; any read is rejected;
* ``SCALAR`` — a :class:`~repro.domains.product.ScalarValue` (tnum ×
  interval reduced product), the state where the paper's abstract
  operators do their work;
* ``PTR`` — a pointer into a memory region (stack frame or context) with
  an abstract scalar byte offset.

The stack is tracked in 8-byte slots, kernel-style: a slot is unwritten,
holds a spilled register (pointer or scalar preserved exactly), or holds
``MISC`` bytes (partially/odd-size written data, readable as an unknown
scalar).

Performance notes (the verifier is the fuzz pipeline's hot loop):

* :class:`RegState` and :class:`StackSlot` are immutable ``__slots__``
  classes with interned singletons for the stateless values
  (``NOT_INIT``, unknown scalar, ``UNWRITTEN``, ``MISC``) — joins and
  transfers compare them by identity before falling back to the lattice.
* :class:`AbstractState` is *copy-on-write*: :meth:`AbstractState.copy`
  shares the register list and stack map with the original and only
  clones the written side on the first mutation (``set_reg`` /
  ``set_slot``).  Block entry copies and branch splitting are therefore
  O(1) instead of O(registers + stack).
* Branch refinement that proves a register empty marks the whole state
  with an ``infeasible`` flag, so dead-edge pruning is one attribute
  read instead of a scan over every register.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional

from repro.bpf import isa
from repro.domains.product import ScalarValue

__all__ = ["RegKind", "Region", "RegState", "StackSlot", "AbstractState"]


class RegKind(enum.Enum):
    NOT_INIT = "not_init"
    SCALAR = "scalar"
    PTR = "ptr"


class Region(enum.Enum):
    STACK = "stack"
    CTX = "ctx"


class RegState:
    """One abstract register (immutable)."""

    __slots__ = ("kind", "scalar", "region", "offset")

    kind: RegKind
    scalar: Optional[ScalarValue]    # for SCALAR
    region: Optional[Region]         # for PTR
    offset: Optional[ScalarValue]    # for PTR: byte offset into region

    def __init__(
        self,
        kind: RegKind,
        scalar: Optional[ScalarValue] = None,
        region: Optional[Region] = None,
        offset: Optional[ScalarValue] = None,
    ) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "scalar", scalar)
        object.__setattr__(self, "region", region)
        object.__setattr__(self, "offset", offset)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("RegState instances are immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RegState):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.scalar == other.scalar
            and self.region == other.region
            and self.offset == other.offset
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.scalar, self.region, self.offset))

    def __repr__(self) -> str:
        return (
            f"RegState(kind={self.kind!r}, scalar={self.scalar!r}, "
            f"region={self.region!r}, offset={self.offset!r})"
        )

    # -- constructors --------------------------------------------------------

    @classmethod
    def not_init(cls) -> "RegState":
        return _NOT_INIT

    @classmethod
    def from_scalar(cls, value: ScalarValue) -> "RegState":
        return cls(RegKind.SCALAR, scalar=value)

    @classmethod
    def const(cls, value: int) -> "RegState":
        cached = _CONST_REGS.get(value)
        if cached is None:
            if len(_CONST_REGS) >= _CONST_REGS_MAX:
                _CONST_REGS.clear()
            cached = _CONST_REGS[value] = cls.from_scalar(
                ScalarValue.const(value)
            )
        return cached

    @classmethod
    def unknown(cls) -> "RegState":
        return _UNKNOWN

    @classmethod
    def pointer(cls, region: Region, offset: ScalarValue) -> "RegState":
        return cls(RegKind.PTR, region=region, offset=offset)

    @classmethod
    def stack_ptr(cls, offset: int = 0) -> "RegState":
        """Pointer to the frame top plus ``offset`` (r10 has offset 0)."""
        return cls.pointer(Region.STACK, ScalarValue.const(offset))

    @classmethod
    def ctx_ptr(cls) -> "RegState":
        return cls.pointer(Region.CTX, ScalarValue.const(0))

    # -- predicates ------------------------------------------------------------

    def is_init(self) -> bool:
        return self.kind is not RegKind.NOT_INIT

    def is_scalar(self) -> bool:
        return self.kind is RegKind.SCALAR

    def is_ptr(self) -> bool:
        return self.kind is RegKind.PTR

    # -- lattice ------------------------------------------------------------------

    def join(self, other: "RegState") -> "RegState":
        if self is other:
            return self
        if self.kind is not other.kind:
            # Mixed kinds (scalar vs pointer, or either vs NOT_INIT) cannot
            # be used safely after the merge; NOT_INIT rejects any use.
            return _NOT_INIT
        if self.kind is RegKind.NOT_INIT:
            return self
        if self.kind is RegKind.SCALAR:
            return RegState.from_scalar(self.scalar.join(other.scalar))
        if self.region is not other.region:
            # Pointers into different regions cannot be merged safely.
            return _NOT_INIT
        return RegState.pointer(self.region, self.offset.join(other.offset))

    def leq(self, other: "RegState") -> bool:
        if self is other:
            return True
        if other.kind is RegKind.NOT_INIT:
            return True  # NOT_INIT is ⊤ here: it forbids all uses
        if self.kind is not other.kind:
            return False
        if self.kind is RegKind.SCALAR:
            return self.scalar.leq(other.scalar)
        return self.region is other.region and self.offset.leq(other.offset)

    def __str__(self) -> str:
        if self.kind is RegKind.NOT_INIT:
            return "?"
        if self.kind is RegKind.SCALAR:
            return f"scalar({self.scalar})"
        return f"{self.region.value}+({self.offset})"


#: Interned stateless registers — every clobber and every mixed-kind join
#: produces one of these, so identity checks catch them everywhere.
_NOT_INIT = RegState(RegKind.NOT_INIT)
_UNKNOWN = RegState(RegKind.SCALAR, scalar=ScalarValue.top())
#: Interned constant registers (immediates dominate fuzz programs), one
#: bounded table emptied when full, as ``ScalarValue.const``'s is.
_CONST_REGS: Dict[int, RegState] = {}
_CONST_REGS_MAX = 256


class StackSlot:
    """Kernel stack-slot types (immutable; ``UNWRITTEN``/``MISC`` interned)."""

    UNWRITTEN = "unwritten"
    SPILL = "spill"
    MISC = "misc"

    __slots__ = ("kind", "value")

    kind: str
    value: Optional[RegState]

    def __init__(self, kind: str, value: Optional[RegState] = None) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("StackSlot instances are immutable")

    @classmethod
    def unwritten(cls) -> "StackSlot":
        return _UNWRITTEN_SLOT

    @classmethod
    def spill(cls, value: RegState) -> "StackSlot":
        return cls(cls.SPILL, value)

    @classmethod
    def misc(cls) -> "StackSlot":
        return _MISC_SLOT

    def join(self, other: "StackSlot") -> "StackSlot":
        if self is other:
            return self
        if self.kind == other.kind == StackSlot.SPILL:
            return StackSlot.spill(self.value.join(other.value))
        if self.kind == other.kind:
            return _INTERNED_SLOTS[self.kind]
        if StackSlot.UNWRITTEN in (self.kind, other.kind):
            return _UNWRITTEN_SLOT
        return _MISC_SLOT

    def leq(self, other: "StackSlot") -> bool:
        if self is other:
            return True
        if other.kind == StackSlot.UNWRITTEN:
            return True
        if self.kind == StackSlot.SPILL and other.kind == StackSlot.SPILL:
            return self.value.leq(other.value)
        if other.kind == StackSlot.MISC:
            return self.kind in (StackSlot.MISC, StackSlot.SPILL)
        return self.kind == other.kind

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StackSlot):
            return NotImplemented
        return self.kind == other.kind and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.kind, self.value))

    def __repr__(self) -> str:
        return f"StackSlot({self.kind!r}, {self.value!r})"

    def __str__(self) -> str:
        if self.kind == StackSlot.SPILL:
            return f"spill({self.value})"
        return self.kind


_UNWRITTEN_SLOT = StackSlot(StackSlot.UNWRITTEN)
_MISC_SLOT = StackSlot(StackSlot.MISC)
_INTERNED_SLOTS = {
    StackSlot.UNWRITTEN: _UNWRITTEN_SLOT,
    StackSlot.MISC: _MISC_SLOT,
}


class AbstractState:
    """Registers plus stack: the verifier's per-program-point state.

    Copy-on-write: :meth:`copy` shares the register list and stack map
    between the original and the copy; the first mutation on either side
    (through :meth:`set_reg` / :meth:`set_slot` / the ``regs`` /
    ``stack`` properties) clones the shared container.  All mutation —
    including external callers' — must therefore go through those
    accessors; the properties materialize ownership precisely so legacy
    ``state.regs[i] = ...`` call sites stay safe.
    """

    __slots__ = ("_regs", "_stack", "_regs_shared", "_stack_shared", "infeasible")

    def __init__(
        self,
        regs: Optional[List[RegState]] = None,
        stack: Optional[Dict[int, StackSlot]] = None,
    ) -> None:
        self._regs = regs if regs is not None else [_NOT_INIT] * isa.MAX_REG
        # Slot keys are negative frame offsets aligned to 8: -8, ..., -512.
        self._stack = stack if stack is not None else {}
        self._regs_shared = False
        self._stack_shared = False
        #: set when branch refinement proves a register empty — the state
        #: then describes no execution and its edge must be pruned.
        self.infeasible = False

    # -- containers ----------------------------------------------------------

    @property
    def regs(self) -> List[RegState]:
        """The register list, unshared: callers may mutate it in place."""
        if self._regs_shared:
            self._regs = list(self._regs)
            self._regs_shared = False
        return self._regs

    @property
    def stack(self) -> Dict[int, StackSlot]:
        """The stack map, unshared: callers may mutate it in place."""
        if self._stack_shared:
            self._stack = dict(self._stack)
            self._stack_shared = False
        return self._stack

    def get_reg(self, index: int) -> RegState:
        return self._regs[index]

    def set_reg(self, index: int, value: RegState) -> None:
        regs = self._regs
        if self._regs_shared:
            regs = self._regs = list(regs)
            self._regs_shared = False
        regs[index] = value

    def slot_for(self, offset: int) -> StackSlot:
        return self._stack.get(offset, _UNWRITTEN_SLOT)

    def set_slot(self, offset: int, slot: StackSlot) -> None:
        stack = self._stack
        if self._stack_shared:
            stack = self._stack = dict(stack)
            self._stack_shared = False
        stack[offset] = slot

    # -- construction / copying ----------------------------------------------

    @classmethod
    def entry_state(cls) -> "AbstractState":
        """The state at program entry: r1 = ctx pointer, r10 = frame ptr."""
        state = cls()
        state._regs[1] = RegState.ctx_ptr()
        state._regs[isa.FP_REG] = RegState.stack_ptr()
        return state

    def copy(self) -> "AbstractState":
        new = AbstractState.__new__(AbstractState)
        new._regs = self._regs
        new._stack = self._stack
        new._regs_shared = True
        new._stack_shared = True
        new.infeasible = self.infeasible
        self._regs_shared = True
        self._stack_shared = True
        return new

    # -- lattice ---------------------------------------------------------------

    def join(self, other: "AbstractState") -> "AbstractState":
        if self is other or (
            self._regs is other._regs and self._stack is other._stack
        ):
            return self.copy()
        regs = [a.join(b) for a, b in zip(self._regs, other._regs)]
        stack: Dict[int, StackSlot] = {}
        for key in set(self._stack) | set(other._stack):
            merged = self.slot_for(key).join(other.slot_for(key))
            if merged.kind != StackSlot.UNWRITTEN:
                stack[key] = merged
        return AbstractState(regs, stack)

    def leq(self, other: "AbstractState") -> bool:
        if self is other or (
            self._regs is other._regs and self._stack is other._stack
        ):
            return True
        if not all(a.leq(b) for a, b in zip(self._regs, other._regs)):
            return False
        if self._stack is other._stack:
            return True
        return all(
            self.slot_for(k).leq(other.slot_for(k))
            for k in set(self._stack) | set(other._stack)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AbstractState):
            return NotImplemented
        return self._regs == other._regs and self._stack == other._stack

    def __str__(self) -> str:
        regs = ", ".join(
            f"r{i}={r}" for i, r in enumerate(self._regs) if r.is_init()
        )
        stack = ", ".join(f"[{k}]={v}" for k, v in sorted(self._stack.items()))
        return f"{{{regs}}} stack{{{stack}}}"
