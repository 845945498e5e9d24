"""Program container: instructions plus slot-accurate addressing.

BPF jump offsets count 8-byte *slots*, and ``lddw`` occupies two slots, so
a program needs a mapping between instruction indexes and slot addresses.
:class:`Program` owns that mapping, validates jump targets, and round-trips
to flat bytecode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional

from . import isa
from .insn import _LDDW_OPCODE, Instruction, decode_program, encode_program

if TYPE_CHECKING:
    from .compiled import CompiledProgram

__all__ = ["Program", "ProgramError"]


class ProgramError(ValueError):
    """Raised when a program is structurally invalid."""


@dataclass
class Program:
    """An ordered sequence of BPF instructions with label metadata."""

    insns: List[Instruction]
    labels: Dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.insns) > isa.MAX_INSNS:
            raise ProgramError(
                f"program too large: {len(self.insns)} > {isa.MAX_INSNS}"
            )
        # Dense arrays, not dicts: slot->index lookups happen on every
        # interpreted step and on every jump-retargeting pass in the
        # shrinker, so both directions are O(1) list indexing.  Slots in
        # the middle of an lddw map to -1 (not an instruction boundary).
        # The lddw test is inlined (opcode compare): this loop runs for
        # every program the fuzz pipeline constructs.
        slot_of_index: List[int] = []
        index_of_slot: List[int] = []
        lddw = _LDDW_OPCODE
        for idx, insn in enumerate(self.insns):
            slot_of_index.append(len(index_of_slot))
            index_of_slot.append(idx)
            if insn.opcode == lddw:
                index_of_slot.append(-1)
        self._slot_of_index = slot_of_index
        self._index_of_slot: List[int] = index_of_slot
        self._total_slots = len(index_of_slot)
        self._compiled: Optional["CompiledProgram"] = None
        self._canonical_hash: Optional[str] = None
        self._validate_jumps()

    # -- addressing -----------------------------------------------------------

    @property
    def total_slots(self) -> int:
        """Total number of 8-byte encoding slots."""
        return self._total_slots

    def slot_of(self, index: int) -> int:
        """Slot address of the instruction at list position ``index``."""
        return self._slot_of_index[index]

    def index_at_slot(self, slot: int) -> int:
        """Instruction list position at slot address ``slot``.

        Raises :class:`ProgramError` for mid-``lddw`` or out-of-range slots.
        """
        if 0 <= slot < self._total_slots:
            index = self._index_of_slot[slot]
            if index >= 0:
                return index
        raise ProgramError(f"slot {slot} is not an instruction boundary")

    def jump_target_slot(self, index: int) -> int:
        """Slot a (conditional or unconditional) jump at ``index`` targets."""
        insn = self.insns[index]
        return self.slot_of(index) + insn.slots() + insn.off

    def compiled(self) -> "CompiledProgram":
        """The decode-once compiled form, built lazily and cached.

        Programs are immutable in practice (mutation passes build new
        ``Program`` objects), so compiling once per object is safe and
        lets every replay of the same program share the work.  One form
        serves runs with observability on or off: each run picks the bare
        or the timed steps (:meth:`CompiledProgram.timed_steps`).
        """
        cp = self._compiled
        if cp is None:
            from .compiled import compile_program

            cp = self._compiled = compile_program(self)
        return cp

    def canonical_hash(self) -> str:
        """Content hash of the canonical form, lazily computed and cached.

        Structurally identical programs (same semantics modulo dead
        fields, immediate spellings, and label metadata — see
        :mod:`repro.bpf.canon`) share this hash; it is the program half
        of every :class:`~repro.bpf.canon.VerdictCache` key.
        """
        chash = self._canonical_hash
        if chash is None:
            from .canon import canonical_hash

            chash = self._canonical_hash = canonical_hash(self)
        return chash

    def _validate_jumps(self) -> None:
        total = self._total_slots
        index_of_slot = self._index_of_slot
        slot_of_index = self._slot_of_index
        for idx, insn in enumerate(self.insns):
            if insn.cls() not in (isa.CLS_JMP, isa.CLS_JMP32):
                continue
            op = insn.opcode & 0xF0
            if op == isa.JMP_EXIT or op == isa.JMP_CALL:
                continue
            # Jumps occupy one slot, so the target is slot+1+off.
            target = slot_of_index[idx] + 1 + insn.off
            if not (0 <= target < total and index_of_slot[target] >= 0):
                raise ProgramError(
                    f"insn {idx}: jump target slot {target} invalid"
                )

    # -- conveniences ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.insns)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.insns)

    def __getitem__(self, index: int) -> Instruction:
        return self.insns[index]

    def label_at(self, index: int) -> Optional[str]:
        """Label (if any) attached to the slot of instruction ``index``."""
        slot = self.slot_of(index)
        for name, s in self.labels.items():
            if s == slot:
                return name
        return None

    # -- serialization ------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Flat kernel-format bytecode."""
        return encode_program(self.insns)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Program":
        """Decode flat bytecode (labels are not recoverable)."""
        return cls(decode_program(data))

    def disassemble(self) -> str:
        """Human-readable listing with labels."""
        from .disassembler import format_program

        return format_program(self)
