"""BPF instruction representation with binary encode/decode.

:class:`Instruction` is the in-memory form used by the assembler,
interpreter and verifier; :func:`encode` / :func:`decode` translate to the
kernel's 8-byte wire format (16 bytes for ``lddw``, which occupies two
slots with the high 32 immediate bits in the second slot, exactly as in
Linux).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, List

from . import isa

__all__ = ["Instruction", "encode", "decode", "encode_program", "decode_program"]

_STRUCT = struct.Struct("<BBhi")  # opcode, regs, off, imm

_LDDW_OPCODE = isa.CLS_LD | isa.SZ_DW | isa.MODE_IMM


@dataclass(frozen=True)
class Instruction:
    """One BPF instruction.

    ``imm`` is kept as a signed 32-bit quantity except for ``lddw``
    pseudo-instructions, where it holds the full 64-bit immediate and the
    encoder splits it across two slots.
    """

    opcode: int
    dst: int = 0
    src: int = 0
    off: int = 0
    imm: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.opcode <= 0xFF:
            raise ValueError(f"opcode {self.opcode:#x} out of byte range")
        if not 0 <= self.dst < isa.MAX_REG:
            raise ValueError(f"dst register r{self.dst} invalid")
        if not 0 <= self.src < isa.MAX_REG:
            raise ValueError(f"src register r{self.src} invalid")
        if not -(1 << 15) <= self.off < (1 << 15):
            raise ValueError(f"offset {self.off} out of s16 range")
        # Classification is pure opcode arithmetic, queried many times per
        # instruction by the CFG builder, the abstract walk, the compiled
        # interpreter, and the assembler round-trips — compute the class
        # bits once.  (A frozen dataclass still permits
        # object.__setattr__; ``_cls`` is not a field, so
        # equality/repr/hashing are untouched.)
        cls = self.opcode & 0x07
        object.__setattr__(self, "_cls", cls)
        if self.is_lddw():
            if not -(1 << 63) <= self.imm < (1 << 64):
                raise ValueError("lddw immediate out of 64-bit range")
        elif not -(1 << 31) <= self.imm < (1 << 32):
            raise ValueError(f"imm {self.imm} out of 32-bit range")

    # -- classification helpers ------------------------------------------------

    def cls(self) -> int:
        return self._cls  # type: ignore[attr-defined]

    def is_alu(self) -> bool:
        return self._cls in (isa.CLS_ALU, isa.CLS_ALU64)  # type: ignore[attr-defined]

    def is_alu64(self) -> bool:
        return self._cls == isa.CLS_ALU64  # type: ignore[attr-defined]

    def is_jump(self) -> bool:
        return self._cls in (isa.CLS_JMP, isa.CLS_JMP32)  # type: ignore[attr-defined]

    def is_cond_jump(self) -> bool:
        return self.is_jump() and self.opcode & 0xF0 not in (
            isa.JMP_JA,
            isa.JMP_CALL,
            isa.JMP_EXIT,
        )

    def is_exit(self) -> bool:
        return self.is_jump() and self.opcode & 0xF0 == isa.JMP_EXIT

    def is_ja(self) -> bool:
        return self.is_jump() and self.opcode & 0xF0 == isa.JMP_JA

    def is_load(self) -> bool:
        return self.cls() == isa.CLS_LDX

    def is_store(self) -> bool:
        return self.cls() in (isa.CLS_ST, isa.CLS_STX)

    def is_lddw(self) -> bool:
        return self.opcode == _LDDW_OPCODE

    def uses_imm(self) -> bool:
        return isa.BPF_SRC(self.opcode) == isa.SRC_K

    def size_bytes(self) -> int:
        """Access width in bytes for load/store instructions."""
        return isa.SIZE_BYTES[isa.BPF_SIZE(self.opcode)]

    def slots(self) -> int:
        """Number of 8-byte encoding slots (2 for lddw, else 1)."""
        return 2 if self.is_lddw() else 1

    def __str__(self) -> str:
        from .disassembler import format_instruction

        return format_instruction(self)


def encode(insn: Instruction) -> bytes:
    """Encode to the kernel wire format (8 or 16 bytes)."""
    regs = (insn.src << 4) | insn.dst
    if insn.is_lddw():
        imm64 = insn.imm & ((1 << 64) - 1)
        lo = imm64 & 0xFFFFFFFF
        hi = (imm64 >> 32) & 0xFFFFFFFF
        first = _STRUCT.pack(insn.opcode, regs, insn.off, _as_s32(lo))
        second = _STRUCT.pack(0, 0, 0, _as_s32(hi))
        return first + second
    return _STRUCT.pack(insn.opcode, regs, insn.off, _as_s32(insn.imm & 0xFFFFFFFF))


def _as_s32(x: int) -> int:
    return x - (1 << 32) if x & (1 << 31) else x


def decode(data: bytes, offset: int = 0) -> Instruction:
    """Decode one instruction starting at ``offset``; lddw consumes 16 bytes.

    Each instruction is constructed exactly once: the lddw check happens
    on the raw opcode byte, before any :class:`Instruction` exists, so
    wide immediates don't pay for a throwaway intermediate object.
    """
    opcode, regs, off, imm = _STRUCT.unpack_from(data, offset)
    dst = regs & 0x0F
    src = (regs >> 4) & 0x0F
    if opcode == _LDDW_OPCODE:
        if len(data) < offset + 16:
            raise ValueError("truncated lddw instruction")
        _, _, _, hi = _STRUCT.unpack_from(data, offset + 8)
        imm64 = (imm & 0xFFFFFFFF) | ((hi & 0xFFFFFFFF) << 32)
        return Instruction(opcode, dst, src, off, imm64)
    return Instruction(opcode, dst, src, off, imm)


def encode_program(insns: Iterable[Instruction]) -> bytes:
    """Encode a whole program to flat bytecode."""
    return b"".join(encode(i) for i in insns)


def decode_program(data: bytes) -> List[Instruction]:
    """Decode flat bytecode back into instructions."""
    if len(data) % 8:
        raise ValueError("bytecode length not a multiple of 8")
    out: List[Instruction] = []
    offset = 0
    while offset < len(data):
        insn = decode(data, offset)
        out.append(insn)
        offset += 8 * insn.slots()
    return out
