"""Frozen golden of everything the abstract walk exposes.

Each case verifies its programs with ``collect_states`` and an
``on_transfer`` listener and renders what :meth:`Verifier.verify`
exposes: the verdict, each error's index, message and structural flag,
``insns_processed``, the entry state at every instruction, and the
transfer stream.  A sha256 over those renders must equal the case's
digest in ``golden/walk_digests.json``.

The digests were recorded while the verifier still ran two walks, a
compiled closure walk and the decode-every-visit walk that is now the
only one, after checking that both rendered every program here
identically.  This module keeps the name it had as the differential
test between those two walks.

Coverage: every ALU and conditional-jump opcode × width × operand
source over boundary operands, hand-built rejections, and 500 generator
programs per opcode profile (loads, stores, pointer arithmetic, helper
calls, refinement chains, structural rejections).
"""

import hashlib
import json
from pathlib import Path
from typing import Iterable, List

import pytest

from repro.bpf import Program, assemble
from repro.bpf import isa
from repro.bpf.insn import Instruction
from repro.bpf.verifier import VerificationResult, Verifier
from repro.fuzz import generate_program

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "walk_digests.json").read_text()
)

U64 = (1 << 64) - 1

#: Immediates spanning sign boundaries and subregister truncation.
IMMEDIATES = [0, 1, 5, 31, 63, -1, -5, 0x7FFF_FFFF, -0x8000_0000]

#: lddw-loadable operand values with carry/sign/width boundary cases.
OPERANDS = [
    0, 1, 63, 0x7FFF_FFFF, 0x1_0000_0000, (1 << 63) - 1, 1 << 63, U64,
]

ALU_OPS = [
    isa.ALU_ADD, isa.ALU_SUB, isa.ALU_MUL, isa.ALU_DIV, isa.ALU_OR,
    isa.ALU_AND, isa.ALU_LSH, isa.ALU_RSH, isa.ALU_MOD, isa.ALU_XOR,
    isa.ALU_MOV, isa.ALU_ARSH,
]

COND_JUMP_OPS = [
    isa.JMP_JEQ, isa.JMP_JNE, isa.JMP_JGT, isa.JMP_JGE, isa.JMP_JLT,
    isa.JMP_JLE, isa.JMP_JSET, isa.JMP_JSGT, isa.JMP_JSGE, isa.JMP_JSLT,
    isa.JMP_JSLE,
]

CLS_NAMES = {
    isa.CLS_ALU: "alu32", isa.CLS_ALU64: "alu64",
    isa.CLS_JMP: "jmp64", isa.CLS_JMP32: "jmp32",
}

LDDW = isa.CLS_LD | isa.SZ_DW | isa.MODE_IMM


def render_walk(program: Program, ctx_size: int = 64):
    """Verify ``program`` and render every observable output as text."""
    stream: List[str] = []
    verifier = Verifier(
        ctx_size=ctx_size, collect_states=True,
        on_transfer=lambda idx, label, scalar: stream.append(
            f"transfer {idx} {label} {scalar}"
        ),
    )
    result = verifier.verify(program)
    lines = [f"ok={result.ok} processed={result.insns_processed}"]
    lines += [
        f"error {e.insn_index} structural={e.structural} {e}"
        for e in result.errors
    ]
    lines += [
        f"state {idx} {verifier.states_at[idx]}"
        for idx in sorted(verifier.states_at)
    ]
    lines += stream
    return result, "\n".join(lines) + "\n"


def assert_golden(case: str, programs: Iterable[Program]) -> List[VerificationResult]:
    """Walk ``programs`` in order; their renders must hash to the golden."""
    sha = hashlib.sha256()
    results = []
    for program in programs:
        result, text = render_walk(program)
        sha.update(text.encode())
        results.append(result)
    assert sha.hexdigest() == GOLDEN[case], (
        f"walk outputs for {case!r} diverged from the frozen golden"
    )
    return results


def assert_golden_one(case: str, program: Program) -> VerificationResult:
    return assert_golden(case, [program])[0]


def _finish(insns: List[Instruction]) -> Program:
    """Append ``mov r0, r1; exit`` so the result reaches the exit check."""
    return Program(insns + [
        Instruction(isa.CLS_ALU64 | isa.SRC_X | isa.ALU_MOV, dst=0, src=1),
        Instruction(isa.CLS_JMP | isa.JMP_EXIT),
    ])


class TestALUSweep:
    """Every ALU op × width × operand source over boundary operands."""

    @pytest.mark.parametrize("op", ALU_OPS)
    @pytest.mark.parametrize("cls", [isa.CLS_ALU, isa.CLS_ALU64])
    def test_register_source(self, op, cls):
        assert_golden(
            f"alu.reg.{CLS_NAMES[cls]}.{isa.ALU_OP_NAMES[op]}",
            (
                _finish([
                    Instruction(LDDW, dst=1, imm=a),
                    Instruction(LDDW, dst=2, imm=b),
                    Instruction(cls | isa.SRC_X | op, dst=1, src=2),
                ])
                for a in OPERANDS for b in OPERANDS
            ),
        )

    @pytest.mark.parametrize("op", ALU_OPS)
    @pytest.mark.parametrize("cls", [isa.CLS_ALU, isa.CLS_ALU64])
    def test_immediate_source(self, op, cls):
        assert_golden(
            f"alu.imm.{CLS_NAMES[cls]}.{isa.ALU_OP_NAMES[op]}",
            (
                _finish([
                    Instruction(LDDW, dst=1, imm=a),
                    Instruction(cls | isa.SRC_K | op, dst=1, imm=imm),
                ])
                for a in OPERANDS for imm in IMMEDIATES
            ),
        )

    @pytest.mark.parametrize("cls", [isa.CLS_ALU, isa.CLS_ALU64])
    def test_neg(self, cls):
        assert_golden(
            f"alu.neg.{CLS_NAMES[cls]}",
            (
                _finish([
                    Instruction(LDDW, dst=1, imm=a),
                    Instruction(cls | isa.ALU_NEG, dst=1),
                ])
                for a in OPERANDS
            ),
        )

    def test_unknown_operand_shift(self):
        # Unknown-but-bounded shift counts take the join-over-counts path.
        program = assemble("""
            ldxb r2, [r1+0]
            and r2, 7
            mov r3, 0x1234
            lsh r3, r2
            mov r0, r3
            exit
        """)
        assert assert_golden_one("alu.unknown_shift", program).ok


class TestJumpRefinementSweep:
    """Every conditional jump × width × operand source, with refinement
    visible in ``states_at`` at both successors."""

    @staticmethod
    def _jump_program(jump_insn, a, b):
        return Program([
            Instruction(LDDW, dst=1, imm=a),
            Instruction(LDDW, dst=2, imm=b),
            jump_insn,                                        # slot 4
            Instruction(isa.CLS_ALU64 | isa.SRC_K | isa.ALU_MOV,
                        dst=0, imm=1),
            Instruction(isa.CLS_JMP | isa.JMP_EXIT),
            Instruction(isa.CLS_ALU64 | isa.SRC_K | isa.ALU_MOV,
                        dst=0, imm=2),
            Instruction(isa.CLS_JMP | isa.JMP_EXIT),
        ])

    @pytest.mark.parametrize("op", COND_JUMP_OPS)
    @pytest.mark.parametrize("cls", [isa.CLS_JMP, isa.CLS_JMP32])
    def test_immediate_source(self, op, cls):
        assert_golden(
            f"jmp.imm.{CLS_NAMES[cls]}.{isa.JMP_OP_NAMES[op]}",
            (
                self._jump_program(
                    Instruction(cls | isa.SRC_K | op, dst=1, imm=imm, off=2),
                    a, 0,
                )
                for a in OPERANDS for imm in IMMEDIATES
            ),
        )

    @pytest.mark.parametrize("op", COND_JUMP_OPS)
    @pytest.mark.parametrize("cls", [isa.CLS_JMP, isa.CLS_JMP32])
    def test_register_source(self, op, cls):
        # b constant (refines dst), a constant on the left (mirrored).
        jump = Instruction(cls | isa.SRC_X | op, dst=1, src=2, off=2)
        assert_golden(
            f"jmp.reg.{CLS_NAMES[cls]}.{isa.JMP_OP_NAMES[op]}",
            (self._jump_program(jump, a, 5) for a in OPERANDS),
        )

    def test_mirrored_constant_left(self):
        # dst const, src unknown: the mirrored refinement path.
        program = assemble("""
            mov r2, 64
            ldxdw r3, [r1+0]
            jgt r2, r3, small
            mov r0, 0
            exit
        small:
            mov r0, 1
            exit
        """)
        assert assert_golden_one("jmp.mirrored_constant_left", program).ok

    def test_refinement_feeds_bounds_check(self):
        # The classic pattern: a branch bound makes a ctx access safe.
        program = assemble("""
            ldxb r2, [r1+0]
            jgt r2, 56, reject
            mov r3, r1
            add r3, r2
            ldxb r0, [r3+0]
            exit
        reject:
            mov r0, 0
            exit
        """)
        assert assert_golden_one("jmp.refinement_feeds_bounds_check", program).ok

    def test_infeasible_edge_pruned_identically(self):
        # r2 == 3 refines the taken edge to the constant; the nested
        # jne 3 then proves its taken edge infeasible (⊥), so the dead
        # branch stays unanalyzed.
        program = assemble("""
            ldxb r2, [r1+0]
            jeq r2, 3, inner
            mov r0, 0
            exit
        inner:
            jne r2, 3, dead
            mov r0, 1
            exit
        dead:
            mov r0, 2
            exit
        """)
        result = assert_golden_one("jmp.infeasible_edge", program)
        assert result.ok


class TestErrorParity:
    """Rejections keep their index, message, and structural flag."""

    CASES = [
        "mov r0, r1\nexit",                      # hmm: r1 is ctx ptr; leak
        "mov r0, r2\nexit",                      # uninit read
        "mov r10, 1\nmov r0, 0\nexit",           # frame-pointer write
        "neg r10\nmov r0, 0\nexit",              # pointer negation (r10)
        "add r1, r10\nmov r0, 0\nexit",          # ptr + ptr
        "sub r1, 1\nldxdw r0, [r1+0]\nexit",     # hmm below-ctx access
        "ldxdw r0, [r1+60]\nexit",               # ctx out of bounds
        "ldxdw r0, [r10-8]\nexit",               # uninit stack read
        "ldxw r0, [r1+1]\nexit",                 # misaligned ctx read
        "stxdw [r1+0], r10\nmov r0, 0\nexit",    # pointer store to ctx
        "exit",                                  # exit with uninit r0
        "mov r0, 0\nja +1\nexit\nexit",          # fine (sanity accept)
        "mov r3, r1\nsub r3, r10\nmov r0, r3\nexit",  # cross-region ptr sub
        "stxw [r10-8], r1\nmov r0, 0\nexit",     # partial pointer spill
        "call 1\nexit",                          # r0 unknown after call: ok
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_hand_built(self, text):
        index = self.CASES.index(text)
        assert_golden_one(f"error.hand_built.{index}", assemble(text))

    def test_structural_rejection(self):
        # A backward jump (loop) is a structural CFG rejection.
        program = Program([
            Instruction(isa.CLS_ALU64 | isa.SRC_K | isa.ALU_MOV, dst=0),
            Instruction(isa.CLS_JMP | isa.JMP_JA, off=-2),
            Instruction(isa.CLS_JMP | isa.JMP_EXIT),
        ])
        result = assert_golden_one("error.structural", program)
        assert not result.ok
        assert result.errors[0].structural

    def test_unsupported_opcode_lazy_parity(self):
        # An unsupported opcode raises only when the walk reaches it.
        unsupported = Instruction(isa.CLS_ALU64 | 0xD0, dst=1)  # BPF_END
        executed = Program([
            Instruction(isa.CLS_ALU64 | isa.SRC_K | isa.ALU_MOV, dst=1),
            unsupported,
            Instruction(isa.CLS_ALU64 | isa.SRC_K | isa.ALU_MOV, dst=0),
            Instruction(isa.CLS_JMP | isa.JMP_EXIT),
        ])
        result = assert_golden_one("error.unsupported_opcode", executed)
        assert not result.ok
        assert "unsupported ALU op" in result.errors[0].reason

    def test_unknown_helper_is_fine_statically(self):
        # The verifier models any helper id; only the interpreter knows
        # the registry.
        program = assemble("mov r1, 2\ncall 99\nmov r0, 0\nexit")
        assert assert_golden_one("error.unknown_helper", program).ok


class TestGeneratedPrograms:
    """500 generator programs per opcode profile, one digest each."""

    @pytest.mark.parametrize("profile", ["mixed", "alu", "memory", "branchy"])
    def test_generator_differential(self, profile):
        assert_golden(
            f"generated.{profile}",
            (
                generate_program(seed, profile=profile).program
                for seed in range(500)
            ),
        )
