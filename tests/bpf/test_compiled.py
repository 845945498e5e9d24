"""Frozen golden of everything the concrete interpreter exposes.

Each case runs its programs twice on a fresh :class:`Machine`: once
plain (the hot loop) and once with an ``on_step`` recorder (the observed
loop).  Each render holds the ``on_step`` stream, the return value and
step count or the error's type and message, and the final registers,
stack and context bytes.  A sha256 over those renders must equal the
case's digest in ``golden/interp_digests.json``.

The digests were recorded while the interpreter still had two engines,
the compiled :meth:`Machine.run` and a decode-every-step reference
interpreter, after checking that both rendered every run here
identically.

Coverage: every ALU and conditional-jump opcode × width × operand
source over boundary operands, stack and context loads and stores at
every width, helper calls, every error path, 500 generator programs
per opcode profile on two random contexts each, and 400 mutants (which
may loop or fault) under the precision campaign's step limit.
"""

import hashlib
import json
import random
from pathlib import Path
from typing import Iterable, List, Tuple

import pytest

from repro.bpf import Machine, Program, assemble
from repro.bpf import isa
from repro.bpf.insn import Instruction
from repro.bpf.interpreter import ExecutionError
from repro.bpf.program import ProgramError
from repro.fuzz import generate_program, mutate_program

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "interp_digests.json").read_text()
)

U64 = (1 << 64) - 1

#: Operand values that exercise carries, sign boundaries and subregister
#: truncation for every ALU/jump operator.
OPERANDS = [
    0, 1, 2, 5, 63, 64,
    0x7FFF_FFFF, 0x8000_0000, 0xFFFF_FFFF, 0x1_0000_0000,
    (1 << 63) - 1, 1 << 63, U64, 0x1122_3344_5566_7788,
]

#: Immediates must fit in s32 for non-lddw instructions.
IMMEDIATES = [0, 1, 5, 31, -1, -5, 0x7FFF_FFFF, -0x8000_0000]

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

SIZE_NAMES = {isa.SZ_B: "b", isa.SZ_H: "h", isa.SZ_W: "w", isa.SZ_DW: "dw"}

PROFILES = ["mixed", "alu", "memory", "branchy"]

LDDW = isa.CLS_LD | isa.SZ_DW | isa.MODE_IMM

ZERO_CTX = bytes(64)

#: The precision campaign's replay step budget (``CampaignSpec``).
CAMPAIGN_STEP_LIMIT = 4096

#: A run's outcome: its result, or the error it raised.
Outcome = object


def _render_run(
    program: Program, ctx: bytes, observe: bool, **machine_kw
) -> Tuple[Outcome, str]:
    """Run ``program`` once on a fresh machine; its outcome and render."""
    machine = Machine(ctx=ctx, **machine_kw)
    lines: List[str] = []
    on_step = None
    if observe:
        on_step = lambda idx, regs: lines.append(f"step {idx} {regs}")  # noqa: E731
    try:
        outcome = machine.run(program, on_step=on_step)
    except (ExecutionError, ProgramError) as exc:
        outcome = exc
        lines.append(f"error {type(exc).__name__}: {exc}")
    else:
        lines.append(f"exit r0={outcome.return_value} steps={outcome.steps}")
    lines.append(f"regs {machine.regs}")
    lines.append(f"stack {machine.stack.hex()}")
    lines.append(f"ctx {machine.ctx.hex()}")
    return outcome, "\n".join(lines) + "\n"


def render(
    program: Program, ctx: bytes = ZERO_CTX, **machine_kw
) -> Tuple[Outcome, str]:
    """The plain render (hot loop), then the observed render."""
    outcome, plain = _render_run(program, ctx, False, **machine_kw)
    _, observed = _render_run(program, ctx, True, **machine_kw)
    return outcome, "plain\n" + plain + "observed\n" + observed


def assert_golden(
    case: str, runs: Iterable[Tuple[Program, bytes]], **machine_kw
) -> List[Outcome]:
    """Run ``(program, ctx)`` pairs in order; their renders must hash to
    the golden."""
    sha = hashlib.sha256()
    outcomes = []
    for program, ctx in runs:
        outcome, text = render(program, ctx, **machine_kw)
        sha.update(text.encode())
        outcomes.append(outcome)
    assert sha.hexdigest() == GOLDEN[case], (
        f"interpreter outputs for {case!r} diverged from the frozen golden"
    )
    return outcomes


def assert_golden_one(
    case: str, program: Program, ctx: bytes = ZERO_CTX, **machine_kw
) -> Outcome:
    return assert_golden(case, [(program, ctx)], **machine_kw)[0]


def _finish(insns: List[Instruction]) -> Program:
    """Append ``mov r0, r1; exit`` so the result is the return value."""
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
                (_finish([
                    Instruction(LDDW, dst=1, imm=a),
                    Instruction(LDDW, dst=2, imm=b),
                    Instruction(cls | isa.SRC_X | op, dst=1, src=2),
                ]), ZERO_CTX)
                for a in OPERANDS for b in OPERANDS
            ),
        )

    @pytest.mark.parametrize("op", ALU_OPS)
    @pytest.mark.parametrize("cls", [isa.CLS_ALU, isa.CLS_ALU64])
    def test_immediate_source(self, op, cls):
        assert_golden(
            f"alu.imm.{CLS_NAMES[cls]}.{isa.ALU_OP_NAMES[op]}",
            (
                (_finish([
                    Instruction(LDDW, dst=1, imm=a),
                    Instruction(cls | isa.SRC_K | op, dst=1, imm=imm),
                ]), ZERO_CTX)
                for a in OPERANDS for imm in IMMEDIATES
            ),
        )

    @pytest.mark.parametrize("cls", [isa.CLS_ALU, isa.CLS_ALU64])
    def test_neg(self, cls):
        assert_golden(
            f"alu.neg.{CLS_NAMES[cls]}",
            (
                (_finish([
                    Instruction(LDDW, dst=1, imm=a),
                    Instruction(cls | isa.ALU_NEG, dst=1),
                ]), ZERO_CTX)
                for a in OPERANDS
            ),
        )


class TestJumpSweep:
    """Every conditional jump × width × operand source, both outcomes."""

    @staticmethod
    def _jump_program(jump_insn, a, b):
        return Program([
            Instruction(LDDW, dst=1, imm=a),
            Instruction(LDDW, dst=2, imm=b),
            jump_insn,                                        # slot 4
            Instruction(isa.CLS_ALU64 | isa.SRC_K | isa.ALU_MOV,
                        dst=0, imm=1),                        # slot 5
            Instruction(isa.CLS_JMP | isa.JMP_EXIT),          # slot 6
            Instruction(isa.CLS_ALU64 | isa.SRC_K | isa.ALU_MOV,
                        dst=0, imm=2),                        # slot 7
            Instruction(isa.CLS_JMP | isa.JMP_EXIT),
        ])

    @pytest.mark.parametrize("op", COND_JUMP_OPS)
    @pytest.mark.parametrize("cls", [isa.CLS_JMP, isa.CLS_JMP32])
    def test_register_source(self, op, cls):
        jump = Instruction(cls | isa.SRC_X | op, dst=1, src=2, off=2)
        results = assert_golden(
            f"jmp.reg.{CLS_NAMES[cls]}.{isa.JMP_OP_NAMES[op]}",
            (
                (self._jump_program(jump, a, b), ZERO_CTX)
                for a in OPERANDS for b in OPERANDS
            ),
        )
        assert {result.return_value for result in results} <= {1, 2}

    @pytest.mark.parametrize("op", COND_JUMP_OPS)
    @pytest.mark.parametrize("cls", [isa.CLS_JMP, isa.CLS_JMP32])
    def test_immediate_source(self, op, cls):
        assert_golden(
            f"jmp.imm.{CLS_NAMES[cls]}.{isa.JMP_OP_NAMES[op]}",
            (
                (self._jump_program(
                    Instruction(cls | isa.SRC_K | op, dst=1, imm=imm, off=2),
                    a, 0,
                ), ZERO_CTX)
                for a in OPERANDS for imm in IMMEDIATES
            ),
        )

    def test_unconditional(self):
        program = self._jump_program(
            Instruction(isa.CLS_JMP | isa.JMP_JA, off=2), 0, 0
        )
        assert assert_golden_one("jmp.ja", program).return_value == 2


class TestMemorySweep:
    """Loads and stores at every access width, stack and ctx regions."""

    @pytest.mark.parametrize("size", [isa.SZ_B, isa.SZ_H, isa.SZ_W, isa.SZ_DW])
    def test_stack_roundtrip(self, size):
        assert_golden(
            f"mem.stack_roundtrip.{SIZE_NAMES[size]}",
            (
                (Program([
                    Instruction(LDDW, dst=1, imm=value),
                    Instruction(isa.CLS_STX | size | isa.MODE_MEM,
                                dst=isa.FP_REG, src=1, off=-8),
                    Instruction(isa.CLS_LDX | size | isa.MODE_MEM,
                                dst=0, src=isa.FP_REG, off=-8),
                    Instruction(isa.CLS_JMP | isa.JMP_EXIT),
                ]), ZERO_CTX)
                for value in OPERANDS
            ),
        )

    @pytest.mark.parametrize("size", [isa.SZ_B, isa.SZ_H, isa.SZ_W, isa.SZ_DW])
    def test_ctx_load(self, size):
        program = Program([
            Instruction(isa.CLS_LDX | size | isa.MODE_MEM,
                        dst=0, src=1, off=8),
            Instruction(isa.CLS_JMP | isa.JMP_EXIT),
        ])
        assert_golden_one(
            f"mem.ctx_load.{SIZE_NAMES[size]}", program, bytes(range(1, 65))
        )

    @pytest.mark.parametrize("size", [isa.SZ_B, isa.SZ_H, isa.SZ_W, isa.SZ_DW])
    def test_store_immediate(self, size):
        assert_golden(
            f"mem.store_imm.{SIZE_NAMES[size]}",
            (
                (Program([
                    Instruction(isa.CLS_ST | size | isa.MODE_MEM,
                                dst=isa.FP_REG, imm=imm, off=-16),
                    Instruction(isa.CLS_LDX | isa.SZ_DW | isa.MODE_MEM,
                                dst=0, src=isa.FP_REG, off=-16),
                    Instruction(isa.CLS_JMP | isa.JMP_EXIT),
                ]), ZERO_CTX)
                for imm in IMMEDIATES
            ),
        )

    @pytest.mark.parametrize("size", [isa.SZ_B, isa.SZ_H, isa.SZ_W, isa.SZ_DW])
    def test_ctx_store(self, size):
        # Register and immediate stores into the context, read back
        # through it; the render holds the context bytes too.
        assert_golden(
            f"mem.ctx_store.{SIZE_NAMES[size]}",
            (
                (Program([
                    Instruction(LDDW, dst=2, imm=value),
                    Instruction(isa.CLS_STX | size | isa.MODE_MEM,
                                dst=1, src=2, off=8),
                    Instruction(isa.CLS_ST | size | isa.MODE_MEM,
                                dst=1, imm=imm, off=56),
                    Instruction(isa.CLS_LDX | isa.SZ_DW | isa.MODE_MEM,
                                dst=0, src=1, off=8),
                    Instruction(isa.CLS_JMP | isa.JMP_EXIT),
                ]), bytes(range(1, 65)))
                for value, imm in zip(OPERANDS, IMMEDIATES * 2)
            ),
        )

    def test_out_of_bounds_errors_match(self):
        program = assemble("mov r1, 64\nldxdw r0, [r1+0]\nexit")
        exc = assert_golden_one("mem.out_of_bounds", program)
        assert isinstance(exc, ExecutionError)

    def test_ctx_boundary_errors_match(self):
        # One byte past the 64-byte context.
        program = assemble("ldxb r0, [r1+64]\nexit")
        exc = assert_golden_one("mem.ctx_boundary", program)
        assert "out-of-bounds access" in str(exc)


class TestControlEdges:
    def test_helper_call_parity(self):
        # The helper sees r1-r5, then the call clobbers them; r6 survives.
        helpers = {7: lambda *args: sum(args)}
        program = assemble(
            "mov r1, 2\nmov r2, 3\nmov r3, 4\nmov r4, 5\nmov r5, 6\n"
            "mov r6, 7\ncall 7\nexit"
        )
        result = assert_golden_one(
            "control.helper_call", program, helpers=helpers
        )
        assert result.return_value == 20

    def test_unknown_helper_errors_match(self):
        program = assemble("call 99\nexit")
        exc = assert_golden_one("control.unknown_helper", program)
        assert "unknown helper 99" in str(exc)

    def test_step_limit_errors_match(self):
        program = assemble("mov r0, 0\nadd r0, 1\nexit")
        exc = assert_golden_one("control.step_limit", program, step_limit=2)
        assert "step limit exceeded" in str(exc)

    def test_fall_off_end_errors_match(self):
        program = Program([
            Instruction(isa.CLS_ALU64 | isa.SRC_K | isa.ALU_MOV, dst=0),
        ])
        exc = assert_golden_one("control.fall_off_end", program)
        assert isinstance(exc, ProgramError)

    def test_unsupported_opcode_lazy_parity(self):
        # An unsupported opcode on a *skipped* path must not fail
        # compilation; on an executed path the run raises.
        unsupported = Instruction(isa.CLS_ALU64 | 0xD0, dst=1)  # BPF_END
        skipped = Program([
            Instruction(isa.CLS_JMP | isa.JMP_JA, off=1),
            unsupported,
            Instruction(isa.CLS_ALU64 | isa.SRC_K | isa.ALU_MOV, dst=0),
            Instruction(isa.CLS_JMP | isa.JMP_EXIT),
        ])
        executed = [
            Program([insn, Instruction(isa.CLS_JMP | isa.JMP_EXIT)])
            for insn in (
                unsupported,
                Instruction(isa.CLS_JMP | 0xE0, dst=1),       # no such jump
                Instruction(isa.CLS_LD | isa.SZ_W | isa.MODE_IMM, dst=1),
            )
        ]
        result, *errors = assert_golden(
            "control.unsupported_opcode",
            [(program, ZERO_CTX) for program in [skipped, *executed]],
        )
        assert result.return_value == 0
        assert [str(exc) for exc in errors] == [
            "pc 0: unsupported ALU op 0xd0",
            "pc 0: unsupported jump op 0xe0",
            "pc 0: unsupported opcode 0x00",
        ]

    def test_trace_parity(self):
        program = assemble("mov r0, 1\nja +1\nmov r0, 9\nexit")
        assert_golden_one("control.trace", program)
        trace: List[int] = []
        Machine().run(program, on_step=lambda idx, regs: trace.append(idx))
        assert trace == [0, 1, 3]

    def test_on_step_observation_parity(self):
        program = assemble(
            "mov r1, 10\nmov r2, 3\nsub r1, r2\nmov r0, r1\nexit"
        )
        assert assert_golden_one("control.on_step", program).return_value == 7


def _random_contexts(count: int) -> Iterable[bytes]:
    rng = random.Random(0xC0FFEE)
    return (rng.randbytes(64) for _ in range(count))


class TestGeneratedPrograms:
    """Whole programs from every opcode profile, and campaign mutants."""

    @pytest.mark.parametrize("profile", PROFILES)
    def test_generator_differential(self, profile):
        programs = [
            generate_program(seed, profile=profile).program
            for seed in range(500)
        ]
        ctxs = _random_contexts(2 * len(programs))
        assert_golden(
            f"generated.{profile}",
            ((program, next(ctxs)) for program in programs for _ in range(2)),
            step_limit=100_000,
        )

    def test_mutants(self):
        # Mutants splice, retarget and re-immediate generated programs,
        # so they may loop or fault; the campaign bounds their replays.
        rng = random.Random(0x5EED)
        mutants = []
        for seed in range(400):
            profile = PROFILES[seed % len(PROFILES)]
            base = generate_program(seed, profile=profile).program
            donor = generate_program(10_000 + seed, profile=profile).program
            mutants.append(mutate_program(base, donor, rng))
        ctxs = _random_contexts(2 * len(mutants))
        outcomes = assert_golden(
            "mutants",
            ((program, next(ctxs)) for program in mutants for _ in range(2)),
            step_limit=CAMPAIGN_STEP_LIMIT,
        )
        # The sweep reaches the error paths, not only clean exits.
        assert any(isinstance(o, ExecutionError) for o in outcomes)

    def test_compiled_form_is_cached(self):
        program = generate_program(1).program
        assert program.compiled() is program.compiled()
