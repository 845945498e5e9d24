"""Differential testing: concrete execution vs abstract interpretation.

The fundamental soundness property of the whole analyzer: for any program
the verifier accepts, every concretely-reachable register value at every
instruction must be contained in the verifier's abstract value at that
point.  We generate random straight-line and branching programs, verify
them, execute them on random inputs, and check containment instruction by
instruction.
"""

import random

import pytest

from repro.bpf import CTX_BASE, Machine, assemble, isa
from repro.bpf.verifier import Verifier
from repro.bpf.verifier.state import RegKind

U64 = (1 << 64) - 1

ALU_OPS = ["add", "sub", "mul", "and", "or", "xor", "lsh", "rsh", "arsh",
           "div", "mod"]


def random_program(rng: random.Random, length: int = 12) -> str:
    """A random scalar program reading some ctx bytes then mixing rs."""
    lines = [
        "ldxdw r2, [r1+0]",
        "ldxdw r3, [r1+8]",
        "mov r4, 12345",
    ]
    live = ["r2", "r3", "r4"]
    for _ in range(length):
        op = rng.choice(ALU_OPS)
        dst = rng.choice(live)
        if op in ("lsh", "rsh", "arsh"):
            src = str(rng.randrange(0, 64))
        elif rng.random() < 0.5:
            src = rng.choice(live)
        else:
            src = str(rng.randint(-100, 100))
        lines.append(f"{op} {dst}, {src}")
    lines.append("mov r0, r2")
    lines.append("exit")
    return "\n".join(lines)


def random_branchy_program(rng: random.Random) -> str:
    """A random program with one conditional branch and a merge."""
    cond = rng.choice(["jeq", "jne", "jlt", "jle", "jgt", "jge",
                       "jsgt", "jsge", "jslt", "jsle", "jset"])
    bound = rng.randint(0, 255)
    op1 = rng.choice(["add", "and", "or", "xor"])
    op2 = rng.choice(["sub", "and", "mul", "xor"])
    return f"""
        ldxdw r2, [r1+0]
        ldxdw r3, [r1+8]
        {cond} r2, {bound}, taken
        {op1} r2, r3
        ja merge
    taken:
        {op2} r2, 17
    merge:
        and r2, 0xffff
        mov r0, r2
        exit
    """


def check_containment(text: str, rng: random.Random, runs: int = 5) -> None:
    program = assemble(text)
    verifier = Verifier(ctx_size=64, collect_states=True)
    result = verifier.verify(program)
    assert result.ok, result.error_messages()

    def check(idx, regs):
        # Every *scalar* abstract register must contain the concrete
        # register value at this instruction's entry.
        state = verifier.states_at.get(idx)
        assert state is not None, f"no abstract state at insn {idx}"
        for reg in range(isa.MAX_REG):
            abstate = state.regs[reg]
            if abstate.kind == RegKind.SCALAR:
                concrete = regs[reg]
                assert abstate.scalar.contains(concrete), (
                    f"insn {idx} r{reg}: concrete {concrete:#x} not in "
                    f"{abstate.scalar}"
                )

    for _ in range(runs):
        ctx = bytes(rng.randrange(256) for _ in range(64))
        Machine(ctx=ctx, step_limit=10_000).run(
            program, r1=CTX_BASE, on_step=check
        )


def random_memory_program(rng: random.Random) -> str:
    """A random program that spills/fills through the stack."""
    op1 = rng.choice(["add", "xor", "and", "or"])
    op2 = rng.choice(["sub", "mul", "add"])
    slot1 = -8 * rng.randint(1, 4)
    slot2 = -8 * rng.randint(5, 8)
    k = rng.randint(0, 255)
    return f"""
        ldxdw r2, [r1+0]
        {op1} r2, {k}
        stxdw [r10{slot1}], r2
        ldxdw r3, [r1+8]
        stxdw [r10{slot2}], r3
        ldxdw r4, [r10{slot1}]
        ldxdw r5, [r10{slot2}]
        {op2} r4, r5
        stb [r10-33], {k & 0x7f}
        ldxb r6, [r10-33]
        add r4, r6
        mov r0, r4
        exit
    """


def random_jmp32_program(rng: random.Random) -> str:
    """A random program using 32-bit compares on provably-small values."""
    cond = rng.choice(["jeq32", "jlt32", "jge32", "jne32"])
    bound = rng.randint(1, 200)
    return f"""
        ldxb r2, [r1+0]
        mov r0, 0
        {cond} r2, {bound}, taken
        add r2, 1
        ja merge
    taken:
        add r2, 2
    merge:
        mov r0, r2
        exit
    """


class TestDifferential:
    @pytest.mark.parametrize("seed", range(20))
    def test_straight_line_programs(self, seed):
        rng = random.Random(seed)
        check_containment(random_program(rng), rng)

    @pytest.mark.parametrize("seed", range(20))
    def test_branching_programs(self, seed):
        rng = random.Random(1000 + seed)
        check_containment(random_branchy_program(rng), rng)

    @pytest.mark.parametrize("seed", range(15))
    def test_memory_programs(self, seed):
        rng = random.Random(2000 + seed)
        check_containment(random_memory_program(rng), rng)

    @pytest.mark.parametrize("seed", range(15))
    def test_jmp32_programs(self, seed):
        rng = random.Random(3000 + seed)
        check_containment(random_jmp32_program(rng), rng)

    def test_return_value_contained(self):
        # End-to-end: the abstract r0 at exit contains every concrete r0.
        text = """
            ldxdw r2, [r1+0]
            and r2, 0xff
            mul r2, 3
            add r2, 7
            mov r0, r2
            exit
        """
        program = assemble(text)
        verifier = Verifier(ctx_size=64, collect_states=True)
        assert verifier.verify(program).ok
        exit_idx = len(program) - 1
        exit_state = verifier.states_at[exit_idx]
        rng = random.Random(0)
        for _ in range(50):
            ctx = bytes(rng.randrange(256) for _ in range(64))
            r0 = Machine(ctx=ctx).run(program).return_value
            assert exit_state.regs[0].scalar.contains(r0)
