"""Concrete interpreter tests: real machine semantics."""

import pytest

from repro.bpf import CTX_BASE, Machine, assemble
from repro.bpf.interpreter import ExecutionError

U64 = (1 << 64) - 1


def run(text: str, ctx: bytes = b"\x00" * 64, **kw):
    return Machine(ctx=ctx, **kw).run(assemble(text))


class TestALU64:
    def test_add_wraps(self):
        r = run("lddw r1, 0xffffffffffffffff\nadd r1, 1\nmov r0, r1\nexit")
        assert r.return_value == 0

    def test_sub_wraps(self):
        r = run("mov r1, 0\nsub r1, 1\nmov r0, r1\nexit")
        assert r.return_value == U64

    def test_mul_wraps(self):
        r = run("lddw r1, 0x8000000000000000\nmul r1, 2\nmov r0, r1\nexit")
        assert r.return_value == 0

    def test_div_by_zero_is_zero(self):
        assert run("mov r1, 42\ndiv r1, 0\nmov r0, r1\nexit").return_value == 0

    def test_mod_by_zero_is_dividend(self):
        assert run("mov r1, 42\nmod r1, 0\nmov r0, r1\nexit").return_value == 42

    def test_div_mod_normal(self):
        assert run("mov r1, 42\ndiv r1, 5\nmov r0, r1\nexit").return_value == 8
        assert run("mov r1, 42\nmod r1, 5\nmov r0, r1\nexit").return_value == 2

    def test_bitwise(self):
        assert run("mov r1, 12\nand r1, 10\nmov r0, r1\nexit").return_value == 8
        assert run("mov r1, 12\nor r1, 10\nmov r0, r1\nexit").return_value == 14
        assert run("mov r1, 12\nxor r1, 10\nmov r0, r1\nexit").return_value == 6

    def test_shifts_mask_count_to_63(self):
        assert run("mov r1, 1\nmov r2, 65\nlsh r1, r2\nmov r0, r1\nexit"
                   ).return_value == 2

    def test_arsh_sign_extends(self):
        r = run("lddw r1, 0x8000000000000000\narsh r1, 1\nmov r0, r1\nexit")
        assert r.return_value == 0xC000_0000_0000_0000

    def test_neg(self):
        assert run("mov r1, 1\nneg r1\nmov r0, r1\nexit").return_value == U64

    def test_mov_negative_imm_sign_extends(self):
        assert run("mov r0, -1\nexit").return_value == U64


class TestALU32:
    def test_result_zero_extends(self):
        r = run("lddw r1, 0xffffffff00000001\nadd32 r1, 1\nmov r0, r1\nexit")
        assert r.return_value == 2

    def test_mov32_truncates(self):
        r = run("lddw r1, 0x1122334455667788\nmov32 r2, r1\nmov r0, r2\nexit")
        assert r.return_value == 0x55667788

    def test_arsh32(self):
        r = run("mov32 r1, 0x80000000\narsh32 r1, 4\nmov r0, r1\nexit")
        assert r.return_value == 0xF8000000

    def test_shift32_masks_to_31(self):
        r = run("mov32 r1, 1\nmov32 r2, 33\nlsh32 r1, r2\nmov r0, r1\nexit")
        assert r.return_value == 2


class TestJumps:
    def test_unsigned_vs_signed_comparison(self):
        # -1 (0xfff..f) is > 1 unsigned but < 1 signed.
        prog = """
            mov r1, -1
            mov r0, 0
            jgt r1, 1, unsigned_big
            exit
        unsigned_big:
            jslt r1, 1, signed_small
            exit
        signed_small:
            mov r0, 3
            exit
        """
        assert run(prog).return_value == 3

    def test_jmp32_compares_low_bits(self):
        prog = """
            lddw r1, 0xffffffff00000005
            mov r0, 0
            jeq32 r1, 5, yes
            exit
        yes:
            mov r0, 1
            exit
        """
        assert run(prog).return_value == 1

    def test_jset(self):
        prog = """
            mov r1, 6
            mov r0, 0
            jset r1, 4, yes
            exit
        yes:
            mov r0, 1
            exit
        """
        assert run(prog).return_value == 1

    def test_ja(self):
        prog = """
            mov r0, 7
            ja end
            mov r0, 0
        end:
            exit
        """
        assert run(prog).return_value == 7


class TestMemory:
    def test_stack_store_load(self):
        prog = """
            mov r1, 0x1234
            stxdw [r10-8], r1
            ldxdw r0, [r10-8]
            exit
        """
        assert run(prog).return_value == 0x1234

    def test_store_imm_and_partial_loads(self):
        prog = """
            stdw [r10-8], 0x11223344
            ldxb r0, [r10-8]
            exit
        """
        assert run(prog).return_value == 0x44  # little-endian low byte

    def test_ctx_read(self):
        ctx = bytes([7, 0, 0, 0]) + bytes(60)
        assert run("ldxw r0, [r1+0]\nexit", ctx=ctx).return_value == 7

    def test_ctx_write(self):
        prog = """
            mov r2, 0xAB
            stxb [r1+3], r2
            ldxb r0, [r1+3]
            exit
        """
        assert run(prog).return_value == 0xAB

    def test_stack_oob_low_raises(self):
        with pytest.raises(ExecutionError, match="out-of-bounds"):
            run("ldxdw r0, [r10-520]\nexit")

    def test_stack_oob_high_raises(self):
        with pytest.raises(ExecutionError, match="out-of-bounds"):
            run("ldxdw r0, [r10+0]\nexit")

    def test_ctx_oob_raises(self):
        with pytest.raises(ExecutionError, match="out-of-bounds"):
            run("ldxdw r0, [r1+60]\nexit")  # 60+8 > 64

    def test_wild_pointer_raises(self):
        with pytest.raises(ExecutionError, match="out-of-bounds"):
            run("mov r2, 0x1234\nldxdw r0, [r2+0]\nexit")


class TestCallsAndLimits:
    def test_helper_call(self):
        helpers = {1: lambda a, b, c, d, e: a + b}
        prog = """
            mov r1, 40
            mov r2, 2
            call 1
            exit
        """
        m = Machine(helpers=helpers)
        assert m.run(assemble(prog)).return_value == 42

    def test_call_clobbers_caller_saved(self):
        helpers = {1: lambda *a: 0}
        prog = """
            mov r1, 40
            mov r6, 99
            call 1
            mov r0, r6
            exit
        """
        # r6 is callee-saved and survives; r1 is clobbered.
        m = Machine(helpers=helpers)
        assert m.run(assemble(prog)).return_value == 99

    def test_unknown_helper_raises(self):
        with pytest.raises(ExecutionError, match="unknown helper"):
            run("call 99\nexit")

    def test_step_limit(self):
        # A long chain under a tiny step budget.
        prog = "\n".join(["mov r0, 0"] * 100) + "\nexit"
        with pytest.raises(ExecutionError, match="step limit"):
            Machine(step_limit=10).run(assemble(prog))

    def test_trace_recording(self):
        trace = []
        Machine().run(assemble("mov r0, 0\nexit"),
                      on_step=lambda idx, regs: trace.append(idx))
        assert trace == [0, 1]

    def test_r1_is_ctx_pointer_at_entry(self):
        assert run("mov r0, r1\nexit").return_value == CTX_BASE
