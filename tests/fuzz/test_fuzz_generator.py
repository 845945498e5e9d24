"""Generator properties: determinism, validity, verifier plausibility."""

import pytest

from repro.bpf import Machine, isa
from repro.bpf.interpreter import ExecutionError
from repro.bpf.verifier import verify_program
from repro.fuzz import PROFILES, ProgramGenerator, generate_program


class TestDeterminism:
    def test_same_seed_same_bytecode(self):
        a = generate_program(1234).program.to_bytes()
        b = generate_program(1234).program.to_bytes()
        assert a == b

    def test_different_seeds_differ(self):
        outs = {generate_program(s).program.to_bytes() for s in range(20)}
        assert len(outs) > 15  # overwhelmingly distinct

    def test_profile_and_size_are_recorded(self):
        gp = generate_program(7, profile="alu", max_insns=16)
        assert gp.profile == "alu"
        assert gp.seed == 7
        assert gp.max_insns == 16


class TestStructure:
    @pytest.mark.parametrize("seed", range(25))
    def test_programs_build_and_terminate(self, seed):
        gp = generate_program(seed)
        assert len(gp.program) <= gp.max_insns + 8
        machine = Machine(ctx=bytes(64))
        try:
            result = machine.run(gp.program)
        except ExecutionError:
            pytest.fail("generated program crashed concretely")
        # Acyclic programs execute at most one visit per instruction.
        assert result.steps <= len(gp.program)

    def test_ends_with_exit(self):
        for seed in range(10):
            insns = generate_program(seed).program.insns
            assert insns[-1].is_exit()

    def test_unknown_profile_rejected(self):
        with pytest.raises(KeyError):
            ProgramGenerator(0, profile="nope")

    @pytest.mark.parametrize("ctx_size", [0, 1, 4, 7])
    def test_tiny_ctx_sizes_generate_cleanly(self, ctx_size):
        # ctx loads must clamp (or skip) rather than draw an empty range.
        for seed in range(8):
            gp = generate_program(seed, profile="memory", ctx_size=ctx_size)
            for insn in gp.program:
                if insn.is_load() and insn.src == 1:
                    assert insn.size_bytes() <= ctx_size


class TestSizeBound:
    """The instruction budget is soft: a program may overrun
    ``max_insns`` by at most 8, which is why campaigns cap ``max_insns``
    at ``isa.MAX_INSNS - 8``."""

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_overrun_is_at_most_eight(self, profile):
        for max_insns in (8, 24, 40):
            for seed in range(200):
                program = generate_program(seed, profile, max_insns).program
                assert len(program.insns) <= max_insns + 8

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_largest_campaign_programs_build(self, profile):
        # Program() raises for more than isa.MAX_INSNS instructions.
        for seed in range(64):
            generate_program(seed, profile, isa.MAX_INSNS - 8)


class TestVerifierPlausibility:
    def test_high_acceptance_rate(self):
        accepted = sum(
            bool(verify_program(generate_program(s).program).ok)
            for s in range(60)
        )
        assert accepted >= 45  # the typed generator mostly passes

    def test_alu_profile_emits_no_memory_ops(self):
        for seed in range(10):
            gp = generate_program(seed, profile="alu")
            for insn in gp.program:
                assert not insn.is_load() and not insn.is_store()

    def test_memory_profile_touches_memory(self):
        touched = 0
        for seed in range(10):
            gp = generate_program(seed, profile="memory")
            touched += any(
                i.is_load() or i.is_store() for i in gp.program
            )
        assert touched >= 8

    def test_branchy_profile_branches(self):
        branchy = 0
        for seed in range(10):
            gp = generate_program(seed, profile="branchy")
            branchy += any(i.is_cond_jump() for i in gp.program)
        assert branchy >= 8

    def test_all_profiles_generate(self):
        for name in PROFILES:
            gp = generate_program(3, profile=name)
            assert gp.program.insns[-1].is_exit()

    def test_never_writes_r10(self):
        for seed in range(20):
            for insn in generate_program(seed).program:
                if insn.is_alu() or insn.is_lddw() or insn.is_load():
                    assert insn.dst != isa.FP_REG
