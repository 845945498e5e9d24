"""Differential-oracle behaviour: clean programs, rejections, injected bugs."""

import pytest

import repro.fuzz.oracle as oracle_module
from repro.bpf import assemble
from repro.bpf.verifier import PathSensitiveVerifier
from repro.core.tnum import Tnum
from repro.fuzz import DifferentialOracle, generate_program
from repro.fuzz.campaign import CampaignSpec, run_precision_campaign
from repro.fuzz.generator import PROFILES

SAFE = """
    mov   r0, 0
    ldxw  r2, [r1+0]
    and   r2, 63
    stxdw [r10-8], r2
    ldxdw r3, [r10-8]
    add   r0, r3
    exit
"""

UNINIT_STACK = """
    ldxdw r0, [r10-8]
    exit
"""

OOB_STORE = """
    mov   r1, 5
    stxdw [r10+8], r1
    mov   r0, 0
    exit
"""


class TestAcceptedPrograms:
    def test_safe_program_is_clean(self):
        oracle = DifferentialOracle(inputs_per_program=6)
        report = oracle.check_program(assemble(SAFE), input_seed_base=1)
        assert report.verdict == "accepted"
        assert report.ok
        assert report.runs == 6
        assert report.checks > 0

    def test_generated_programs_are_clean(self):
        oracle = DifferentialOracle(inputs_per_program=4)
        for seed in range(40):
            gp = generate_program(seed)
            report = oracle.check_program(gp.program, input_seed_base=seed)
            assert report.ok, (
                f"seed {seed}: {[str(v) for v in report.violations]}"
            )

    def test_input_streams_are_deterministic(self):
        oracle = DifferentialOracle(inputs_per_program=4)
        prog = assemble(SAFE)
        a = oracle.check_program(prog, input_seed_base=9)
        b = oracle.check_program(prog, input_seed_base=9)
        assert (a.checks, a.runs, a.violations) == (
            b.checks, b.runs, b.violations
        )


class TestRejectedPrograms:
    def test_rejection_with_clean_replay_is_not_a_violation(self):
        # The interpreter zero-fills the stack, so this runs fine; the
        # verifier's rejection is conservatism, not unsoundness.
        report = DifferentialOracle().check_program(assemble(UNINIT_STACK))
        assert report.verdict == "rejected"
        assert report.ok
        assert report.rejected_but_clean is True
        assert "uninitialized" in report.reject_reason

    def test_rejection_confirmed_by_crash(self):
        report = DifferentialOracle().check_program(assemble(OOB_STORE))
        assert report.verdict == "rejected"
        assert report.ok
        assert report.rejected_but_clean is False


@pytest.fixture(params=["join", "path"])
def engine(request, monkeypatch):
    """The oracle's abstract walk: the join engine or the path-sensitive one."""
    if request.param == "path":
        monkeypatch.setattr(oracle_module, "Verifier", PathSensitiveVerifier)


@pytest.mark.usefixtures("engine")
class TestInjectedBugs:
    def test_unsound_add_is_caught(self, monkeypatch):
        """Clearing the LSB of every abstract sum must trip containment."""
        import repro.domains.product as product

        real_add = product.tnum_add

        def buggy_add(p: Tnum, q: Tnum) -> Tnum:
            t = real_add(p, q)
            if t.is_bottom():
                return t
            return Tnum(t.value & ~1, t.mask & ~1, t.width)

        monkeypatch.setattr(product, "tnum_add", buggy_add)

        # The operand must be abstractly unknown: const + const folds
        # concretely (exact on singletons), bypassing the tnum transfer.
        program = assemble("ldxb r2, [r1+0]\nmov r0, 3\nadd r0, r2\nexit")
        report = DifferentialOracle(inputs_per_program=8).check_program(
            program
        )
        assert report.verdict == "accepted"
        assert not report.ok
        assert report.violations[0].kind == "containment"
        assert report.violations[0].register == 0

    def test_disabled_bounds_check_is_caught(self, monkeypatch):
        """An accepted program that crashes concretely is a violation."""
        import repro.bpf.verifier.absint as absint

        monkeypatch.setattr(
            absint, "check_mem_access", lambda *a, **k: None
        )
        report = DifferentialOracle(inputs_per_program=1).check_program(
            assemble(OOB_STORE)
        )
        assert report.verdict == "accepted"
        assert not report.ok
        assert report.violations[0].kind == "accepted_crash"


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_path_engine_campaign_is_sound(profile, monkeypatch):
    """A default campaign, its mutants and rejections included, finds no
    violation when the oracle walks paths instead of joining them."""
    monkeypatch.setattr(oracle_module, "Verifier", PathSensitiveVerifier)
    result = run_precision_campaign(CampaignSpec(budget=200, profile=profile))
    stats = result.stats
    assert stats.mutants and stats.rejected, stats
    assert stats.violations == 0 and result.ok, stats


class TestRegression32BitAlu:
    """The fuzzer's first catch: 32-bit div/mod/shifts must truncate
    their *operands*, not just the result (truncation does not commute
    with those operations)."""

    @pytest.mark.parametrize("text,expected", [
        # -1 (64-bit) seen as 0xFFFFFFFF by the 32-bit divide.
        ("mov r0, 1\nneg r0\nmov r3, 268914504\ndiv32 r0, r3\nexit", 15),
        # mod32 likewise works on the subregister.
        ("mov r0, 0\nxor32 r0, -1\nadd r0, r0\nmod32 r0, 1750065495\nexit",
         794836304),
    ])
    def test_witnesses_stay_sound(self, text, expected):
        from repro.bpf import Machine
        program = assemble(text)
        assert Machine().run(program).return_value == expected
        report = DifferentialOracle(inputs_per_program=2).check_program(
            program
        )
        assert report.verdict == "accepted"
        assert report.ok, [str(v) for v in report.violations]

    def test_arsh32_containment(self):
        program = assemble(
            "mov r0, 1\nlsh r0, 31\narsh32 r0, 4\nexit"
        )
        from repro.bpf import Machine
        assert Machine().run(program).return_value == 0xF800_0000
        report = DifferentialOracle(inputs_per_program=1).check_program(
            program
        )
        assert report.ok, [str(v) for v in report.violations]


class TestReplayIf:
    """``replay_if`` lets a caller stop after the walk."""

    def test_false_on_accepted_keeps_only_the_verdict(self):
        seen = []

        def never(result):
            seen.append(result.ok)
            return False

        report = DifferentialOracle(collect_ranges=True).check_program(
            assemble(SAFE), input_seed_base=3, replay_if=never
        )
        assert seen == [True]
        assert (report.verdict, report.runs, report.checks) == (
            "accepted", 0, 0
        )
        assert report.ok and not report.concrete_ranges
        assert report.rejected_but_clean is None

    def test_false_on_rejected_skips_the_clean_replay(self):
        report = DifferentialOracle().check_program(
            assemble(UNINIT_STACK), replay_if=lambda result: False
        )
        assert (report.verdict, report.runs) == ("rejected", 0)
        assert report.rejected_but_clean is None
        assert report.reject_reason is None and report.reject_pc is None

    @pytest.mark.parametrize("text", [SAFE, UNINIT_STACK, OOB_STORE])
    def test_true_changes_nothing(self, text):
        oracle = DifferentialOracle(collect_ranges=True)
        program = assemble(text)
        plain = oracle.check_program(program, input_seed_base=5)
        gated = oracle.check_program(
            program, input_seed_base=5, replay_if=lambda result: True
        )
        assert gated == plain

    def test_is_keyword_only(self):
        with pytest.raises(TypeError):
            DifferentialOracle().check_program(
                assemble(SAFE), 0, lambda result: False
            )

    def test_obs_on_passes_it_through(self):
        from repro import obs

        obs.enable()
        try:
            report = DifferentialOracle().check_program(
                assemble(SAFE), replay_if=lambda result: False
            )
            replays = obs.default_registry().counter("oracle.replays").value
        finally:
            obs.reset()
        assert (report.verdict, report.runs) == ("accepted", 0)
        assert replays == 0


class TestReplayInputs:
    def test_contexts_built_once_per_seed_base(self, monkeypatch):
        oracle = DifferentialOracle(inputs_per_program=4)
        made = []
        real = oracle._make_ctx
        monkeypatch.setattr(
            oracle, "_make_ctx", lambda seed: made.append(seed) or real(seed)
        )
        first = oracle.check_program(assemble(SAFE), input_seed_base=7)
        again = oracle.check_program(assemble(SAFE), input_seed_base=7)
        assert first == again and len(made) == 4
        oracle.check_program(assemble(SAFE), input_seed_base=8)
        assert len(made) == 8

    def test_fresh_oracle_matches_reused_one(self):
        reused = DifferentialOracle(collect_ranges=True)
        for seed in range(30):
            program = generate_program(seed).program
            assert reused.check_program(
                program, input_seed_base=seed % 3
            ) == DifferentialOracle(collect_ranges=True).check_program(
                program, input_seed_base=seed % 3
            )
