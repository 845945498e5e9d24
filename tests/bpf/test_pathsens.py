"""Tests for the path-sensitive verifier and its relation to the join engine."""

import pytest

from repro.bpf import assemble
from repro.bpf.verifier import PathSensitiveVerifier, Verifier
from repro.fuzz.generator import generate_program

def _both(text: str):
    prog = assemble(text)
    return (
        Verifier(ctx_size=64).verify(prog),
        PathSensitiveVerifier(ctx_size=64).verify(prog),
    )


class TestAgreementOnSimplePrograms:
    @pytest.mark.parametrize("text,expected", [
        ("mov r0, 0\nexit", True),
        ("mov r0, r10\nexit", False),
        ("ldxdw r0, [r10-8]\nexit", False),
        ("""
            mov r2, 7
            stxdw [r10-8], r2
            ldxdw r0, [r10-8]
            exit
        """, True),
        ("""
            ldxw r2, [r1+0]
            and r2, 7
            add r1, r2
            ldxb r0, [r1+0]
            exit
        """, True),
    ])
    def test_same_verdicts(self, text, expected):
        join_res, path_res = _both(text)
        assert join_res.ok == path_res.ok == expected

    def test_loop_rejected_by_both(self):
        join_res, path_res = _both("""
        top:
            add r0, 1
            jne r0, 10, top
            exit
        """)
        assert not join_res.ok and not path_res.ok

    def test_bad_control_flow_is_structural_in_both(self):
        # A ja-to-itself loop: a policy rejection, not an instruction's
        # fault, so the oracle must not replay it and /verify must
        # render it as structural.
        join_res, path_res = _both("mov r0, 0\nspin:\nja spin\nexit")
        for result in (join_res, path_res):
            assert not result.ok
            [error] = result.errors
            assert error.structural
            assert "bad control flow" in error.reason
        assert str(join_res.errors[0]) == str(path_res.errors[0])


class TestPathSensitivityGain:
    def test_path_only_program(self):
        # Per-path r3+offset is exactly 0 or 64; the paths correlate the
        # branch condition with the offset, so each access is [r10-72]?
        # — constructed instead below with a cleaner correlated program.
        text = """
            ldxb r2, [r1+0]
            mov r0, 0
            jeq r2, 0, low
            mov r3, 8
            ja merge
        low:
            mov r3, 16
        merge:
            jeq r2, 0, low2
            add r3, -8        ; r3 was 8 -> 0
            ja access
        low2:
            add r3, -16       ; r3 was 16 -> 0
        access:
            ; per path r3 == 0; after a join r3 would be {0, -8, ...}-ish.
            mov r4, r10
            add r4, -8
            add r4, r3
            stdw [r10-8], 0
            ldxdw r0, [r4+0]
            exit
        """
        join_res, path_res = _both(text)
        assert path_res.ok, path_res.error_messages()
        assert not join_res.ok  # the join forgets the correlation

    def test_join_acceptance_implies_path_acceptance(self):
        # On a battery of programs, path-sensitive is never stricter.
        programs = [
            "mov r0, 0\nexit",
            """
                ldxw r2, [r1+0]
                jge r2, 8, out
                add r1, r2
                ldxb r0, [r1+0]
                exit
            out:
                mov r0, 0
                exit
            """,
            """
                mov r2, 0
                jne r2, 0, dead
                mov r0, 0
                exit
            dead:
                ldxdw r0, [r10-8]
                exit
            """,
        ]
        for text in programs:
            join_res, path_res = _both(text)
            if join_res.ok:
                assert path_res.ok


class TestPruning:
    def test_pruning_counter_grows_on_diamonds(self):
        # Diamonds branching on an *unrefinable* condition (register vs
        # register, both unknown) whose arms converge to identical
        # states: every merge point's second arrival must be pruned.
        lines = ["ldxb r2, [r1+0]", "ldxb r3, [r1+1]", "mov r0, 0"]
        for i in range(6):
            lines += [
                f"jeq r2, r3, skip{i}",
                "mov r5, 1",
                f"ja merge{i}",
                f"skip{i}:",
                "mov r5, 1",
                f"merge{i}:",
            ]
        lines.append("exit")
        prog = assemble("\n".join(lines))
        verifier = PathSensitiveVerifier(ctx_size=64)
        result = verifier.verify(prog)
        assert result.ok
        assert verifier.pruned_count >= 6
        # Without pruning this would explode to 2^6 paths.
        assert result.insns_processed < 100

    def test_complexity_limit(self):
        # jset taken-edges carry no refinement, and each arm perturbs r4
        # differently, so no state subsumes another: path count doubles
        # per diamond and the kernel-style complexity limit must trip.
        lines = ["ldxb r2, [r1+0]", "mov r0, 0", "mov r4, 0"]
        for i in range(12):
            lines += [
                f"jset r2, {1 << (i % 8)}, skip{i}",
                f"add r4, {1 << i}",
                f"skip{i}:",
            ]
        lines.append("exit")
        prog = assemble("\n".join(lines))
        verifier = PathSensitiveVerifier(ctx_size=64, max_states=300)
        result = verifier.verify(prog)
        assert not result.ok
        assert "complexity limit" in result.errors[0].reason


class TestWatchdog:
    def test_deadline_surfaces_as_structured_timeout(self):
        # The inherited deadline_s stops the path walk with the join
        # walk's structured rejection, not a silent accept.
        program = generate_program(3, "branchy", 64).program
        for engine in (Verifier, PathSensitiveVerifier):
            result = engine(deadline_s=1e-9).verify(program)
            assert not result.ok and result.timed_out, engine.__name__
            error = result.errors[0]
            assert error.timeout
            assert error.reason.startswith(
                "verification exceeded its 1e-09s deadline after"
            )

    def test_generous_deadline_is_invisible(self):
        program = generate_program(3, "branchy", 64).program
        result = PathSensitiveVerifier(deadline_s=60.0).verify(program)
        assert result.ok and not result.timed_out
