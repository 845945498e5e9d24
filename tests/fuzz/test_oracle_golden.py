"""Frozen golden of everything the differential oracle reports.

Each case checks its programs in order, each with ``input_seed_base``
set to its position, and renders the whole :class:`OracleReport`: the
verdict, ``runs``, ``checks``, the rejection fields, every violation
field, and the concrete ranges.  A sha256 over those renders must equal
the case's digest in ``golden/oracle_digests.json``.

The digests were recorded before the replay loop learned to compare
constant registers in one step and to build its plans and inputs once,
so they pin that those shortcuts change no output.  Besides 200
generator programs per profile (also checked with range tracking off,
and with a cut-off of zero violations) and 200 mutants (which add
rejections), four injected verifier bugs drive the paths where the
shortcuts must step aside: an unsound tnum add (a register with unknown
bits escapes), an add that folds two constants one too high (a constant
register escapes, and ``max_violations`` is reached in the middle of a
run), a branch refinement that prunes every taken edge
(``unverified_pc``), and a disabled bounds check (``accepted_crash``).
"""

import hashlib
import json
import random
from pathlib import Path
from typing import Iterable, List

import pytest

from repro.bpf import Program, assemble
from repro.bpf import isa
from repro.core.tnum import Tnum
from repro.domains.product import ScalarValue
from repro.fuzz import DifferentialOracle, generate_program
from repro.fuzz.generator import PROFILES
from repro.fuzz.mutate import mutate_program
from repro.fuzz.oracle import OracleReport

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "oracle_digests.json").read_text()
)

U64 = (1 << 64) - 1
PROGRAMS = 200

#: Constant adds, then long enough after the first wrong fold that the
#: fourth violation lands in the middle of the first replay.
CONST_ADDS = """
    mov r0, 1
    add r0, 2
    mov r2, 7
    add r2, 5
    ldxb r3, [r1+0]
    mov r4, 9
    add r4, r0
    mov r5, r4
    add r5, 1
    stxdw [r10-8], r5
    ldxdw r6, [r10-8]
    add r6, r2
    mov r0, r6
    exit
"""

OOB_STORE = """
    mov   r1, 5
    stxdw [r10+8], r1
    mov   r0, 0
    exit
"""


def render_report(report: OracleReport) -> str:
    lines = [
        f"{report.verdict} runs={report.runs} checks={report.checks} "
        f"clean={report.rejected_but_clean} reject_pc={report.reject_pc}",
        f"reason {report.reject_reason}",
    ]
    lines += [
        f"violation {v.kind} pc={v.pc} r={v.register} c={v.concrete} "
        f"seed={v.input_seed} {v.message}"
        for v in report.violations
    ]
    lines += [
        f"range {idx} {span[0]} {span[1]}"
        for idx, span in sorted(report.concrete_ranges.items())
    ]
    return "\n".join(lines) + "\n"


def make_oracle(**kwargs) -> DifferentialOracle:
    # The campaign's configuration: range tracking on, a bounded step
    # budget for mutants with loops.
    return DifferentialOracle(collect_ranges=True, step_limit=4096, **kwargs)


def check_all(
    oracle: DifferentialOracle, programs: Iterable[Program]
) -> List[OracleReport]:
    return [
        oracle.check_program(program, input_seed_base=i)
        for i, program in enumerate(programs)
    ]


def digest(reports: Iterable[OracleReport]) -> str:
    sha = hashlib.sha256()
    for report in reports:
        sha.update(render_report(report).encode())
    return sha.hexdigest()


def assert_golden(case: str, reports: List[OracleReport]) -> List[OracleReport]:
    assert digest(reports) == GOLDEN[case], (
        f"oracle reports for {case!r} diverged from the frozen golden"
    )
    return reports


def generated(profile: str) -> List[Program]:
    return [
        generate_program(seed, profile).program for seed in range(PROGRAMS)
    ]


def mutants() -> List[Program]:
    out = []
    for seed in range(PROGRAMS):
        rng = random.Random(seed)
        base = generate_program(seed, "mixed").program
        donor = generate_program(seed + PROGRAMS, "mixed").program
        out.append(mutate_program(base, donor=donor, rng=rng))
    return out


def kinds(reports: List[OracleReport]) -> List[str]:
    return [v.kind for r in reports for v in r.violations]


class TestCleanOracle:
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_generator_programs(self, profile):
        reports = assert_golden(
            f"generator.{profile}", check_all(make_oracle(), generated(profile))
        )
        assert not kinds(reports)

    def test_mutants(self):
        reports = assert_golden("mutants", check_all(make_oracle(), mutants()))
        assert not kinds(reports)
        rejected = [r for r in reports if r.verdict == "rejected"]
        assert any(r.rejected_but_clean for r in rejected)
        assert any(r.rejected_but_clean is False for r in rejected)

    def test_without_range_tracking(self):
        assert_golden(
            "generator.mixed.no_ranges",
            check_all(
                DifferentialOracle(step_limit=4096), generated("mixed")
            ),
        )

    def test_zero_max_violations(self):
        # With no room for a violation, each step checks one register.
        assert_golden(
            "generator.mixed.max_violations_0",
            check_all(make_oracle(max_violations=0), generated("mixed")),
        )


class TestInjectedBugs:
    def test_unsound_tnum_add(self, monkeypatch):
        import repro.domains.product as product

        real_add = product.tnum_add

        def buggy_add(p: Tnum, q: Tnum) -> Tnum:
            t = real_add(p, q)
            if t.is_bottom():
                return t
            return Tnum(t.value & ~1, t.mask & ~1, t.width)

        monkeypatch.setattr(product, "tnum_add", buggy_add)
        programs = [
            assemble("ldxb r2, [r1+0]\nmov r0, 3\nadd r0, r2\nexit")
        ] + generated("alu")
        reports = assert_golden(
            "bug.unsound_tnum_add", check_all(make_oracle(), programs)
        )
        assert "containment" in kinds(reports)

    def test_constant_add_one_too_many(self, monkeypatch):
        import repro.bpf.verifier.absint as absint

        real_add = ScalarValue.add

        def off_by_one(dst: ScalarValue, src: ScalarValue) -> ScalarValue:
            if dst.is_const() and src.is_const():
                return ScalarValue.const(
                    (dst.const_value() + src.const_value() + 1) & U64
                )
            return real_add(dst, src)

        monkeypatch.setitem(absint._SCALAR_BINOP, isa.ALU_ADD, off_by_one)
        programs = [assemble(CONST_ADDS)] + generated("alu")
        reports = assert_golden(
            "bug.constant_add", check_all(make_oracle(), programs)
        )
        first = reports[0]
        # The fourth violation stops the check of one step, and each
        # later step of that replay still checks one register.
        assert first.runs == 1
        assert len(first.violations) > 4
        assert "containment" in kinds(reports)

    def test_pruned_taken_edges(self, monkeypatch):
        from repro.bpf.verifier import Verifier

        monkeypatch.setattr(
            Verifier, "_refine",
            staticmethod(lambda value, op, bound: (ScalarValue.bottom(), None)),
        )
        reports = assert_golden(
            "bug.unverified_pc", check_all(make_oracle(), generated("branchy"))
        )
        assert "unverified_pc" in kinds(reports)

    def test_disabled_bounds_check(self, monkeypatch):
        import repro.bpf.verifier.absint as absint

        monkeypatch.setattr(absint, "check_mem_access", lambda *a, **k: None)
        programs = [assemble(OOB_STORE)] + mutants()
        reports = assert_golden(
            "bug.accepted_crash", check_all(make_oracle(), programs)
        )
        assert "accepted_crash" in kinds(reports)
