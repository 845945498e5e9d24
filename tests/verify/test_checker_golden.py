"""Golden test: what the soundness checkers and precision harnesses print.

Each case renders one run, its report text plus, where the report keeps
one, its counterexample, and compares one sha256 with
``golden/checker_digests.json``.  A family's cases must match the golden's
cases with that family's prefix exactly, so an operator that drops out of
a sweep, or joins one without a frozen digest, fails too.

The families cover ``repro check-op`` for every operator each method
accepts (exhaustive at width 3, SAT at width 4, random at widths 8 and
64), the exhaustive and random sweeps, exhaustive optimality of every
binary operator at width 3 (to the first failure, and over every
pair), one planted unsound operator of each kind (binary, unary,
shift) through the exhaustive and random checks, and the Fig. 4 /
Table I / domain-ablation outputs.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.core import ops
from repro.core.tnum import Tnum, mask_for_width
from repro.eval.domain_ablation import ablation_study
from repro.verify.exhaustive import check_optimality, verify_all_operators
from repro.verify.random_check import random_check_all, random_check_operator
from repro.verify.sat import SUPPORTED_OPERATORS

GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "checker_digests.json").read_text()
)

RANDOM_FLAGS = ["--trials", "200", "--seed", "5"]


def table_names():
    return (*ops.BINARY_OPS, *ops.UNARY_OPS, *ops.SHIFT_OPS)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def check_family(family: str, outputs: dict) -> None:
    got = {f"{family} {case}": digest(text) for case, text in outputs.items()}
    want = {case: value for case, value in GOLDEN.items()
            if case.startswith(f"{family} ")}
    assert got == want, f"{family}: output diverged from the golden"


def cli(capsys, argv) -> str:
    code = main(argv)
    return f"exit {code}\n{capsys.readouterr().out}"


def exhaustive_text(report) -> str:
    return (f"{report} | failing {report.failing_pairs} "
            f"| {report.counterexample!r}")


def random_text(report) -> str:
    return f"{report} | failures {report.failures} | {report.counterexample!r}"


@pytest.mark.parametrize("method,names,flags", [
    ("exhaustive", table_names, ["--width", "3"]),
    ("sat", lambda: SUPPORTED_OPERATORS, ["--width", "4"]),
    ("random", table_names, ["--width", "8", *RANDOM_FLAGS]),
    ("random", table_names, ["--width", "64", *RANDOM_FLAGS]),
])
def test_check_op_frozen(method, names, flags, capsys):
    outputs = {
        name: cli(capsys, ["check-op", name, "--method", method, *flags])
        for name in names()
    }
    check_family(f"check-op {method} {' '.join(flags)}", outputs)


def test_exhaustive_sweep_frozen():
    reports = verify_all_operators(3)
    check_family("sweep exhaustive 3",
                 {name: exhaustive_text(r) for name, r in reports.items()})


@pytest.mark.parametrize("stop_at_first,case", [
    (True, "first"), (False, "all"),
])
def test_optimality_frozen(stop_at_first, case):
    check_family(f"optimality 3 {case}", {
        name: exhaustive_text(
            check_optimality(name, 3, stop_at_first=stop_at_first)
        )
        for name in ops.BINARY_OPS
    })


def test_random_sweep_frozen():
    reports = random_check_all(trials=200, seed=1)
    check_family("sweep random 200 1",
                 {name: random_text(r) for name, r in reports.items()})


# -- planted unsound operators, one per kind ------------------------------


def value_only_mul(p: Tnum, q: Tnum) -> Tnum:
    """Multiplies the known values and drops every unknown bit."""
    return Tnum.const(p.value * q.value, p.width)


def value_only_neg(p: Tnum) -> Tnum:
    """Negates the known value and drops every unknown bit."""
    return Tnum.const(-p.value, p.width)


def lsh_keeps_mask(p: Tnum, amount: int) -> Tnum:
    """Shifts the value but leaves the unknown bits where they were."""
    value = (p.value << amount) & mask_for_width(p.width)
    return Tnum(value, p.mask, p.width)


PLANTED = {
    "mul": ("BINARY_OPS", value_only_mul),
    "neg": ("UNARY_OPS", value_only_neg),
    "lsh": ("SHIFT_OPS", lsh_keeps_mask),
}


@pytest.fixture
def planted(monkeypatch):
    for name, (table_name, bug) in PLANTED.items():
        table = getattr(ops, table_name)
        monkeypatch.setitem(
            table, name, dataclasses.replace(table[name], abstract=bug)
        )


def test_planted_exhaustive_frozen(planted, capsys):
    outputs = {
        name: cli(capsys, ["check-op", name, "--method", "exhaustive",
                           "--width", "3"])
        for name in PLANTED
    }
    assert all(text.startswith("exit 1\n") for text in outputs.values())
    check_family("planted exhaustive 3", outputs)


@pytest.mark.parametrize("width", [8, 64])
def test_planted_random_frozen(planted, width):
    outputs = {}
    for name in PLANTED:
        report = random_check_operator(name, trials=200, width=width, seed=5)
        assert not report.passed
        outputs[name] = random_text(report)
    check_family(f"planted random {width}", outputs)


# -- precision artifacts ----------------------------------------------------


def test_precision_artifacts_frozen(capsys):
    check_family("eval", {
        "fig4 4": cli(capsys, ["eval", "fig4", "--width", "4"]),
        "table1 5": cli(capsys, ["eval", "table1", "--width", "5"]),
        "ablation 400 0": repr(ablation_study(400, seed=0)),
    })
