"""Smoke tests: every example script must run to completion.

Each example runs as a script (``python examples/NAME.py``) in a fresh
interpreter on this checkout's ``src`` and must exit 0, so an example
that imports a removed public name fails here, not in a user's hands.
Examples double as end-to-end integration tests — each exercises a
different slice of the public API against the paper's own numbers, and
several raise SystemExit on any mismatch.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"


def run_example(name: str, argv=()) -> str:
    """Run one example script; return its stdout after requiring exit 0."""
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *argv],
        capture_output=True, encoding="utf-8", timeout=300,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                 PYTHONIOENCODING="utf-8"),
    )
    assert proc.returncode == 0, (
        f"{name} exited {proc.returncode}:\n{proc.stderr}"
    )
    return proc.stdout


def test_every_example_has_a_test():
    tests = [name for name in globals() if name.startswith("test_")]
    for script in sorted(EXAMPLES.glob("*.py")):
        assert any(t.startswith(f"test_{script.stem}") for t in tests), (
            f"no test runs examples/{script.name}"
        )


def test_quickstart():
    out = run_example("quickstart.py")
    assert "10µµ1" in out          # Fig. 2 result
    assert "µµµ10" in out          # Fig. 3 result
    assert "[17, 19, 21, 23]" in out


def test_verify_bpf_program():
    out = run_example("verify_bpf_program.py")
    assert out.count("ACCEPTED") == 1
    assert out.count("REJECTED:") == 2


def test_range_analysis():
    out = run_example("range_analysis.py")
    assert "provably < 16" in out
    assert "True" in out


def test_packet_filter():
    out = run_example("packet_filter.py")
    assert "ACCEPTED" in out
    assert "500/500" in out


def test_precision_study_small():
    out = run_example("precision_study.py", ["4"])
    assert "our_mul vs kern_mul" in out
    assert "Figure 4" in out


@pytest.mark.slow
def test_solver_verification():
    out = run_example("solver_verification.py")
    assert "SOUND" in out
    assert "not associative" in out


def test_soundness_matters():
    out = run_example("soundness_matters.py")
    assert "REJECTED" in out          # honest verifier
    assert "ACCEPTED" in out          # buggy verifier fooled
    assert "CRASH" in out             # concrete escape
    assert "UNSOUND" in out           # SAT pipeline catches it


def test_fuzz_campaign():
    out = run_example("fuzz_campaign.py")
    assert "violations: 0" in out     # clean campaign
    assert "shrunk witness" in out    # injected bug caught + minimized
    assert "bit-exact" in out         # corpus round-trip
