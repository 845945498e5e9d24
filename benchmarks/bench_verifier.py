"""Verifier-throughput benchmarks (speed requirement, §I).

The paper's third requirement for the analyzer is *speed*: program load
time must stay small.  These benchmarks time the miniature verifier on
progressively larger synthetic programs, plus the concrete interpreter
for scale, and record instructions-per-second.
"""

from __future__ import annotations

import random

import pytest

from repro.bpf import Machine, assemble
from repro.bpf.verifier import PathSensitiveVerifier, Verifier

from .conftest import write_artifact


def straightline_program(n_insns: int, seed: int = 0) -> str:
    rng = random.Random(seed)
    lines = ["ldxdw r2, [r1+0]", "ldxdw r3, [r1+8]", "mov r4, 99"]
    ops = ["add", "sub", "and", "or", "xor", "mul"]
    for _ in range(n_insns):
        lines.append(f"{rng.choice(ops)} r{rng.choice([2, 3, 4])}, "
                     f"r{rng.choice([2, 3, 4])}")
    lines += ["mov r0, r2", "exit"]
    return "\n".join(lines)


def branchy_program(n_branches: int) -> str:
    lines = ["ldxdw r2, [r1+0]", "mov r0, 0"]
    for i in range(n_branches):
        lines += [
            f"jeq r2, {i}, skip{i}",
            "add r0, 1",
            f"skip{i}:",
            "and r0, 0xffff",
        ]
    lines.append("exit")
    return "\n".join(lines)


@pytest.mark.parametrize("size", [50, 200, 800])
def test_verify_straightline(benchmark, size):
    program = assemble(straightline_program(size))
    verifier = Verifier(ctx_size=64)
    result = benchmark(verifier.verify, program)
    assert result.ok


@pytest.mark.parametrize("branches", [8, 32, 128])
def test_verify_branchy(benchmark, branches):
    program = assemble(branchy_program(branches))
    verifier = Verifier(ctx_size=64)
    result = benchmark(verifier.verify, program)
    assert result.ok


def test_verify_cold_program(benchmark):
    # A fresh Program each call: container and CFG construction are
    # inside the timer, as they are for every generated program.
    from repro.bpf.program import Program

    insns = list(assemble(straightline_program(200)).insns)
    verifier = Verifier(ctx_size=64)

    def run():
        return verifier.verify(Program(insns))

    result = benchmark(run)
    assert result.ok


def test_interpret_straightline(benchmark):
    program = assemble(straightline_program(500))
    machine = Machine(ctx=bytes(64))

    result = benchmark(machine.run, program)
    assert result.steps == len(program)


@pytest.mark.parametrize("branches", [8, 32])
def test_verify_branchy_path_sensitive(benchmark, branches):
    # The kernel-style DFS engine on the same diamonds; state pruning is
    # what keeps this comparable to the join engine instead of 2^n.
    program = assemble(branchy_program(branches))
    verifier = PathSensitiveVerifier(ctx_size=64)
    result = benchmark(verifier.verify, program)
    assert result.ok


def test_obs_disabled_is_zero_overhead(benchmark, monkeypatch):
    """Instrumented-disabled overhead must stay under 2%.

    Two layers of proof.  The structural one is exact: the walk picks
    its timed or untimed loop once per ``verify`` call, so with obs
    disabled a verify makes no ``record_op_time`` call at all, while
    with obs enabled it records one ``verifier`` sample per processed
    instruction under its :func:`step_label`; verdicts and transfer
    streams are equal either way.  The timing layer then compares a
    verify pass before and after an enable/disable cycle, which would
    catch a regression where toggling obs leaves timing behind; 2% is
    the contract, with a best-of-several measurement to keep the check
    meaningful on shared CI machines.
    """
    import time

    from repro import obs
    from repro.bpf.program import Program
    from repro.bpf.verifier.absint import step_label

    obs.reset()
    insns = list(assemble(straightline_program(400)).insns)
    calls = []
    record = obs.record_op_time

    def spy(component, label, ns):
        calls.append((component, label))
        record(component, label, ns)

    monkeypatch.setattr(obs, "record_op_time", spy)

    def observed():
        stream = []
        verifier = Verifier(
            ctx_size=64,
            on_transfer=lambda idx, label, s: stream.append((idx, label, s)),
        )
        result = verifier.verify(Program(insns))
        return result.ok, result.insns_processed, stream

    pristine = observed()
    assert calls == []
    obs.enable()
    instrumented = observed()
    obs.reset()
    assert instrumented == pristine
    assert len(calls) == pristine[1]
    assert set(calls) == {("verifier", step_label(insn)) for insn in insns}
    calls.clear()
    assert observed() == pristine
    assert calls == []

    def best_verify_s(repeats: int = 5) -> float:
        verifier = Verifier(ctx_size=64)
        best = None
        for _ in range(repeats):
            program = Program(insns)
            t0 = time.perf_counter()
            assert verifier.verify(program).ok
            elapsed = time.perf_counter() - t0
            if best is None or elapsed < best:
                best = elapsed
        return best

    before = best_verify_s()
    obs.enable()
    best_verify_s(repeats=1)   # exercise the instrumented path
    obs.reset()
    after = best_verify_s()
    assert after <= before * 1.02, (
        f"obs-disabled verify regressed {100 * (after / before - 1):.1f}% "
        f"after an enable/disable cycle (limit 2%)"
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_verifier_throughput_summary(benchmark, out_dir):
    import time

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    lines = ["Verifier throughput (instructions analyzed per second):"]
    for size in (100, 400, 1600):
        program = assemble(straightline_program(size))
        verifier = Verifier(ctx_size=64)
        t0 = time.perf_counter()
        result = verifier.verify(program)
        elapsed = time.perf_counter() - t0
        assert result.ok
        lines.append(
            f"  {len(program):>5} insns: {elapsed * 1e3:7.2f} ms "
            f"({result.insns_processed / elapsed:,.0f} insn/s)"
        )
    write_artifact(out_dir, "verifier_throughput.txt", "\n".join(lines))
