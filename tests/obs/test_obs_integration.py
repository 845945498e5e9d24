"""Observability threaded through the real stack, without changing it.

The contract under test: enabling obs may only *add* metrics, spans, and
heartbeats — verifier verdicts, per-instruction states, telemetry
streams, campaign reports, and checkpoint goldens are identical with obs
on or off, for any worker count.
"""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.bpf import assemble
from repro.bpf.interpreter import Machine
from repro.bpf.verifier import Verifier
from repro.bpf.verifier.absint import step_label
from repro.fuzz import CampaignSpec, fuzz_spec, run_precision_campaign
from repro.fuzz.oracle import DifferentialOracle


PROGRAM_TEXT = """
    ldxdw r2, [r1+0]
    ldxdw r3, [r1+8]
    and r2, 0xff
    mul r2, r3
    rsh r2, 4
    jgt r2, 100, big
    mov r0, r2
    exit
big:
    mov r0, 0
    exit
"""


def _verify_snapshot():
    stream = []
    verifier = Verifier(
        ctx_size=64, collect_states=True,
        on_transfer=lambda idx, label, scalar: stream.append(
            (idx, label, str(scalar))
        ),
    )
    result = verifier.verify(assemble(PROGRAM_TEXT))
    states = {idx: str(state) for idx, state in verifier.states_at.items()}
    return result.ok, result.insns_processed, result.error_messages(), \
        states, stream


def test_verifier_output_identical_with_obs_enabled():
    baseline = _verify_snapshot()
    obs.enable()
    instrumented = _verify_snapshot()
    assert instrumented == baseline
    # ... and the instrumented pass actually attributed time per op.
    timers = obs.default_registry().timers
    assert ("verifier", "mul64") in timers
    assert timers[("verifier", "mul64")].count >= 1
    obs.reset()
    assert _verify_snapshot() == baseline


def test_verify_records_step_timers_only_when_obs_is_enabled(monkeypatch):
    calls = []
    record = obs.record_op_time

    def spy(component, label, ns):
        calls.append((component, label))
        record(component, label, ns)

    monkeypatch.setattr(obs, "record_op_time", spy)
    baseline = _verify_snapshot()
    assert calls == []                     # obs off: no timing at all

    obs.enable()
    assert _verify_snapshot() == baseline
    # One sample per processed instruction, under its step label.
    insns = assemble(PROGRAM_TEXT).insns
    assert len(calls) == baseline[1]
    assert set(calls) == {("verifier", step_label(insn)) for insn in insns}

    obs.disable()
    calls.clear()
    assert _verify_snapshot() == baseline
    assert calls == []


def test_oracle_counts_replays_and_verdicts():
    obs.enable()
    oracle = DifferentialOracle(ctx_size=64, inputs_per_program=4)
    report = oracle.check_program(
        assemble(PROGRAM_TEXT), input_seed_base=11
    )
    counters = obs.default_registry().counters
    assert counters["oracle.programs"].value == 1
    assert counters[f"oracle.{report.verdict}"].value == 1
    assert counters["oracle.replays"].value == report.runs
    assert counters["oracle.containment_checks"].value == report.checks


def test_driver_metrics_are_worker_count_independent():
    # `repro fuzz`'s one-round campaign.
    obs.enable()
    run_precision_campaign(fuzz_spec(budget=14, seed=5, workers=1,
                                     shrink=False))
    solo = obs.default_registry().to_dict()

    obs.reset()
    obs.enable()
    run_precision_campaign(fuzz_spec(budget=14, seed=5, workers=2,
                                     shrink=False))
    split = obs.default_registry().to_dict()

    # Counters and histogram counts merge associatively, so the shard
    # fold is invisible; timer *durations* are wall-clock and may differ,
    # but their call counts must not.
    assert split["counters"] == solo["counters"]
    assert {k: v["count"] for k, v in split["timers"].items()} == \
        {k: v["count"] for k, v in solo["timers"].items()}


def test_campaign_smoke_with_memory_sink_and_identical_report():
    spec = CampaignSpec(budget=16, rounds=2, seed=3, workers=1)
    baseline = run_precision_campaign(spec).report.to_json()

    sink = obs.MemorySink()
    obs.set_tracer(obs.Tracer(sink, sample=1.0))
    obs.enable()
    result = run_precision_campaign(spec)

    assert result.report.to_json() == baseline
    names = {event["name"] for event in sink.events}
    assert "campaign.round" in names
    assert "oracle.check_program" in names
    assert all(obs.validate_event(e) == [] for e in sink.events)
    rounds = [e for e in sink.events if e["name"] == "campaign.round"]
    assert [e["attrs"]["round"] for e in rounds] == [0, 1]
    # Per-operator verifier attribution reached the default registry.
    assert obs.default_registry().top_timers("verifier", 1)


def test_campaign_checkpoint_records_wall_clock(tmp_path):
    spec = CampaignSpec(budget=8, rounds=2, seed=1)
    run_precision_campaign(spec, state_dir=tmp_path)
    payload = json.loads((tmp_path / "state.json").read_text())
    assert payload["elapsed_s"] >= 0
    assert payload["programs_per_s"] >= 0
    # Timing stays off the deterministic report (golden byte-equality).
    assert "elapsed_s" not in payload["report"]
    assert "programs_per_s" not in payload["report"]


def test_campaign_resume_accepts_checkpoint_with_wall_clock(tmp_path):
    spec = CampaignSpec(budget=8, rounds=2, seed=1)
    first = run_precision_campaign(spec, state_dir=tmp_path,
                                   stop_after_rounds=1)
    assert first.stats.rounds_completed == 1
    resumed = run_precision_campaign(spec, state_dir=tmp_path)
    assert resumed.stats.rounds_completed == 2
    assert resumed.report.to_json() == run_precision_campaign(
        spec
    ).report.to_json()


def test_session_writes_all_artifacts_and_final_heartbeat(tmp_path):
    with obs.configure(obs_dir=tmp_path, sample=1.0):
        assert obs.enabled()
        run_precision_campaign(CampaignSpec(budget=8, rounds=1, seed=2))
    assert not obs.enabled()

    heartbeat = obs.read_heartbeat(tmp_path / "heartbeat.json")
    assert heartbeat["phase"] == "done"
    assert heartbeat["executed"] == 8       # close keeps the last snapshot
    assert heartbeat["seq"] >= 2

    metrics = json.loads((tmp_path / "metrics.json").read_text())
    assert metrics["counters"]["oracle.programs"] >= 8

    events = list(obs.read_trace(tmp_path / "trace.jsonl"))
    assert events
    assert all(obs.validate_event(e) == [] for e in events)


def test_scoped_registry_isolates_and_restores():
    obs.enable()
    outer = obs.default_registry()
    outer.counter("outer").inc()
    with obs.scoped_registry() as inner:
        obs.default_registry().counter("inner").inc()
        assert obs.default_registry() is inner
    assert obs.default_registry() is outer
    assert "inner" not in outer.counters
    assert inner.counters["inner"].value == 1


def test_worker_init_state_round_trip():
    assert obs.worker_init_state() is False
    obs.enable()
    state = obs.worker_init_state()
    assert state is True
    obs.reset()
    obs.init_worker(state)
    assert obs.enabled()
    assert isinstance(obs.tracer(), obs.NullTracer)
    obs.init_worker(False)
    assert not obs.enabled()


def test_interpreter_times_each_executed_step_when_obs_is_on():
    # Four instructions, three executed: the jump skips the second mov.
    program = assemble("""
        mov r0, 1
        jeq r0, 1, done
        mov r0, 2
    done:
        exit
    """)
    machine = Machine()

    def interp_samples():
        return {
            label: stat.count
            for (component, label), stat in
            obs.default_registry().timers.items()
            if component == "interp"
        }

    assert machine.run(program).steps == 3
    assert interp_samples() == {}
    # Switching obs on or off takes effect on the next run of the same
    # Program object, whose compiled form is built once.
    obs.enable()
    assert machine.run(program).return_value == 1
    assert interp_samples() == {"mov64": 1, "jeq64": 1, "exit": 1}
    obs.disable()
    machine.run(program)
    assert sum(interp_samples().values()) == 3
    obs.enable()
    machine.run(program, on_step=lambda idx, regs: None)
    assert interp_samples() == {"mov64": 2, "jeq64": 2, "exit": 2}


@pytest.mark.parametrize("workers", [1, 2])
def test_precision_report_identical_with_obs_for_any_workers(workers):
    spec = CampaignSpec(budget=12, rounds=1, seed=9, workers=workers)
    baseline = run_precision_campaign(spec).report.to_json()
    obs.enable()
    assert run_precision_campaign(spec).report.to_json() == baseline
