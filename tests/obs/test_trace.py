"""Span tracing: JSONL round-trip, nesting, sampling, schema validation."""

from __future__ import annotations

from repro.obs import (
    TRACE_SCHEMA_VERSION,
    JsonlSink,
    MemorySink,
    NullTracer,
    Tracer,
    aggregate_spans,
    read_trace,
    validate_event,
)


def test_span_jsonl_round_trip(tmp_path):
    path = tmp_path / "trace.jsonl"
    tracer = Tracer(JsonlSink(path), sample=1.0)
    with tracer.span("campaign.round", round=1):
        with tracer.span("oracle.check_program", insns=7):
            pass
    tracer.close()

    events = list(read_trace(path))
    assert len(events) == 2
    for event in events:
        assert validate_event(event) == []

    # Inner span completes (and serializes) first.
    inner, outer = events
    assert inner["name"] == "oracle.check_program"
    assert inner["attrs"] == {"insns": 7}
    assert inner["parent_id"] == outer["span_id"]
    assert outer["parent_id"] is None
    assert outer["dur_s"] >= inner["dur_s"] >= 0
    assert all(e["v"] == TRACE_SCHEMA_VERSION for e in events)


def test_sampled_span_keeps_every_nth():
    sink = MemorySink()
    tracer = Tracer(sink, sample=0.5)
    for _ in range(10):
        with tracer.sampled_span("oracle.check_program"):
            pass
    assert len(sink.events) == 5

    full = MemorySink()
    tracer = Tracer(full, sample=1.0)
    for _ in range(4):
        with tracer.sampled_span("x"):
            pass
    assert len(full.events) == 4

    none = MemorySink()
    tracer = Tracer(none, sample=0.0)
    for _ in range(4):
        with tracer.sampled_span("x"):
            pass
    assert none.events == []


def test_unsampled_spans_always_emit():
    sink = MemorySink()
    tracer = Tracer(sink, sample=0.0)
    with tracer.span("campaign.round"):   # structural span: never sampled out
        pass
    assert len(sink.events) == 1


def test_null_tracer_is_inert():
    tracer = NullTracer()
    with tracer.span("x"):
        with tracer.sampled_span("y"):
            pass
    tracer.flush()
    tracer.close()


def test_validate_event_rejects_malformed_records():
    valid = {
        "v": TRACE_SCHEMA_VERSION, "kind": "span", "name": "x",
        "ts": 1.0, "dur_s": 0.1, "pid": 1, "span_id": 1,
        "parent_id": None, "attrs": {},
    }
    assert validate_event(valid) == []
    assert validate_event("not a dict")
    assert validate_event({**valid, "v": 99})
    assert validate_event({**valid, "kind": "trace"})
    assert validate_event({**valid, "name": ""})
    assert validate_event({**valid, "attrs": []})
    missing_parent = dict(valid)
    del missing_parent["parent_id"]
    assert validate_event(missing_parent)
    span_without_duration = dict(valid)
    del span_without_duration["dur_s"]
    assert validate_event(span_without_duration)
    # Spans are the only record kind; a point event is malformed.
    assert validate_event(dict(span_without_duration, kind="event"))


def test_aggregate_spans_folds_per_name():
    events = [
        {"kind": "span", "name": "a", "dur_s": 1.0},
        {"kind": "span", "name": "a", "dur_s": 3.0},
        {"kind": "span", "name": "b", "dur_s": 0.5},
        {"kind": "bogus", "name": "a"},   # not a span: skipped
    ]
    spans = aggregate_spans(events)
    assert spans["a"] == {"count": 2, "total_s": 4.0, "max_s": 3.0}
    assert spans["b"]["count"] == 1
