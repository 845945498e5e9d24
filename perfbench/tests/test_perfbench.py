"""Tests of the benchmark's own machinery.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import random
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import harness  # noqa: E402

harness.use_src()

import universe  # noqa: E402
import wl_campaign  # noqa: E402
import wl_serve  # noqa: E402
import wl_tnum  # noqa: E402
from spans import Span, Tracer, covered_ns, self_by_name, self_times  # noqa: E402
from stats import MIN_BEYOND, percentile, supported_percentile  # noqa: E402

from repro.eval.performance import generate_pairs  # noqa: E402
from repro.fuzz.campaign import CampaignSpec, run_precision_campaign  # noqa: E402


# -- seeds -----------------------------------------------------------------


def _serve_programs(wire, seed, count=64):
    order = list(range(len(wire)))
    random.Random(seed).shuffle(order)
    return [wire[i] for i in order[:count]]


def test_same_seed_same_programs_and_pairs():
    wire, expected = universe.load()
    assert len(wire) == universe.SIZE == len(expected)
    assert _serve_programs(wire, 7) == _serve_programs(wire, 7)
    assert _serve_programs(wire, 7) != _serve_programs(wire, 8)

    def pair_bytes(seed):
        return [(p.value, p.mask, q.value, q.mask)
                for p, q in generate_pairs(wl_tnum.PAIRS, seed=seed)]

    assert pair_bytes(3) == pair_bytes(3)
    assert pair_bytes(3) != pair_bytes(4)

    def seeds(seed):
        stream = wl_campaign.campaign_seeds(seed)
        return [next(stream) for _ in range(8)]

    assert seeds(5) == seeds(5)
    assert seeds(5) != seeds(6)


def test_serve_schedule_is_seeded_and_cold_never_repeats():
    a = wl_serve.Schedule(list(range(10)), cycle=True, rng=random.Random(1))
    b = wl_serve.Schedule(list(range(10)), cycle=True, rng=random.Random(1))
    seq_a = [a.next() for _ in range(35)]
    assert seq_a == [b.next() for _ in range(35)]
    assert [n for _, n in seq_a] == list(range(35))
    cold = wl_serve.Schedule(list(range(5)), cycle=False, rng=random.Random(1))
    seen = [cold.next() for _ in range(6)]
    assert seen[-1] is None and len({i for i, _ in seen[:-1]}) == 5


def test_frozen_verdicts_match_the_wire_format():
    assert universe.matches({"verdict": "accept"}, (True, None))
    assert not universe.matches({"verdict": "reject", "error": {"index": 3}}, (True, None))
    assert universe.matches({"verdict": "reject", "error": {"index": 3}}, (False, 3))
    assert not universe.matches({"verdict": "reject", "error": {"index": 4}}, (False, 3))


# -- self time -----------------------------------------------------------------


def test_self_time_of_a_nested_tree():
    spans = [
        Span(1, "root", 0, 100),
        Span(2, "a", 10, 40, parent=1),
        Span(3, "a_child", 15, 25, parent=2),
        Span(4, "b", 50, 70, parent=1),
    ]
    own = self_times(spans)
    assert own == {1: 100 - 30 - 20, 2: 30 - 10, 3: 10, 4: 20}
    assert sum(own.values()) == 100
    assert self_by_name(spans)["root"] == 50


def test_self_time_counts_overlapping_children_once():
    # Two children on different threads overlap in time, and one runs
    # past its parent: only the union inside the parent is subtracted.
    spans = [
        Span(1, "service", 0, 100),
        Span(2, "walk", 10, 60, parent=1, thread=2),
        Span(3, "walk", 40, 130, parent=1, thread=3),
    ]
    assert self_times(spans)[1] == 10
    assert covered_ns(0, 100, [(10, 60), (40, 130)]) == 90
    assert covered_ns(0, 100, []) == 0


def test_pool_thread_spans_nest_under_the_submitting_span():
    tracer = Tracer()
    tracer.set_request("r1")

    def walk():
        with tracer.span("verifier"):
            pass

    with tracer.span("service"):
        worker = threading.Thread(target=tracer.bind(walk))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
    by_name = {s.name: s for s in tracer.spans}
    service, verifier = by_name["service"], by_name["verifier"]
    assert verifier.parent == service.sid
    assert verifier.rid == service.rid == "r1"
    assert verifier.thread != service.thread
    own = self_times(tracer.spans)
    assert own[service.sid] == service.duration - verifier.duration


def test_wrap_handles_functions_and_classmethods_and_undoes():
    class Owner:
        @classmethod
        def make(cls, x):
            return (cls, x)

        def method(self, x):
            return x + 1

    tracer = Tracer()
    original = vars(Owner)["make"]
    seen = []
    undo = [
        tracer.wrap(Owner, "make", "ingest", on_result=seen.append),
        tracer.wrap(Owner, "method", "render"),
    ]
    assert Owner.make(2) == (Owner, 2)
    assert Owner().method(1) == 2
    assert [s.name for s in tracer.spans] == ["ingest", "render"]
    assert seen == [(Owner, 2)]
    for restore in undo:
        restore()
    assert vars(Owner)["make"] is original
    Owner.make(3)
    assert len(tracer.spans) == 2


# -- percentiles -----------------------------------------------------------------


def test_p99_needs_ten_samples_beyond_it():
    assert percentile(list(range(1, 1001)), 99) == (990, 10)
    assert supported_percentile(list(range(1, 1001)), 99) == 990
    assert supported_percentile(list(range(1, 1000)), 99) is None
    assert supported_percentile([], 99) is None
    assert percentile([5.0], 50) == (5.0, 0)
    assert MIN_BEYOND == 10
    with pytest.raises(ValueError):
        percentile([1.0], 100)


# -- set-up segments ---------------------------------------------------------------


def test_segments_scale_set_ups_and_share_the_run(monkeypatch):
    assert harness.slowdown() > 0
    monkeypatch.setattr(harness, "slowdown", lambda: 2.0)
    setups = []
    started = time.perf_counter()
    for deadline in harness.segments(0.5, lambda: 1.0, setups):
        while time.perf_counter() < deadline:
            time.sleep(0.01)
    # One set-up per segment, each 1.0 s measured at half the reference speed.
    assert setups == [0.5] * harness.SETUP_REPEATS
    assert time.perf_counter() - started < 0.5 + 0.25


# -- campaign determinism -------------------------------------------------------


def test_same_campaign_seed_gives_identical_report():
    spec = CampaignSpec(budget=60, seed=next(wl_campaign.campaign_seeds(9)))
    first = run_precision_campaign(spec).report.to_json()
    second = run_precision_campaign(spec).report.to_json()
    assert first == second
