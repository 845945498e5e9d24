"""A campaign round holds little per program until it merges.

A round keeps every result of its batches until ``CampaignRun.end_round``
folds them into the report, so ``repro fuzz --budget N`` holds N of them
at its peak.  Each batch folds its programs' per-operator telemetry
into one map, leaving a program's own result a few small counters.  The
bound leaves room for the bounded interning tables in the domains,
which fill during the warm-up.
"""

import gc
import tracemalloc

from repro.fuzz import fuzz_spec
from repro.fuzz.campaign import _fuzz_batch, _set_worker_state

PROGRAMS = 400


def test_batch_results_hold_under_1_5kb_per_program():
    _set_worker_state(fuzz_spec(budget=10_000 + PROGRAMS, seed=42), ())
    _fuzz_batch(range(200), 0, False)
    gc.collect()
    tracemalloc.start()
    try:
        results = _fuzz_batch(range(10_000, 10_000 + PROGRAMS), 0, False)
        gc.collect()
        retained, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(results) == PROGRAMS
    per_program = retained / PROGRAMS
    assert per_program < 1536, (
        f"a batch retained {per_program:.0f} B per fuzzed program"
    )
