"""A verdict-cache entry holds the precision summary, not the walk.

``repro serve`` keeps up to ``--verdict-cache-size`` entries (65,536 by
default) for the life of the process, so what one entry retains, times
that bound, is the service's steady-state memory.  An entry keeps the
verdict and one flat ``(label, count, gamma_bits_sum, gamma_bits_max)``
run per operator; the measure includes the key, its canonical-hash
string and the LRU node.  The warm-up fills the bounded interning
tables in the domains and starts the pool's worker thread.
"""

import gc
import tracemalloc

from repro.api import VerificationService, VerifyRequest
from repro.fuzz import generate_program
from repro.fuzz.generator import PROFILES

WARMUP = 200
PROGRAMS = 300


def _verify_misses(service, seeds) -> None:
    profiles = sorted(PROFILES)
    for seed in seeds:
        program = generate_program(seed, profiles[seed % len(profiles)])
        verdict = service.verify(VerifyRequest(program=program.program))
        assert not verdict.cached


def test_cache_entries_hold_under_1kb_each():
    with VerificationService(workers=1) as service:
        _verify_misses(service, range(WARMUP))
        gc.collect()
        tracemalloc.start()
        try:
            _verify_misses(service, range(10_000, 10_000 + PROGRAMS))
            gc.collect()
            retained, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(service.cache) == WARMUP + PROGRAMS
    per_entry = retained / PROGRAMS
    assert per_entry < 1024, (
        f"the verdict cache retained {per_entry:.0f} B per entry"
    )
