"""The abstract walk keeps nothing for the programs it has verified.

A long-running process (``repro serve``, a campaign) verifies a stream
of distinct programs; whatever the walk retains per program grows its
memory for the life of the process.  The bound leaves room for the
bounded interning tables in the domains (small constants, transfer
labels), which fill during the warm-up.
"""

import gc
import tracemalloc

from repro.bpf.verifier import Verifier
from repro.fuzz import generate_program

PROGRAMS = 300


def _verify_and_drop(seeds) -> None:
    verifier = Verifier(ctx_size=64)
    for seed in seeds:
        verifier.verify(generate_program(seed).program)


def test_verified_programs_leave_under_1kb_each():
    _verify_and_drop(range(200))
    gc.collect()
    tracemalloc.start()
    try:
        _verify_and_drop(range(10_000, 10_000 + PROGRAMS))
        gc.collect()
        retained, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    per_program = retained / PROGRAMS
    assert per_program < 1024, (
        f"the walk retained {per_program:.0f} B per verified program"
    )
