"""Shared plumbing: where the program lives, set-up timing, outcomes.

The benchmark measures the checkout it sits in: ``src/`` next to this
directory is put first on ``sys.path`` (and on ``PYTHONPATH`` for the
processes it starts), so an installed copy of the package never stands
in for the code under test.
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

__all__ = [
    "ROOT",
    "SRC",
    "SETUP_REPEATS",
    "Outcome",
    "use_src",
    "child_env",
    "on_cpu",
    "peak_rss_mb",
    "pin_to_one_cpu",
    "probe_setup",
    "reserve_cpu",
    "segments",
    "setup_note",
    "slowdown",
    "trace_path",
]

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Trace files written by ``--trace 1`` runs (ignored by git).
OUT_DIR = ROOT / ".perfbench"

#: Set-ups per run, spread over it (:func:`segments`); ``setup_s`` is
#: their median.
SETUP_REPEATS = 5

#: A set-up probe that takes longer than this is broken, not slow.
_PROBE_TIMEOUT_S = 60


@dataclass
class Outcome:
    """What one workload run measured and whether its outputs held up."""

    attempted: int
    failed: int = 0
    metrics: Dict[str, float] = field(default_factory=dict)
    #: failed self-checks; any entry makes the run incorrect.
    problems: List[str] = field(default_factory=list)
    #: human-readable lines printed to stderr (sample counts, tails).
    notes: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def use_src() -> None:
    """Import the package from this checkout's ``src/``; exit 2 without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def trace_path(workload: str, seed: int) -> str:
    """Where a traced run writes its spans, one JSON object per line."""
    OUT_DIR.mkdir(exist_ok=True)
    return str(OUT_DIR / f"{workload}-{seed}.spans.jsonl")


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_setup(workload: str, seed: int) -> float:
    """Time one fresh process getting ready.

    The probe is a new interpreter that imports the workload's layers
    and runs its warm-up (``setup_probe.py``), so work moved to import
    time or into warm-up shows up in ``setup_s``.
    """
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        env=child_env(),
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        timeout=_PROBE_TIMEOUT_S,
    )
    took = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(
            f"set-up probe for {workload} failed: "
            f"{proc.stderr.decode(errors='replace')[-2000:]}"
        )
    return took


def segments(
    seconds: float,
    set_up: Callable[[], float],
    setups: List[float],
    cpu: Optional[int] = None,
) -> Iterator[float]:
    """Split a run's ``seconds`` into :data:`SETUP_REPEATS` timed segments.

    Before each segment one ``set_up()`` runs, on ``cpu`` if given; the
    time it returns, scaled to the reference speed (:func:`slowdown`,
    timed right before and after on the same CPU), goes to ``setups``.
    Then the segment's deadline is yielded.  A segment that overran its
    deadline shortens the ones after it, so the segments together take
    ``seconds``.
    """
    timed = 0.0
    for k in range(SETUP_REPEATS):
        with on_cpu(cpu):
            before = slowdown()
            took = set_up()
            setups.append(took / ((before + slowdown()) / 2))
        start = time.perf_counter()
        yield start + (seconds - timed) / (SETUP_REPEATS - k)
        timed += time.perf_counter() - start


#: Fastest run of :func:`_calibration_unit` on the machine the benchmark
#: was built on, in its fast state; see :func:`slowdown`.
CALIBRATION_REF_MS = 3.2
_CALIBRATION_TRIALS = 5


def _calibration_unit() -> int:
    """Fixed pure-Python work: dict, list, tuple and integer traffic."""
    table: Dict[int, int] = {}
    items = []
    acc = 0
    for i in range(6000):
        key = (i * 2654435761) & 0xFFFFF
        table[key] = table.get(key ^ 1, 0) + i
        items.append((key, i & 0xFF))
        acc += (i * i) & 0xFFFF
    items.sort()
    return acc + len(table)


def slowdown() -> float:
    """How many times slower than the reference the machine runs Python now.

    Shared hosts slow a CPU down for a second to minutes at a time: the
    host this benchmark was built on runs about 1.7x slower in its slow
    state, each of its two CPUs on its own schedule, and no minimum over
    one-second units escapes a slow spell that lasts a whole run.  A
    fixed loop owned by the benchmark, timed next to the measured work
    on the same CPU (:func:`pin_to_one_cpu`), shows the state; a unit's
    wall time divided by this factor is its time at the reference speed.
    The loop never calls the program under test, so a change to the
    program cannot move it.
    """
    best = None
    for _ in range(_CALIBRATION_TRIALS):
        t0 = time.perf_counter()
        _calibration_unit()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best * 1e3 / CALIBRATION_REF_MS


def pin_to_one_cpu() -> None:
    """Keep this process, and every process it starts, on one CPU.

    For single-threaded workloads only: their calibration, measured
    work and set-up probes then all run on the CPU whose state
    :func:`slowdown` reads.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def reserve_cpu() -> int:
    """Move this process off one CPU, if it has more than one; return that CPU.

    The serve workloads start their server there, so the server and
    the client threads do not compete for a CPU.
    """
    allowed = os.sched_getaffinity(0)
    cpu = max(allowed)
    if len(allowed) > 1:
        os.sched_setaffinity(0, allowed - {cpu})
    return cpu


@contextmanager
def on_cpu(cpu: Optional[int]) -> Iterator[None]:
    """Run this process, and the processes it starts meanwhile, on ``cpu``.

    ``None`` leaves the placement alone.
    """
    if cpu is None:
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def setup_note(setups: List[float]) -> str:
    return "set-ups at reference speed: " + ", ".join(f"{t:.3f}s" for t in setups)
