"""Span tracing: structured JSON-lines records with sampling.

A *span* is a named, timed region with arbitrary attributes and a parent
(spans nest per thread).  Completed spans serialize as one JSON object
per line to a pluggable sink — a file (``trace.jsonl``) or an in-memory
list for tests.  Spans are the only record kind.

Record schema (version 1), one object per line::

    {
      "v": 1,                  # schema version          (required, int)
      "kind": "span",          # record type             (required)
      "name": "verify",        # span name               (required, str)
      "ts": 1712345678.9,      # wall-clock start, epoch (required, float)
      "dur_s": 0.00123,        # duration                (required, float)
      "pid": 4242,             # emitting process        (required, int)
      "span_id": 7,            # unique within pid       (required, int)
      "parent_id": 3,          # enclosing span or null  (required)
      "attrs": {"round": 2}    # free-form attributes    (required, dict)
    }

:func:`validate_event` is the single source of truth for that contract —
the test suite and the CI ``obs-smoke`` job both run every emitted line
through it.

Sampling
--------
Per-program (let alone per-instruction) spans would melt fuzzing
throughput, so :meth:`Tracer.sampled_span` keeps only every *N*-th
request (``N = round(1/sample)``).  Stride sampling is deterministic for
a fixed call sequence — unlike coin flips it cannot perturb the
campaign's seeded RNG streams — and the skipped path costs one counter
increment and returns a shared no-op context manager.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, TextIO

__all__ = [
    "TRACE_SCHEMA_VERSION",
    "MemorySink",
    "JsonlSink",
    "Tracer",
    "NullTracer",
    "validate_event",
    "read_trace",
    "aggregate_spans",
]

TRACE_SCHEMA_VERSION = 1


class MemorySink:
    """Collects events in a list — the test sink."""

    def __init__(self) -> None:
        self.events: List[Dict] = []

    def emit(self, event: Dict) -> None:
        self.events.append(event)

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class JsonlSink:
    """Appends one JSON object per line to a file."""

    def __init__(self, path: "str | os.PathLike[str]") -> None:
        self.path = str(path)
        self._handle: Optional[TextIO] = open(self.path, "a")

    def emit(self, event: Dict) -> None:
        if self._handle is not None:
            self._handle.write(json.dumps(event, sort_keys=True) + "\n")

    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None


@contextmanager
def _null_span() -> Iterator[None]:
    yield None


class NullTracer:
    """The disabled tracer: every span is a shared no-op context."""

    def span(self, name: str, **attrs: object):
        return _null_span()

    def sampled_span(self, name: str, **attrs: object):
        return _null_span()

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class Tracer:
    """Emits span records to a sink; spans nest per thread."""

    def __init__(self, sink, sample: float = 1.0) -> None:
        self.sink = sink
        if sample <= 0:
            self._stride = 0          # sampled spans never emit
        else:
            self._stride = max(1, round(1.0 / min(sample, 1.0)))
        self._sample_count = 0
        self._next_id = 1
        self._lock = threading.Lock()
        self._local = threading.local()
        self._pid = os.getpid()

    # -- spans --------------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[None]:
        """A always-emitted span (campaign/round-level structure)."""
        parent = getattr(self._local, "stack", None)
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent_id = parent[-1] if parent else None
        if parent is None:
            parent = self._local.stack = []
        parent.append(span_id)
        started = time.time()
        t0 = time.perf_counter()
        try:
            yield None
        finally:
            parent.pop()
            self.sink.emit({
                "v": TRACE_SCHEMA_VERSION,
                "kind": "span",
                "name": name,
                "ts": started,
                "dur_s": time.perf_counter() - t0,
                "pid": self._pid,
                "span_id": span_id,
                "parent_id": parent_id,
                "attrs": dict(attrs),
            })

    def sampled_span(self, name: str, **attrs: object):
        """A span subject to the sampling stride (per-program detail)."""
        if self._stride == 0:
            return _null_span()
        self._sample_count += 1
        if self._sample_count % self._stride:
            return _null_span()
        return self.span(name, **attrs)

    def flush(self) -> None:
        self.sink.flush()

    def close(self) -> None:
        self.sink.close()


# -- trace consumption -----------------------------------------------------


def validate_event(event: object) -> List[str]:
    """Schema-validate one trace record; returns human-readable problems
    (empty list = valid).  The contract checked here is the one
    documented in this module's docstring and ``docs/observability.md``.
    """
    problems: List[str] = []
    if not isinstance(event, dict):
        return [f"record is {type(event).__name__}, expected object"]
    if event.get("v") != TRACE_SCHEMA_VERSION:
        problems.append(f"bad schema version {event.get('v')!r}")
    if event.get("kind") != "span":
        problems.append(f"bad kind {event.get('kind')!r}")
    if not isinstance(event.get("name"), str) or not event.get("name"):
        problems.append("name must be a non-empty string")
    if not isinstance(event.get("ts"), (int, float)):
        problems.append("ts must be a number")
    if not isinstance(event.get("dur_s"), (int, float)):
        problems.append("span is missing numeric dur_s")
    if not isinstance(event.get("pid"), int):
        problems.append("pid must be an integer")
    if not isinstance(event.get("span_id"), int):
        problems.append("span_id must be an integer")
    if "parent_id" not in event:
        problems.append("parent_id is required (null for roots)")
    elif event["parent_id"] is not None and not isinstance(
        event["parent_id"], int
    ):
        problems.append("parent_id must be an integer or null")
    if not isinstance(event.get("attrs"), dict):
        problems.append("attrs must be an object")
    return problems


def read_trace(path: "str | os.PathLike[str]") -> Iterator[Dict]:
    """Iterate the records of a JSONL trace file."""
    with open(path, "r") as handle:
        for line in handle:
            line = line.strip()
            if line:
                yield json.loads(line)


def aggregate_spans(events: "List[Dict] | Iterator[Dict]") -> Dict[str, Dict]:
    """Fold spans into per-name totals for the ``repro stats`` table;
    records that are not spans (a malformed trace) are skipped."""
    out: Dict[str, Dict] = {}
    for event in events:
        if event.get("kind") != "span":
            continue
        entry = out.setdefault(
            event["name"], {"count": 0, "total_s": 0.0, "max_s": 0.0}
        )
        entry["count"] += 1
        dur = float(event.get("dur_s", 0.0))
        entry["total_s"] += dur
        if dur > entry["max_s"]:
            entry["max_s"] = dur
    return out
