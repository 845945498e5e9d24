"""In-memory spans for the benchmark's traced runs.

A traced run wraps the public entry points of each layer, from the
benchmark's own files, with :meth:`Tracer.wrap`.  Every call becomes a
:class:`Span` (name, start, end, parent, request id, thread).  Spans
stay in memory and are written out once, when the run ends
(:meth:`Tracer.dump`).

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`).  Children may run
on other threads -- the service hands each walk to a pool thread -- so
coverage is the union of the children's intervals clipped to the
parent, never a plain sum.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

__all__ = ["Span", "Tracer", "self_times", "self_by_name", "covered_ns"]


class Span(NamedTuple):
    """One timed call: ``[start, end)`` in ``perf_counter_ns`` units.

    A tuple of plain values, so the garbage collector stops tracking it:
    a traced run holds hundreds of thousands of spans, and tracked
    objects would make every collection in the measured code slower.
    """

    sid: int
    name: str
    start: int
    end: int
    parent: Optional[int] = None
    rid: Optional[str] = None
    thread: int = 0

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    """Records spans; each thread keeps its own stack of open spans."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- thread-local context ---------------------------------------------

    def _context(self) -> Tuple[List[int], Optional[str]]:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.rid = None
        return stack, local.rid

    def set_request(self, rid: Optional[str]) -> None:
        """Tag the spans this thread opens from now on with ``rid``."""
        self._context()
        self._local.rid = rid

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack, rid = self._context()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(Span(
                sid, name, start, end, parent, rid, threading.get_ident()
            ))

    def bind(self, fn: Callable) -> Callable:
        """``fn`` run on another thread as a child of the caller's span.

        Used where a layer hands work to a pool: the pool thread adopts
        the submitting thread's open span and request id, so its spans
        nest under the request that caused them.
        """
        stack, rid = self._context()
        parent = stack[-1] if stack else None

        @functools.wraps(fn)
        def adopted(*args, **kwargs):
            own_stack, own_rid = self._context()
            saved = list(own_stack)
            own_stack[:] = [parent] if parent is not None else []
            self._local.rid = rid
            try:
                return fn(*args, **kwargs)
            finally:
                own_stack[:] = saved
                self._local.rid = own_rid

        return adopted

    # -- wrapping ----------------------------------------------------------

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        on_result: Optional[Callable[[object], None]] = None,
    ) -> Callable[[], None]:
        """Replace ``owner.attr`` with a spanned version; returns the undo.

        ``owner`` is a module or a class.  Plain functions, methods,
        classmethods and staticmethods are all wrapped in place, so
        callers that imported the owner keep working unchanged.
        ``on_result`` sees every return value (used for counts such as
        accepted-vs-rejected).
        """
        raw = vars(owner)[attr]
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind is not None else raw
        span = self.span

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            with span(name):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(result)
            return result

        setattr(owner, attr, kind(spanned) if kind is not None else spanned)
        return lambda: setattr(owner, attr, raw)

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")

    @staticmethod
    def load(path: str) -> List[Span]:
        with open(path, encoding="utf-8") as fh:
            return [Span(**json.loads(line)) for line in fh if line.strip()]


def covered_ns(start: int, end: int, intervals: Iterable[Tuple[int, int]]) -> int:
    """Length of the union of ``intervals`` clipped to ``[start, end)``."""
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if a < end and b > start
    )
    total = 0
    cur_a: Optional[int] = None
    cur_b = 0
    for a, b in clipped:
        if cur_a is None or a > cur_b:
            if cur_a is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_a is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, int]:
    """Self time of every span, by span id, in nanoseconds."""
    spans = list(spans)
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.sid: s.duration - covered_ns(s.start, s.end, children.get(s.sid, ()))
        for s in spans
    }


def self_by_name(spans: Iterable[Span]) -> Dict[str, int]:
    """Total self time per span name, in nanoseconds."""
    spans = list(spans)
    own = self_times(spans)
    totals: Dict[str, int] = defaultdict(int)
    for s in spans:
        totals[s.name] += own[s.sid]
    return dict(totals)
