"""The verification service core: worker pool + verdict cache + single-flight.

:class:`VerificationService` is the transport-free heart of ``repro
serve`` — the HTTP layer (:mod:`repro.api.server`) only parses requests
into :class:`~repro.api.models.VerifyRequest` and renders the
:class:`~repro.api.models.Verdict` this class returns, so the whole
service contract is testable without a socket.

Every request is keyed on ``(Program.canonical_hash(), ctx_size)`` and
routed through one shared :class:`~repro.bpf.canon.VerdictCache`:

* **hit** — answered without a walk, O(1); the dominant pattern at
  scale is repeat submissions, and this is what makes them cheap.
* **miss** — verified on a bounded worker pool that reuses the PR 5
  per-instruction closure caches (``Program.compiled_verifier``), then
  stored, so the next structurally identical submission hits.
* **concurrent identical misses** — *single-flight*: the first request
  in becomes the leader and verifies; the rest wait on its flight and
  answer from the freshly stored entry as cache hits.  N identical
  concurrent submissions cost exactly one verification.

``states=true`` requests bypass the cache and the single-flight path:
per-instruction entry states are walk artifacts the cache does not
carry, so they always pay a fresh (``collect_states``) walk.

All cache and counter access is serialized on one lock —
:class:`~repro.bpf.canon.VerdictCache` is an ``OrderedDict`` LRU and
not itself thread-safe.  With observability enabled the cache ticks its
own ``verdict_cache.*`` counters and this class adds ``api.*`` request
counters, so ``/metrics`` and ``/stats`` surface both for free.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as _FuturesTimeout
from typing import Callable, Dict, List, Optional, Tuple

from repro import faults as _faults
from repro import obs as _obs
from repro.bpf.canon import CachedVerdict, VerdictCache
from repro.bpf.program import Program
from repro.bpf.verifier import Verifier

from .models import Verdict, VerifyRequest, precision_summary, with_diagnostics

__all__ = [
    "VerificationService",
    "ServiceOverloaded",
    "DeadlineExceeded",
    "DEFAULT_WORKERS",
]

DEFAULT_WORKERS = 4

CacheKey = Tuple[str, int]


class ServiceOverloaded(RuntimeError):
    """The work queue is full — shed instead of queueing unboundedly.

    Carries the advisory ``retry_after_s`` the HTTP layer renders as a
    ``Retry-After`` header on its structured 503.
    """

    def __init__(self, retry_after_s: int) -> None:
        super().__init__(
            f"verification queue is full; retry in ~{retry_after_s}s"
        )
        self.retry_after_s = retry_after_s


class DeadlineExceeded(RuntimeError):
    """A request outlived its deadline — surfaced, never left hanging.

    Raised whether the deadline expired in the queue, mid-walk (the
    verifier's own watchdog stops the walk), or while waiting on another
    request's flight.  The HTTP layer maps it to a structured 504.
    """


class _Flight:
    """One in-progress verification other requests can wait on."""

    __slots__ = ("done", "entry", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.entry: Optional[CachedVerdict] = None
        self.error: Optional[BaseException] = None


class VerificationService:
    """Cached, deduplicated verification behind a plain-Python API."""

    def __init__(
        self,
        cache: Optional[VerdictCache] = None,
        cache_path: Optional[str] = None,
        cache_size: int = 65536,
        workers: int = DEFAULT_WORKERS,
        default_ctx_size: int = 64,
        max_queue: Optional[int] = None,
        request_timeout_s: Optional[float] = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_queue is not None and max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if request_timeout_s is not None and request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be positive")
        if cache is None:
            # ``load`` raises a clear ValueError on a corrupt/truncated
            # store (see VerdictCache.load) — the caller surfaces it as
            # a startup error instead of serving from a broken store.
            cache = (
                VerdictCache.load(cache_path, max_entries=cache_size)
                if cache_path is not None
                else VerdictCache(max_entries=cache_size)
            )
        self.cache = cache
        self.cache_path = cache_path
        self.default_ctx_size = default_ctx_size
        self.workers = workers
        self.max_queue = max_queue
        self.request_timeout_s = request_timeout_s
        self.requests = 0
        self.verifications = 0
        #: requests rejected before reaching the verifier (400/422) —
        #: ticked by the transport layer via :meth:`note_rejection`.
        self.rejections = 0
        #: requests shed at the queue (503) and deadlines blown (504).
        self.shed = 0
        self.timeouts = 0
        #: verification tasks submitted and not yet finished — the
        #: bounded "queue" ``max_queue`` sheds against.
        self._queued = 0
        self._lock = threading.Lock()
        self._inflight: Dict[CacheKey, _Flight] = {}
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-api-verify"
        )
        self._started = time.monotonic()
        self._closed = False

    # -- the request path ---------------------------------------------------

    def verify(self, request: VerifyRequest) -> Verdict:
        """Answer one verification request (cache → single-flight → walk).

        Degrades structurally instead of collapsing: with ``max_queue``
        set, a full queue sheds the request (:class:`ServiceOverloaded`,
        HTTP 503) before it costs anything; with ``request_timeout_s``
        set, a request that outlives its deadline — queued, walking, or
        waiting on another flight — raises :class:`DeadlineExceeded`
        (HTTP 504).  Cache hits are O(1) and never shed.
        """
        with self._lock:
            self.requests += 1
        self._count("requests")
        key: CacheKey = (
            request.program.canonical_hash(), request.ctx_size,
        )
        if request.want_states:
            return self._await(self._submit(self._verify_fresh, key, request))
        with self._lock:
            flight = self._inflight.get(key)
            if flight is None:
                entry = self.cache.get(key)
                if entry is not None:
                    return self._render(entry, key, request, cached=True)
                flight = _Flight()
                self._inflight[key] = flight
                leader = True
            else:
                leader = False
        if leader:
            try:
                entry = self._await(
                    self._submit(self._verify_miss, key, request)
                )
                flight.entry = entry
            except BaseException as exc:
                # Shed/timeout included: followers piggybacked on this
                # flight inherit the failure instead of hanging.
                flight.error = exc
                raise
            finally:
                with self._lock:
                    self._inflight.pop(key, None)
                flight.done.set()
            return self._render(entry, key, request, cached=False)
        # Follower: wait for the leader's walk, then answer from the
        # stored entry — a real cache hit (counted as one).
        if not flight.done.wait(timeout=self.request_timeout_s):
            raise self._deadline()
        if flight.error is not None:
            raise flight.error
        with self._lock:
            entry = self.cache.get(key)
        if entry is None:  # evicted between store and our lookup
            entry = flight.entry
        assert entry is not None
        return self._render(entry, key, request, cached=True)

    def _submit(self, fn: Callable, *args):
        """Queue work on the pool, shedding when the queue is full."""
        with self._lock:
            if self.max_queue is not None and self._queued >= self.max_queue:
                self.shed += 1
                # Rough drain estimate: queue depth over pool width,
                # floored at 1s — advisory, not a promise.
                retry_after = max(1, round(self._queued / self.workers))
                self._count("shed")
                raise ServiceOverloaded(retry_after)
            self._queued += 1

        def run():
            try:
                return fn(*args)
            finally:
                with self._lock:
                    self._queued -= 1

        return self._pool.submit(run)

    def _await(self, future):
        """The future's result, bounded by the request deadline.

        The pool thread keeps running past a timeout (threads are not
        cancellable) but the walk itself is deadline-bounded too
        (``Verifier.deadline_s``), so abandoned work self-terminates.
        """
        if self.request_timeout_s is None:
            return future.result()
        try:
            return future.result(timeout=self.request_timeout_s)
        except _FuturesTimeout:
            raise self._deadline() from None

    def _deadline(self) -> DeadlineExceeded:
        with self._lock:
            self.timeouts += 1
        self._count("timeouts")
        return DeadlineExceeded(
            f"verification exceeded the service's "
            f"{self.request_timeout_s:g}s deadline"
        )

    def lookup(self, canonical_hash: str, ctx_size: int) -> Optional[Verdict]:
        """``GET /verdict/<hash>``: the cached verdict, or ``None``."""
        key = (canonical_hash, ctx_size)
        with self._lock:
            entry = self.cache.get(key)
        if entry is None:
            return None
        return Verdict.from_result(
            entry.result(), canonical_hash, ctx_size, cached=True
        )

    def note_rejection(self) -> None:
        with self._lock:
            self.rejections += 1
        self._count("rejections")

    # -- verification workers -----------------------------------------------

    def _verify_miss(
        self, key: CacheKey, request: VerifyRequest
    ) -> CachedVerdict:
        if _faults.enabled():
            _faults.sleep_if("service.verify.hang")
        events: List[Tuple[int, str, object]] = []
        verifier = Verifier(
            ctx_size=request.ctx_size,
            deadline_s=self.request_timeout_s,
            on_transfer=lambda idx, label, scalar: events.append(
                (idx, label, scalar)
            ),
        )
        result = verifier.verify(request.program)
        if result.timed_out:
            # A timeout says nothing about the program: never cached,
            # surfaced as 504 — the next submission gets a full walk.
            raise self._deadline()
        entry = CachedVerdict.from_result(result, tuple(events))
        with self._lock:
            self.verifications += 1
            self.cache.put(key, entry)
        self._count("verifications")
        return entry

    def _verify_fresh(self, key: CacheKey, request: VerifyRequest) -> Verdict:
        if _faults.enabled():
            _faults.sleep_if("service.verify.hang")
        events: List[Tuple[int, str, object]] = []
        verifier = Verifier(
            ctx_size=request.ctx_size,
            collect_states=True,
            deadline_s=self.request_timeout_s,
            on_transfer=lambda idx, label, scalar: events.append(
                (idx, label, scalar)
            ),
        )
        result = verifier.verify(request.program)
        if result.timed_out:
            raise self._deadline()
        states = {
            idx: str(state) for idx, state in verifier.states_at.items()
        }
        entry = CachedVerdict.from_result(result, tuple(events))
        with self._lock:
            self.verifications += 1
            if key not in self.cache:
                self.cache.put(key, entry)
        self._count("verifications")
        precision = (
            precision_summary(events) if request.want_precision else None
        )
        return Verdict.from_result(
            result, key[0], key[1],
            cached=False, states=states, precision=precision,
        )

    def _render(
        self,
        entry: CachedVerdict,
        key: CacheKey,
        request: VerifyRequest,
        cached: bool,
    ) -> Verdict:
        precision = (
            precision_summary(entry.events)
            if request.want_precision else None
        )
        return Verdict.from_result(
            entry.result(), key[0], key[1],
            cached=cached, precision=precision,
        )

    # -- introspection ------------------------------------------------------

    def stats(self) -> Dict:
        """The service half of the ``/stats`` payload."""
        with self._lock:
            cache = self.cache
            return {
                "requests": self.requests,
                "verifications": self.verifications,
                "rejections": self.rejections,
                "shed": self.shed,
                "timeouts": self.timeouts,
                "queued": self._queued,
                "max_queue": self.max_queue,
                "request_timeout_s": self.request_timeout_s,
                "inflight": len(self._inflight),
                "workers": self.workers,
                "uptime_s": round(time.monotonic() - self._started, 3),
                "cache": {
                    "hits": cache.hits,
                    "misses": cache.misses,
                    "evictions": cache.evictions,
                    "entries": len(cache),
                    "max_entries": cache.max_entries,
                    "hit_rate": round(cache.hit_rate, 4),
                },
            }

    def healthz(self) -> Dict:
        with self._lock:
            payload = {
                "status": "ok",
                "workers": self.workers,
                "cache_entries": len(self.cache),
            }
        # A chaos harness asserts on the fault echo: the probe proves
        # the process is actually running the armed plan.
        return with_diagnostics(payload)

    def summary_line(self) -> str:
        """One greppable shutdown line (mirrors the campaign CLI's)."""
        with self._lock:
            return self.cache.summary_line(self.cache_path)

    # -- lifecycle ----------------------------------------------------------

    def save(self) -> None:
        """Persist the verdict store, if one was configured."""
        if self.cache_path is not None:
            with self._lock:
                self.cache.save(self.cache_path)

    def close(self) -> None:
        """Drain the pool and persist the store; idempotent."""
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=True)
        self.save()

    def __enter__(self) -> "VerificationService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _count(self, name: str) -> None:
        if _obs.enabled():
            _obs.default_registry().counter(f"api.{name}").inc()
