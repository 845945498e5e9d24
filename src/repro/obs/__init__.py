"""``repro.obs`` — zero-overhead observability for the verifier stack.

Three layers, all dependency-free:

* **metrics** (:mod:`repro.obs.metrics`) — counters, gauges,
  fixed-bucket histograms, and per-operator timers in a mergeable
  :class:`Registry`; one process-global default registry.
* **tracing** (:mod:`repro.obs.trace`) — nested spans emitted as
  JSON-lines to a pluggable sink, with a sampling stride so
  per-program spans don't melt fuzzing throughput.
* **liveness** (:mod:`repro.obs.heartbeat`, :mod:`repro.obs.server`) —
  atomic heartbeat snapshots, republished every interval while the
  session is open, plus an optional background ``http.server`` thread
  serving ``/metrics`` (Prometheus text) and ``/stats`` (JSON).

The zero-overhead contract
--------------------------
Observability is **off by default** and the disabled path must cost
nothing measurable:

* hot paths guard on the single predicate :func:`enabled` (one module
  attribute read);
* the abstract walk (:meth:`repro.bpf.verifier.Verifier.verify`) and
  the concrete interpreter (:meth:`repro.bpf.interpreter.Machine.run`)
  read it once per call and pick their timed or untimed loop then —
  with obs disabled the walk calls the transfer methods directly and
  the interpreter runs the bare compiled closures, with no timing code
  and no flag check per step.

Enabling flips a process-global switch (:func:`enable` /
:func:`configure`), and the next walk or run picks it up.

The registry holds the measurements obs takes itself: operator timers,
the oracle's counters, injected faults, and the progress a ``repro
work`` process has no other live view of.  A component that already
keeps and serves a count (the service's request and cache counters, the
coordinator's lease counters, a campaign's retries) is read where it
serves it, not copied here.

Worker processes
----------------
Campaign workers never share sinks: each work item runs under a private
:func:`scoped_registry`, ships the snapshot back with its result, and
the parent merges in index order (merge is associative, so reports stay
worker-count independent).  Spans and heartbeats are parent-side only.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, Optional

from .heartbeat import (
    HEARTBEAT_SCHEMA_VERSION,
    HeartbeatWriter,
    read_heartbeat,
    staleness_warning,
)
from .metrics import (
    DEFAULT_TIME_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    Registry,
    TimerStat,
)
from .server import StatsServer
from .trace import (
    TRACE_SCHEMA_VERSION,
    JsonlSink,
    MemorySink,
    NullTracer,
    Tracer,
    aggregate_spans,
    read_trace,
    validate_event,
)

__all__ = [
    "enabled",
    "enable",
    "disable",
    "reset",
    "default_registry",
    "set_default_registry",
    "scoped_registry",
    "record_op_time",
    "tracer",
    "set_tracer",
    "configure",
    "publish_heartbeat",
    "worker_init_state",
    "init_worker",
    "ObsSession",
    # re-exports
    "Counter",
    "Gauge",
    "Histogram",
    "TimerStat",
    "Registry",
    "DEFAULT_TIME_BUCKETS_S",
    "Tracer",
    "NullTracer",
    "MemorySink",
    "JsonlSink",
    "validate_event",
    "read_trace",
    "aggregate_spans",
    "TRACE_SCHEMA_VERSION",
    "HeartbeatWriter",
    "read_heartbeat",
    "staleness_warning",
    "HEARTBEAT_SCHEMA_VERSION",
    "StatsServer",
]

_enabled = False
_registry = Registry()
_tracer = NullTracer()
_session: Optional["ObsSession"] = None


# -- the master switch ------------------------------------------------------


def enabled() -> bool:
    """The single hot-path predicate: is observability on?"""
    return _enabled


def enable() -> None:
    global _enabled
    _enabled = True


def disable() -> None:
    global _enabled
    _enabled = False


def reset() -> None:
    """Return the module to its import-time state (tests)."""
    global _enabled, _registry, _tracer, _session
    if _session is not None:
        _session.close()
        _session = None
    _enabled = False
    _registry = Registry()
    _tracer = NullTracer()


# -- registry plumbing ------------------------------------------------------


def default_registry() -> Registry:
    return _registry


def set_default_registry(registry: Registry) -> None:
    global _registry
    _registry = registry


@contextmanager
def scoped_registry() -> Iterator[Registry]:
    """Swap in a fresh default registry for the duration of the block.

    Worker-side unit of the merge-on-return protocol: instrumented
    closures resolve the default registry at call time, so everything a
    work item records lands in the scoped registry and travels back as
    ``registry.to_dict()``.
    """
    global _registry
    previous = _registry
    fresh = Registry()
    _registry = fresh
    try:
        yield fresh
    finally:
        _registry = previous


def record_op_time(component: str, label: str, ns: int) -> None:
    """Hot-path accumulation used by instrumented closures."""
    _registry.add_op_time(component, label, ns)


# -- tracer plumbing --------------------------------------------------------


def tracer() -> "Tracer | NullTracer":
    return _tracer


def set_tracer(new_tracer: "Tracer | NullTracer") -> None:
    global _tracer
    _tracer = new_tracer


# -- sessions (what the CLI flags construct) --------------------------------


class ObsSession:
    """Everything one ``--obs-dir`` run owns, closed as a unit.

    Creating a session enables observability; closing it flushes the
    trace, publishes a final heartbeat, writes ``metrics.json``, stops
    the stats server, and disables observability again.

    While a session with a heartbeat is open, one daemon thread
    republishes the last snapshot every ``heartbeat_interval_s`` with a
    fresh ``ts``, ``seq`` and ``uptime_s``, so a heartbeat goes stale
    only when its process is gone, not while a long round runs.  The
    thread writes ``heartbeat.json`` only: the registry and
    ``metrics.json`` stay with the thread that publishes snapshots.
    """

    def __init__(
        self,
        obs_dir: Optional["str | Path"] = None,
        sample: float = 0.01,
        serve_port: Optional[int] = None,
        heartbeat_interval_s: float = 2.0,
    ) -> None:
        self.obs_dir = Path(obs_dir) if obs_dir is not None else None
        self.sample = sample
        self.registry = Registry()
        self.heartbeat: Optional[HeartbeatWriter] = None
        self.server: Optional[StatsServer] = None
        self._closed = False
        self._started = time.time()
        self._last_snapshot: Dict = {}
        #: held by every heartbeat write, so a refresh never republishes
        #: a snapshot that a newer publish already replaced
        self._heartbeat_lock = threading.Lock()
        self._closing = threading.Event()
        self._refresher: Optional[threading.Thread] = None

        set_default_registry(self.registry)
        if self.obs_dir is not None:
            self.obs_dir.mkdir(parents=True, exist_ok=True)
            set_tracer(Tracer(
                JsonlSink(self.obs_dir / "trace.jsonl"), sample=sample
            ))
            self.heartbeat = HeartbeatWriter(
                self.obs_dir / "heartbeat.json",
                interval_s=heartbeat_interval_s,
            )
            self._refresher = threading.Thread(
                target=self._refresh_heartbeat,
                name="repro-obs-heartbeat",
                daemon=True,
            )
            self._refresher.start()
        if serve_port is not None:
            self.server = StatsServer(
                default_registry, obs_dir=self.obs_dir, port=serve_port
            ).start()
        enable()

    # -- publishing ---------------------------------------------------------

    def publish_heartbeat(self, snapshot: Dict) -> None:
        """Publish ``snapshot`` (the one refreshes repeat from now on)
        and refresh ``metrics.json``."""
        if self.heartbeat is None:
            return
        with self._heartbeat_lock:
            self._last_snapshot = dict(snapshot)
            self._write_heartbeat()
        self.write_metrics_snapshot()

    def _write_heartbeat(self) -> None:
        """Publish the last snapshot; the caller holds the lock."""
        self.heartbeat.publish({
            "uptime_s": round(time.time() - self._started, 3),
            **self._last_snapshot,
        })

    def _refresh_heartbeat(self) -> None:
        while not self._closing.wait(self.heartbeat.interval_s):
            with self._heartbeat_lock:
                if self._last_snapshot:
                    self._write_heartbeat()

    def write_metrics_snapshot(self) -> None:
        """Atomically refresh ``metrics.json`` next to the heartbeat."""
        if self.obs_dir is None:
            return
        path = self.obs_dir / "metrics.json"
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(
            json.dumps(self.registry.to_dict(), indent=2, sort_keys=True)
            + "\n"
        )
        os.replace(tmp, path)

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        global _session
        if self._closed:
            return
        self._closed = True
        if self.heartbeat is not None:
            self._closing.set()
            self._refresher.join()
            # Keep the last run snapshot's fields so the final heartbeat
            # still answers "what did it do" — only the phase flips.
            with self._heartbeat_lock:
                self._last_snapshot = dict(self._last_snapshot, phase="done")
                self._write_heartbeat()
        self.write_metrics_snapshot()
        current = tracer()
        if isinstance(current, Tracer):
            current.flush()
            current.close()
        if self.server is not None:
            self.server.stop()
            self.server = None
        set_tracer(NullTracer())
        disable()
        if _session is self:
            _session = None

    def __enter__(self) -> "ObsSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def configure(
    obs_dir: Optional["str | Path"] = None,
    sample: float = 0.01,
    serve_port: Optional[int] = None,
    heartbeat_interval_s: float = 2.0,
) -> ObsSession:
    """Create (and install) the process-wide observability session."""
    global _session
    if _session is not None:
        _session.close()
    _session = ObsSession(
        obs_dir=obs_dir,
        sample=sample,
        serve_port=serve_port,
        heartbeat_interval_s=heartbeat_interval_s,
    )
    return _session


def publish_heartbeat(snapshot: Dict) -> None:
    """Session-aware heartbeat publish; a no-op without a session, so
    campaign code can call it unconditionally."""
    if _session is not None:
        _session.publish_heartbeat(snapshot)


# -- worker propagation -----------------------------------------------------


def worker_init_state() -> bool:
    """Picklable obs state shipped to pool workers: the enabled flag.

    Workers get the flag (so their walks and runs time consistently with
    the parent) but *no* sinks: traces and heartbeats stay parent-side,
    metrics return via :func:`scoped_registry` snapshots on each result.
    """
    return _enabled


def init_worker(state: bool) -> None:
    """Install shipped obs state in a pool worker (inverse of
    :func:`worker_init_state`)."""
    global _enabled, _tracer
    _enabled = state
    _tracer = NullTracer()
