"""``serve_cold`` and ``serve_warm``: keep-alive clients against ``repro serve``.

The server runs in its own process (``serve_launcher.py``, i.e. ``repro
serve --port 0`` with default flags).  Load is a closed loop of
:data:`CLIENTS` threads in this process, each on one keep-alive
``http.client`` connection, each sending its next request only after
the previous answer arrived -- CI callers wait for every verdict.
Requests alternate the wire and the JSON encoding.  Latency runs from
sending a request to reading the last byte of its response.

``serve_cold``: every timed request is a program the server has never
seen, drawn from the frozen universe (:mod:`universe`) in a seeded
order, so each one is a cache miss and a walk on the service pool.  Set-up
warms the verifier on a disjoint batch.  Afterwards ``/stats`` must show
one verification per timed request and no cache hits.

``serve_warm``: set-up submits a working set of :data:`WORKING_SET`
programs once; the timed phase replays it in seeded shuffled passes, so
every request is a cache hit and nothing walks.  Afterwards ``/stats``
must show no verification during the timed phase.

A run is split into :data:`~harness.SETUP_REPEATS` segments
(:func:`~harness.segments`), each against a fresh server; set-up (server
start to warm) is timed before each one, and the request schedule runs
on across them.  Set-up traffic uses one short-lived connection per
request.  A traced run measures half its time against a
plain server and half against one with spans (``--spans``), and charges
each request's round trip, less its server-side spans, to transport.
"""

from __future__ import annotations

import http.client
import json
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import universe
from harness import (
    ROOT,
    Outcome,
    child_env,
    on_cpu,
    reserve_cpu,
    segments,
    setup_note,
    trace_path,
)
from serve_launcher import LAUNCHER_TAG
from spans import Span, Tracer, self_times
from stats import MIN_BEYOND, supported_percentile

CLIENTS = 2
HOST = "127.0.0.1"
WARMUP_BATCH = 128
WORKING_SET = 256
_START_TIMEOUT_S = 60
_STOP_TIMEOUT_S = 30
_HTTP_TIMEOUT_S = 30
#: Server-side spans that run directly under a request (the rest nest).
SERVER_ROOTS = ("ingest", "service", "render")


@dataclass
class Server:
    proc: subprocess.Popen
    port: int
    peak_rss_mb: float = 0.0

    def stop(self) -> None:
        """SIGTERM, wait for exit, and read the server's peak memory."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=_STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        for line in out.splitlines():
            if line.startswith(LAUNCHER_TAG):
                self.peak_rss_mb = json.loads(line[len(LAUNCHER_TAG):])["peak_rss_kb"] / 1024.0


def start_server(spans_path: Optional[str] = None) -> Server:
    cmd = [sys.executable, str(ROOT / "perfbench" / "serve_launcher.py")]
    if spans_path:
        cmd += ["--spans", spans_path]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
    )
    ready = threading.Timer(_START_TIMEOUT_S, proc.kill)
    ready.start()
    try:
        for line in proc.stdout:
            if line.startswith("serve: http://"):
                port = int(line.split()[1].rsplit(":", 1)[1])
                return Server(proc, port)
    finally:
        ready.cancel()
    proc.wait()
    raise RuntimeError(f"repro serve did not start (exit {proc.returncode})")


def encode(wire: bytes, as_json: bool) -> Tuple[bytes, str]:
    """Body and content type of a ``POST /verify``."""
    if as_json:
        return json.dumps({"program_hex": wire.hex()}).encode(), "application/json"
    return wire, "application/octet-stream"


def post_once(port: int, wire: bytes, as_json: bool) -> Tuple[int, bytes]:
    """One request on its own connection (set-up traffic)."""
    body, ctype = encode(wire, as_json)
    conn = http.client.HTTPConnection(HOST, port, timeout=_HTTP_TIMEOUT_S)
    try:
        conn.request("POST", "/verify", body, {"Content-Type": ctype, "Connection": "close"})
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def service_stats(port: int) -> Dict:
    conn = http.client.HTTPConnection(HOST, port, timeout=_HTTP_TIMEOUT_S)
    try:
        conn.request("GET", "/stats", headers={"Connection": "close"})
        return json.loads(conn.getresponse().read())["service"]
    finally:
        conn.close()


@dataclass
class Phase:
    """Requests of one timed phase, as the client saw them."""

    rtt_s: Dict[str, float] = field(default_factory=dict)   # by request id
    errors: List[str] = field(default_factory=list)
    elapsed_s: float = 0.0
    stats_before: Dict = field(default_factory=dict)
    stats_after: Dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.rtt_s) + len(self.errors)

    def delta(self, *keys: str) -> int:
        before, after = self.stats_before, self.stats_after
        for key in keys[:-1]:
            before, after = before[key], after[key]
        return after[keys[-1]] - before[keys[-1]]


class Schedule:
    """Thread-safe stream of ``(universe index, request number)``."""

    def __init__(self, order: List[int], cycle: bool, rng: random.Random) -> None:
        self._order = order
        self._cycle = cycle
        self._rng = rng
        self._pos = 0
        self._sent = 0
        self._lock = threading.Lock()

    def next(self) -> Optional[Tuple[int, int]]:
        with self._lock:
            if self._pos == len(self._order):
                if not self._cycle:
                    return None
                self._order = self._order[:]
                self._rng.shuffle(self._order)
                self._pos = 0
            item = (self._order[self._pos], self._sent)
            self._pos += 1
            self._sent += 1
            return item


def _answers(status: int, body: bytes, want: universe.Expected) -> bool:
    if status != 200:
        return False
    try:
        return universe.matches(json.loads(body), want)
    except ValueError:
        return False


def timed_phase(
    port: int,
    wire: List[bytes],
    expected: List[universe.Expected],
    schedule: Schedule,
    seconds: float,
) -> Phase:
    phase = Phase(stats_before=service_stats(port))
    lock = threading.Lock()
    started = time.perf_counter()
    deadline = started + seconds

    def client() -> None:
        conn = http.client.HTTPConnection(HOST, port, timeout=_HTTP_TIMEOUT_S)
        try:
            while time.perf_counter() < deadline:
                item = schedule.next()
                if item is None:
                    return
                index, number = item
                rid = str(number)
                body, ctype = encode(wire[index], as_json=number % 2 == 1)
                headers = {"Content-Type": ctype, "X-Request-Id": rid}
                try:
                    t0 = time.perf_counter()
                    conn.request("POST", "/verify", body, headers)
                    resp = conn.getresponse()
                    data = resp.read()
                    rtt = time.perf_counter() - t0
                except (OSError, http.client.HTTPException) as exc:
                    conn.close()
                    conn = http.client.HTTPConnection(HOST, port, timeout=_HTTP_TIMEOUT_S)
                    error = f"request {rid}: {type(exc).__name__}: {exc}"
                else:
                    error = None
                    if not _answers(resp.status, data, expected[index]):
                        error = f"request {rid}: HTTP {resp.status}, wrong answer for program {index}"
                with lock:
                    if error is None:
                        phase.rtt_s[rid] = rtt
                    else:
                        phase.errors.append(error)
        finally:
            conn.close()

    # Daemon threads: a run stopped by SIGTERM must not wait out the deadline.
    threads = [threading.Thread(target=client, daemon=True) for _ in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    phase.elapsed_s = time.perf_counter() - started
    phase.stats_after = service_stats(port)
    return phase


def set_up(batch: List[int], wire, expected, outcome: Outcome, spans_path=None) -> Tuple[Server, float]:
    """Start a server and send it ``batch`` once; returns it and the time taken."""
    t0 = time.perf_counter()
    server = start_server(spans_path)
    try:
        wrong = [
            index for n, index in enumerate(batch)
            if not _answers(*post_once(server.port, wire[index], as_json=n % 2 == 1),
                            expected[index])
        ]
    except BaseException:
        server.stop()
        raise
    took = time.perf_counter() - t0
    if wrong:
        outcome.problems.append(
            f"set-up: {len(wrong)} wrong answers, first for program {wrong[0]}"
        )
    return server, took


def stats_problem(phase: Phase, cold: bool) -> Optional[str]:
    """``/stats`` deltas must show the workload did what it claims."""
    verifications = phase.delta("verifications")
    hits = phase.delta("cache", "hits")
    if cold and (verifications != phase.attempted or hits != 0):
        return (
            f"serve_cold: {verifications} verifications and {hits} cache hits "
            f"for {phase.attempted} timed requests (want one walk each, no hits)"
        )
    if not cold and verifications != 0:
        return f"serve_warm: {verifications} verifications in the timed phase (want 0)"
    return None


def record_phases(phases: List[Phase], cold: bool, outcome: Outcome, label: str) -> List[float]:
    """Count and check ``phases``; returns their round trips."""
    failed = attempted = 0
    for phase in phases:
        attempted += phase.attempted
        outcome.problems.extend(phase.errors[:5])
        problem = stats_problem(phase, cold)
        if problem is not None:
            # The phase did not do what the workload claims: none of it counts.
            outcome.problems.append(problem)
            failed += phase.attempted
        else:
            failed += len(phase.errors)
    outcome.attempted += attempted
    outcome.failed += failed
    lat = [rtt for phase in phases for rtt in phase.rtt_s.values()]
    p99 = supported_percentile(lat, 99)
    tail = (
        f"p99 {p99 * 1e3:.2f} ms" if p99 is not None
        else f"p99 not reported (under {MIN_BEYOND} samples beyond it)"
    )
    elapsed = sum(phase.elapsed_s for phase in phases)
    outcome.notes.append(
        f"{label}: {len(lat)} samples in {elapsed:.2f}s over {CLIENTS} "
        f"keep-alive connections, p50 {statistics.median(lat) * 1e3:.2f} ms, {tail}; "
        f"failed {failed}/{attempted}"
        if lat else f"{label}: no request succeeded"
    )
    return lat


def run(seed: int, seconds: float, trace: bool, cold: bool) -> Outcome:
    outcome = Outcome(attempted=0)
    wire, expected = universe.load()
    rng = random.Random(seed)
    order = list(range(len(wire)))
    rng.shuffle(order)
    if cold:
        batch, timed = order[:WARMUP_BATCH], order[WARMUP_BATCH:]
    else:
        batch = timed = order[:WORKING_SET]
    name = "serve_cold" if cold else "serve_warm"

    def schedule() -> Schedule:
        return Schedule(list(timed), cycle=not cold, rng=random.Random(seed + 1))

    # Servers run on a CPU of their own: set-up (and its calibration)
    # runs there too, and the client threads run on the others.
    cpu = reserve_cpu()

    if not trace:
        setups: List[float] = []
        servers: List[Server] = []
        phases: List[Phase] = []
        requests = schedule()

        def start() -> float:
            # The previous segment's server stops here, outside its
            # segment's timed time and outside this set-up's.
            if servers:
                servers[-1].stop()
            server, took = set_up(batch, wire, expected, outcome)
            servers.append(server)
            return took

        # One fresh server per segment; the schedule runs on across them.
        try:
            for deadline in segments(seconds, start, setups, cpu=cpu):
                phases.append(timed_phase(
                    servers[-1].port, wire, expected, requests,
                    deadline - time.perf_counter(),
                ))
        finally:
            if servers:
                servers[-1].stop()
        lat = record_phases(phases, cold, outcome, name)
        outcome.notes.append(setup_note(setups))
        outcome.metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(lat) / sum(phase.elapsed_s for phase in phases),
            "latency_ms": statistics.median(lat) * 1e3 if lat else 0.0,
            "peak_rss_mb": max(server.peak_rss_mb for server in servers),
        }
        return outcome

    phases = []
    spans_path = trace_path(name, seed)
    for traced in (False, True):
        with on_cpu(cpu):
            server, _ = set_up(batch, wire, expected, outcome,
                               spans_path if traced else None)
        try:
            phase = timed_phase(server.port, wire, expected, schedule(), seconds / 2)
        finally:
            server.stop()
        record_phases([phase], cold, outcome, f"{name} ({'traced' if traced else 'plain'})")
        phases.append(phase)
    plain, traced_phase = phases
    outcome.metrics = layer_metrics(traced_phase, Tracer.load(spans_path))
    outcome.metrics["trace.overhead_frac"] = (
        statistics.fmean(traced_phase.rtt_s.values())
        / statistics.fmean(plain.rtt_s.values()) - 1.0
    )
    return outcome


def layer_metrics(phase: Phase, spans: List[Span]) -> Dict[str, float]:
    """Mean milliseconds per timed request charged to each layer."""
    own = self_times(spans)
    timed = [s for s in spans if s.rid in phase.rtt_s]
    n = len(phase.rtt_s)
    by_layer: Dict[str, float] = {}
    server_ns: Dict[str, int] = {}
    for s in timed:
        by_layer[s.name] = by_layer.get(s.name, 0) + own[s.sid]
        if s.parent is None and s.name in SERVER_ROOTS:
            server_ns[s.rid] = server_ns.get(s.rid, 0) + s.duration
    transport_s = sum(rtt - server_ns.get(rid, 0) / 1e9 for rid, rtt in phase.rtt_s.items())

    def per_request_ms(ns: float) -> float:
        return ns / 1e6 / n

    hits = phase.delta("cache", "hits")
    lookups = hits + phase.delta("cache", "misses")
    return {
        "transport.self_ms": transport_s * 1e3 / n,
        "ingest.self_ms": per_request_ms(by_layer.get("ingest", 0)),
        "canon.hash_ms": per_request_ms(by_layer.get("canon", 0)),
        "cache.lookup_ms": per_request_ms(by_layer.get("cache", 0)),
        "render.self_ms": per_request_ms(by_layer.get("render", 0)),
        "service.self_ms": per_request_ms(by_layer.get("service", 0)),
        "verifier.self_ms": per_request_ms(by_layer.get("verifier", 0)),
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "service.verifications": float(phase.delta("verifications")),
    }
