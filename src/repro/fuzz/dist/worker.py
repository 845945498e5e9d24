"""The worker: a stateless lease-executing loop over HTTP.

A worker owns nothing a crash could lose: it fetches the campaign spec
and the round's mutation-seed pool from the coordinator, leases one
batch at a time, fuzzes it with the exact same module-level batch task
the single-machine campaign uses (:func:`repro.fuzz.campaign.
_fuzz_batch`, crash injection included), and POSTs the results back
keyed on the lease's batch fingerprint.  Kill a worker at any point and
the only cost is one lease timeout on the coordinator.

Coordinator RPCs retry with the same jittered exponential backoff the
lease runner uses (:meth:`~repro.fuzz.resilience.RetryPolicy.
backoff_s`), so a worker rides out a coordinator restart — leases
survive the restart (epoch deadlines in the checkpoint), so a result
computed across one is still accepted.

Chaos sites on the network half (``repro.faults``):

* ``dist.rpc.slow`` — an RPC sleeps before being sent;
* ``dist.result.drop`` — a result POST is "lost" and retried with
  backoff (bounded; the coordinator's lease timeout covers the rest);
* ``dist.result.duplicate`` — a result POST is sent twice, proving
  ingest idempotency end to end;
* ``dist.heartbeat.stale`` — the worker sleeps before its next lease
  poll, so the coordinator sees its heartbeat go stale.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
import urllib.error
import urllib.request
from typing import Dict, Optional, Tuple

from repro import faults as _faults
from repro import obs as _obs
from repro.fuzz.campaign import CampaignSpec, _fuzz_batch, _set_worker_state
from repro.fuzz.resilience import RetryPolicy

from .protocol import DIST_SCHEMA_VERSION, POLL_INTERVAL_S

__all__ = [
    "CoordinatorClient",
    "CoordinatorUnreachable",
    "DistProtocolError",
    "run_worker",
]


class CoordinatorUnreachable(RuntimeError):
    """Every RPC attempt failed — the coordinator is gone, not restarting."""


class DistProtocolError(RuntimeError):
    """The coordinator answered, but with a client-error status —
    retrying the same request cannot help (wrong campaign, bad body)."""


class CoordinatorClient:
    """JSON-over-HTTP client with jittered-backoff retries.

    Transport failures (connection refused, timeouts, 5xx) retry up to
    ``rpc_attempts`` times — generous on purpose: with the default
    backoff cap this rides out roughly a minute of coordinator
    downtime, which is what "workers survive coordinator restarts"
    means in practice.  4xx responses raise :class:`DistProtocolError`
    immediately.
    """

    def __init__(
        self,
        base_url: str,
        name: str,
        policy: Optional[RetryPolicy] = None,
        timeout_s: float = 30.0,
        rpc_attempts: int = 30,
    ) -> None:
        self.base_url = base_url.rstrip("/")
        self.name = name
        self.policy = policy or RetryPolicy()
        self.timeout_s = timeout_s
        self.rpc_attempts = rpc_attempts

    def get(self, path: str) -> Dict:
        return self._call("GET", path)

    def post(self, path: str, payload: Dict) -> Dict:
        return self._call("POST", path, payload)

    def _call(
        self, method: str, path: str, payload: Optional[Dict] = None
    ) -> Dict:
        attempt = 0
        while True:
            if _faults.enabled():
                _faults.sleep_if("dist.rpc.slow", (self.name, path, attempt))
            try:
                data = (
                    json.dumps(payload).encode()
                    if payload is not None else None
                )
                request = urllib.request.Request(
                    self.base_url + path,
                    data=data,
                    method=method,
                    headers={"Content-Type": "application/json"},
                )
                with urllib.request.urlopen(
                    request, timeout=self.timeout_s
                ) as response:
                    return json.loads(response.read().decode())
            except urllib.error.HTTPError as exc:
                if 400 <= exc.code < 500:
                    raise DistProtocolError(
                        f"{method} {path} -> HTTP {exc.code}"
                    ) from exc
                detail = f"HTTP {exc.code}"
            except (urllib.error.URLError, OSError, ValueError) as exc:
                detail = repr(exc)
            attempt += 1
            if attempt >= self.rpc_attempts:
                raise CoordinatorUnreachable(
                    f"{method} {path} failed {attempt} times "
                    f"(last: {detail})"
                )
            time.sleep(self.policy.backoff_s(
                min(attempt, 6), key=(self.name, path)
            ))


def _post_result(client: CoordinatorClient, payload: Dict) -> Dict:
    """POST one result, through the drop/duplicate chaos sites."""
    fingerprint = payload["fingerprint"]
    attempt = payload["attempt"]
    if _faults.enabled():
        # A "dropped" POST never reaches the wire; the worker notices
        # (no response) and retries with backoff.  Bounded so an
        # always-drop plan degrades to a lease timeout, not a hang.
        drops = 0
        while drops < client.policy.max_attempts and _faults.fire(
            "dist.result.drop", (fingerprint, attempt, drops)
        ):
            drops += 1
            time.sleep(client.policy.backoff_s(
                drops, key=(fingerprint, "drop")
            ))
    out = client.post("/result", payload)
    if _faults.enabled() and _faults.fire(
        "dist.result.duplicate", (fingerprint, attempt)
    ):
        # The retry-after-lost-ACK shape: same bytes, sent again.  The
        # coordinator must answer "duplicate", never merge twice.
        client.post("/result", payload)
    return out


def run_worker(
    coordinator_url: str,
    name: Optional[str] = None,
    policy: Optional[RetryPolicy] = None,
    stop: Optional[threading.Event] = None,
) -> Dict:
    """Lease-execute-report until the campaign finishes (or ``stop``).

    Returns a small stats dict (batches executed, duplicates observed,
    soft errors reported).  Raises :class:`CoordinatorUnreachable` only
    after the RPC retry budget is exhausted.
    """
    worker_name = name or f"{socket.gethostname()}-{os.getpid()}"
    client = CoordinatorClient(coordinator_url, worker_name, policy=policy)
    out = {
        "worker": worker_name, "batches": 0, "programs": 0,
        "errors": 0, "duplicates": 0,
    }
    cached_round: Optional[int] = None
    cached: Optional[Tuple[CampaignSpec, Tuple[str, ...]]] = None
    polls = 0
    while not (stop is not None and stop.is_set()):
        if _faults.enabled():
            _faults.sleep_if(
                "dist.heartbeat.stale", (worker_name, polls)
            )
        polls += 1
        grant = client.post("/lease", {
            "schema_version": DIST_SCHEMA_VERSION,
            "worker": worker_name,
        })
        if grant.get("done"):
            break
        batch = grant.get("batch")
        if batch is None:
            time.sleep(float(grant.get("wait", POLL_INTERVAL_S)))
            continue
        rnd = grant["round"]
        if rnd != cached_round or cached is None:
            info = client.get("/round")
            if info.get("finished") or info.get("round") != rnd:
                # The round settled (or moved) between the grant and
                # the fetch — our lease is already superseded; any
                # report we could produce would be stale.  Re-poll.
                continue
            cached = (
                CampaignSpec(**info["spec"]), tuple(info["pool"]),
            )
            cached_round = rnd
            _set_worker_state(cached[0], cached[1])
        payload = {
            "schema_version": DIST_SCHEMA_VERSION,
            "campaign_id": grant["campaign_id"],
            "worker": worker_name,
            "round": rnd,
            "batch_id": batch["batch_id"],
            "fingerprint": batch["fingerprint"],
            "attempt": batch["attempt"],
        }
        try:
            results = _fuzz_batch(
                batch["indices"], batch["attempt"], batch["inject"]
            )
        except Exception as exc:  # noqa: BLE001 - forwarded, not hidden
            payload.update(ok=False, error=repr(exc))
            out["errors"] += 1
        else:
            payload.update(ok=True, results=results)
            out["programs"] += len(results)
        verdict = _post_result(client, payload)
        out["batches"] += 1
        if verdict.get("status") == "duplicate":
            out["duplicates"] += 1
        if _obs.enabled():
            _obs.default_registry().counter("dist.worker.batches").inc()
    return out
