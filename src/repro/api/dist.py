"""HTTP front end for the distributed-campaign coordinator.

The coordinator's route table on :mod:`repro.httpd` (which owns the
lifecycle, the error envelope, body limits, socket timeouts and 500s),
serving a :class:`~repro.fuzz.dist.coordinator.Coordinator` (``repro
coordinate``).  Routes:

* ``POST /lease`` — ``{"worker": name}`` in; a batch grant, a ``wait``
  hint, or ``{"done": true}`` out.  The grant carries the batch
  fingerprint the result must report under.
* ``POST /result`` — one batch's results (or a soft-error report) in;
  an idempotency status out (``accepted`` / ``duplicate`` / ``stale``
  / ``retrying`` / ``quarantined``) — always **200**: a duplicate or
  stale report is a *correctly handled* protocol event, not a client
  error.
* ``GET /round`` — the campaign spec and the current round's
  mutation-seed pool (workers refetch per round).
* ``GET /healthz`` — liveness, plus the armed fault plan when chaos is
  on (same echo contract as ``repro serve``).
* ``GET /stats`` — ledger/worker/counter snapshot, fault-plan echo,
  and the obs registry when observability is enabled.

A request naming a different ``campaign_id`` answers a structured
**409** (``wrong-campaign``): a worker pointed at the wrong coordinator
must fail loudly, never merge.
"""

from __future__ import annotations

from typing import Dict

from repro.fuzz.dist.coordinator import Coordinator
from repro.httpd import HttpError, HttpServer, Request

from .models import with_diagnostics

__all__ = ["CoordinatorApi", "MAX_RESULT_BODY_BYTES"]

#: Result bodies carry a whole batch of per-program telemetry; cap them
#: well above any realistic batch, but below "a client is streaming us
#: garbage".
MAX_RESULT_BODY_BYTES = 64 * 1024 * 1024


class CoordinatorApi(HttpServer):
    """Serve a :class:`Coordinator` over HTTP on a daemon thread."""

    def __init__(
        self,
        coordinator: Coordinator,
        host: str = "127.0.0.1",
        port: int = 0,
        socket_timeout_s: float = 30.0,
    ) -> None:
        self.coordinator = coordinator
        super().__init__(
            {
                "POST /lease": self._lease,
                "POST /result": self._result,
                "GET /round": lambda _request: coordinator.round_info(),
                "GET /healthz": lambda _request: with_diagnostics({
                    "status": "ok",
                    "campaign_id": coordinator.cid,
                    "finished": coordinator.finished,
                }),
                "GET /stats": lambda _request: with_diagnostics(
                    coordinator.stats_payload(), metrics=True
                ),
            },
            host, port,
            socket_timeout_s=socket_timeout_s,
            max_body_bytes=MAX_RESULT_BODY_BYTES,
            thread_name="repro-dist-http",
        )

    def _lease(self, request: Request) -> Dict:
        payload = _json_object(request)
        worker = payload.get("worker")
        if not isinstance(worker, str) or not worker:
            raise HttpError(
                400, "missing-worker",
                "POST /lease requires a non-empty worker name",
            )
        self._check_campaign(payload)
        return self.coordinator.lease(worker)

    def _result(self, request: Request) -> Dict:
        payload = _json_object(request)
        self._check_campaign(payload)
        if not isinstance(payload.get("fingerprint"), str):
            raise HttpError(
                400, "missing-fingerprint",
                "POST /result requires the granted batch fingerprint",
            )
        return self.coordinator.ingest(payload)

    def _check_campaign(self, payload: Dict) -> None:
        cid = payload.get("campaign_id")
        if cid is not None and cid != self.coordinator.cid:
            raise HttpError(
                409, "wrong-campaign",
                f"this coordinator runs campaign {self.coordinator.cid}, "
                f"not {cid}",
            )


def _json_object(request: Request) -> Dict:
    payload = request.json()
    if not isinstance(payload, dict):
        raise HttpError(400, "bad-json", "request body must be an object")
    return payload
