"""The HTTP front end: the service's route table on :mod:`repro.httpd`.

The shared scaffold owns the lifecycle, the error envelope, the body
limits, socket timeouts and 500s; this module owns the routes:

* ``POST /verify`` — a program (JSON with ``program_hex`` /
  corpus-style ``bytecode_hex``, or raw wire bytes as
  ``application/octet-stream`` with query parameters) in, a
  :class:`~repro.api.models.Verdict` payload out.  Reject verdicts are
  still **200** — the verification *succeeded*, the program failed;
  400/422 are reserved for requests the service never verified
  (malformed wire bytes, oversize programs, bad ctx sizes — see
  :mod:`repro.api.ingest`).
* ``GET /verdict/<canonical_hash>[?ctx_size=N]`` — cached verdict or a
  structured 404.
* ``GET /healthz`` — liveness probe.
* ``GET /stats`` — JSON: service counters (requests, verifications,
  single-flight inflight, cache hits/misses/evictions) plus the obs
  registry snapshot when observability is enabled.
* ``GET /metrics`` — Prometheus text: ``repro_api_*`` service counters
  always, plus the obs registry when observability is enabled, all
  rendered by :meth:`repro.obs.Registry.render_prometheus`.

Under pressure the server degrades structurally instead of collapsing
(see ``docs/resilience.md``): a full work queue answers **503**
(``overloaded``, with a ``Retry-After`` header), a request that outlives
the service deadline answers **504** (``deadline-exceeded``), and
``/healthz`` stays live throughout — it never touches the verification
pool.
"""

from __future__ import annotations

from typing import Dict

from repro import obs as _obs
from repro.httpd import (
    DEFAULT_SOCKET_TIMEOUT_S,
    HttpError,
    HttpServer,
    Request,
    Text,
)

from .ingest import MAX_WIRE_BYTES, parse_ctx_size
from .models import API_SCHEMA_VERSION, VerifyRequest, with_diagnostics
from .service import DeadlineExceeded, ServiceOverloaded, VerificationService

__all__ = ["ApiServer", "MAX_BODY_BYTES", "DEFAULT_SOCKET_TIMEOUT_S"]

#: Request bodies past this cannot contain an acceptable program (hex
#: doubles the wire bytes; the rest is JSON framing).
MAX_BODY_BYTES = 4 * MAX_WIRE_BYTES + 4096


class ApiServer(HttpServer):
    """Serve a :class:`VerificationService` over HTTP on a daemon thread."""

    def __init__(
        self,
        service: VerificationService,
        host: str = "127.0.0.1",
        port: int = 0,
        socket_timeout_s: float = DEFAULT_SOCKET_TIMEOUT_S,
    ) -> None:
        self.service = service
        super().__init__(
            {
                "POST /verify": self._verify,
                "GET /verdict/": self._verdict,
                "GET /healthz": lambda _request: service.healthz(),
                "GET /stats": lambda _request: with_diagnostics(
                    {"schema_version": API_SCHEMA_VERSION,
                     "service": service.stats()},
                    metrics=True,
                ),
                "GET /metrics": lambda _request: Text(
                    _metrics_payload(service)
                ),
            },
            host, port,
            socket_timeout_s=socket_timeout_s,
            max_body_bytes=MAX_BODY_BYTES,
            too_large_code="program-too-large",
            thread_name="repro-api-http",
        )

    def _verify(self, request: Request) -> Dict:
        service = self.service
        ctype = request.headers.get("Content-Type") or ""
        try:
            if ctype.split(";")[0].strip().lower() in (
                "application/octet-stream", "application/x-bpf"
            ):
                parsed = VerifyRequest.from_wire(
                    request.body(), request.query,
                    default_ctx_size=service.default_ctx_size,
                )
            else:
                parsed = VerifyRequest.from_json_payload(
                    request.json(), default_ctx_size=service.default_ctx_size
                )
        except HttpError:   # body limits and ingest rejections alike
            service.note_rejection()
            raise
        try:
            verdict = service.verify(parsed)
        except ServiceOverloaded as exc:
            # Load shed: structured, with a drain estimate — the request
            # cost nothing, the client knows when to come back, and the
            # service never queues unboundedly.
            raise HttpError(
                503, "overloaded", str(exc),
                headers={"Retry-After": str(exc.retry_after_s)},
            ) from exc
        except DeadlineExceeded as exc:
            raise HttpError(504, "deadline-exceeded", str(exc)) from exc
        return verdict.to_payload()

    def _verdict(self, request: Request) -> Dict:
        chash = request.path[len("/verdict/"):]
        if not chash or "/" in chash:
            raise HttpError(
                400, "bad-hash", "expected /verdict/<canonical_hash>"
            )
        ctx_size = parse_ctx_size(
            request.query.get("ctx_size"),
            default=self.service.default_ctx_size,
        )
        verdict = self.service.lookup(chash, ctx_size)
        if verdict is None:
            raise HttpError(
                404, "unknown-verdict",
                f"no cached verdict for {chash} at ctx_size={ctx_size}",
            )
        return verdict.to_payload()


def _metrics_payload(service: VerificationService) -> str:
    """``repro_api_*`` counters, plus the obs registry when enabled.

    The service's numbers go into a throwaway registry so that
    :meth:`~repro.obs.Registry.render_prometheus` is the one renderer.
    """
    stats = service.stats()
    cache = stats["cache"]
    registry = _obs.Registry()
    for name, value in (
        ("requests", stats["requests"]),
        ("verifications", stats["verifications"]),
        ("rejections", stats["rejections"]),
        ("shed", stats["shed"]),
        ("timeouts", stats["timeouts"]),
        ("cache.hits", cache["hits"]),
        ("cache.misses", cache["misses"]),
        ("cache.evictions", cache["evictions"]),
    ):
        registry.counter(f"api.{name}").inc(value)
    registry.gauge("api.cache.entries").set(cache["entries"])
    if _obs.enabled():
        registry.merge(_obs.default_registry())
    return registry.render_prometheus()
