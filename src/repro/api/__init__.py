"""``repro.api`` — verification-as-a-service.

The clean service boundary the ROADMAP asks for, in four layers:

* :mod:`~repro.api.ingest` — every byte stream that becomes a
  ``Program`` (wire bytes, hex, JSON corpus encoding), with structured
  400/422 rejection semantics shared by the service, the CLI, and the
  fuzz corpus;
* :mod:`~repro.api.models` — :class:`VerifyRequest` /
  :class:`Verdict`, the one request/verdict shape repo-wide;
* :mod:`~repro.api.service` — :class:`VerificationService`: worker
  pool + shared :class:`~repro.bpf.canon.VerdictCache` + single-flight
  dedup, transport-free;
* :mod:`~repro.api.server` — :class:`ApiServer`: the stdlib-only HTTP
  front end (``repro serve``).

See ``docs/service.md`` for the endpoint contract.
"""

from .ingest import (
    DEFAULT_CTX_SIZE,
    MAX_CTX_SIZE,
    MAX_WIRE_BYTES,
    IngestError,
    parse_ctx_size,
    program_from_hex,
    program_from_json_payload,
    program_from_wire,
    program_to_hex,
)
from .models import (
    API_SCHEMA_VERSION,
    Verdict,
    VerdictError,
    VerifyRequest,
    precision_summary,
)
from .server import ApiServer
from .service import VerificationService


def __getattr__(name: str):
    # Lazy on purpose: api.dist loads repro.fuzz.dist and the campaign
    # driver under it, which the verification service never needs.
    if name == "CoordinatorApi":
        from .dist import CoordinatorApi
        return CoordinatorApi
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "API_SCHEMA_VERSION",
    "CoordinatorApi",
    "DEFAULT_CTX_SIZE",
    "MAX_CTX_SIZE",
    "MAX_WIRE_BYTES",
    "ApiServer",
    "IngestError",
    "Verdict",
    "VerdictError",
    "VerificationService",
    "VerifyRequest",
    "parse_ctx_size",
    "precision_summary",
    "program_from_hex",
    "program_from_json_payload",
    "program_from_wire",
    "program_to_hex",
]
