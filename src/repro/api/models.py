"""Request and verdict models: the one verdict shape repo-wide.

``POST /verify`` bodies parse into :class:`VerifyRequest`; every
verification outcome — served over HTTP, printed by ``repro verify
--json``, or read back from a :class:`~repro.bpf.canon.VerdictCache`
entry — renders through :class:`Verdict`, so clients see a single
schema no matter which layer produced the answer.  The ``precision``
summary renders from the per-operator runs a cache entry keeps
(:func:`precision_summary`), so a miss and a hit print the same table.

The response payload is additive-versioned: ``schema_version`` bumps
only on breaking changes, and clients are expected to ignore unknown
fields (the test suite holds itself to the same tolerant contract).
Current shape::

    {
      "schema_version": 1,
      "canonical_hash": "<sha256 hex>",
      "ctx_size": 64,
      "verdict": "accept" | "reject",
      "ok": true,
      "insns_processed": 17,
      "cached": false,
      "error": {"index": 3, "reason": "...", "structural": false},  # reject only
      "states": {"0": "{r1=ctx(...), ...} stack{}", ...},           # on request
      "precision": {"transfers": 12, "operators": {...}}            # on request
    }
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro import faults as _faults
from repro import obs as _obs
from repro.bpf.program import Program
from repro.bpf.verifier.errors import VerificationResult, VerifierError

from .ingest import (
    DEFAULT_CTX_SIZE,
    IngestError,
    parse_ctx_size,
    program_from_json_payload,
    program_from_wire,
)

__all__ = [
    "API_SCHEMA_VERSION",
    "VerifyRequest",
    "VerdictError",
    "Verdict",
    "precision_summary",
    "with_diagnostics",
]

#: Version of the request/response payload shape served by the API and
#: ``repro verify --json``.  Additive fields do not bump it.
API_SCHEMA_VERSION = 1


def with_diagnostics(payload: Dict, metrics: bool = False) -> Dict:
    """``payload`` plus the armed fault plan and, with ``metrics``, the
    obs registry snapshot (each only when it is on).

    ``/healthz`` and ``/stats`` (on every HTTP surface — the
    verification service and the dist coordinator) echo the plan so a
    chaos harness can *assert* the process under test is actually
    running the plan it armed — a server accidentally started without
    ``REPRO_FAULTS`` would otherwise pass its chaos suite vacuously.
    """
    plan = _faults.active_plan()
    if plan is not None:
        payload["faults"] = {"spec": plan.to_spec(), "seed": plan.seed}
    if metrics and _obs.enabled():
        payload["metrics"] = _obs.default_registry().to_dict()
    return payload


@dataclass
class VerifyRequest:
    """One validated verification request.

    Built from either encoding the service accepts — a JSON object
    (:meth:`from_json_payload`) or raw wire bytes plus query parameters
    (:meth:`from_wire`).  Unknown JSON fields are ignored, so corpus
    entries and future clients POST verbatim.
    """

    program: Program
    ctx_size: int = DEFAULT_CTX_SIZE
    #: collect per-instruction entry states (bypasses the verdict cache —
    #: states are walk artifacts the cache does not carry).
    want_states: bool = False
    #: include the per-operator precision summary of the transfer stream.
    want_precision: bool = False

    @classmethod
    def from_json_payload(
        cls, payload: Dict, default_ctx_size: int = DEFAULT_CTX_SIZE
    ) -> "VerifyRequest":
        program = program_from_json_payload(payload)
        ctx_size = parse_ctx_size(
            payload.get("ctx_size"), default=default_ctx_size
        )
        return cls(
            program=program,
            ctx_size=ctx_size,
            want_states=_parse_flag(payload, "states"),
            want_precision=_parse_flag(payload, "precision"),
        )

    @classmethod
    def from_wire(
        cls,
        data: bytes,
        query: Optional[Dict[str, str]] = None,
        default_ctx_size: int = DEFAULT_CTX_SIZE,
    ) -> "VerifyRequest":
        query = query or {}
        return cls(
            program=program_from_wire(data),
            ctx_size=parse_ctx_size(
                query.get("ctx_size"), default=default_ctx_size
            ),
            want_states=query.get("states") in ("1", "true"),
            want_precision=query.get("precision") in ("1", "true"),
        )


def _parse_flag(payload: Dict, key: str) -> bool:
    value = payload.get(key, False)
    if not isinstance(value, bool):
        raise IngestError(
            422, "bad-flag",
            f"{key!r} must be a JSON boolean, not {type(value).__name__}",
        )
    return value


@dataclass
class VerdictError:
    """The rejection detail of a verdict (mirror of ``VerifierError``)."""

    index: int
    reason: str
    structural: bool = False

    def to_payload(self) -> Dict:
        return {
            "index": self.index,
            "reason": self.reason,
            "structural": self.structural,
        }

    def message(self) -> str:
        return f"insn {self.index}: {self.reason}"


@dataclass
class Verdict:
    """One verification outcome in the repo-wide response shape."""

    canonical_hash: str
    ctx_size: int
    ok: bool
    insns_processed: int
    error: Optional[VerdictError] = None
    #: answered from the verdict cache (no abstract walk ran).
    cached: bool = False
    #: per-instruction entry states, rendered (reached indices only).
    states: Optional[Dict[int, str]] = None
    precision: Optional[Dict] = None

    @property
    def verdict(self) -> str:
        return "accept" if self.ok else "reject"

    @classmethod
    def from_result(
        cls,
        result: VerificationResult,
        canonical_hash: str,
        ctx_size: int,
        cached: bool = False,
        states: Optional[Dict[int, str]] = None,
        precision: Optional[Dict] = None,
    ) -> "Verdict":
        error: Optional[VerdictError] = None
        if result.errors:
            first: VerifierError = result.errors[0]
            error = VerdictError(
                index=first.insn_index,
                reason=first.reason,
                structural=first.structural,
            )
        return cls(
            canonical_hash=canonical_hash,
            ctx_size=ctx_size,
            ok=result.ok,
            insns_processed=result.insns_processed,
            error=error,
            cached=cached,
            states=states,
            precision=precision,
        )

    def to_payload(self) -> Dict:
        payload: Dict = {
            "schema_version": API_SCHEMA_VERSION,
            "canonical_hash": self.canonical_hash,
            "ctx_size": self.ctx_size,
            "verdict": self.verdict,
            "ok": self.ok,
            "insns_processed": self.insns_processed,
            "cached": self.cached,
        }
        if self.error is not None:
            payload["error"] = self.error.to_payload()
        if self.states is not None:
            payload["states"] = {
                str(idx): text for idx, text in sorted(self.states.items())
            }
        if self.precision is not None:
            payload["precision"] = self.precision
        return payload


def precision_summary(precision: Sequence) -> Dict:
    """Render a cache entry's precision runs as the ``precision`` payload.

    ``precision`` is :attr:`~repro.bpf.canon.CachedVerdict.precision`:
    the walk's ``on_transfer`` stream folded, per operator label in
    first-transfer order, into flat ``label, count, gamma_bits_sum,
    gamma_bits_max`` runs.  The γ-width is
    :meth:`~repro.domains.product.ScalarValue.gamma_bits`, the measure
    campaign telemetry uses, so service numbers and campaign reports
    speak one unit.
    """
    operators: Dict[str, Dict] = {}
    transfers = 0
    runs = iter(precision)
    for label, count, bits_sum, bits_max in zip(runs, runs, runs, runs):
        transfers += count
        operators[label] = {
            "count": count,
            "gamma_bits_sum": bits_sum,
            "gamma_bits_max": bits_max,
        }
    return {"transfers": transfers, "operators": operators}
