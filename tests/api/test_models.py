"""Request parsing and the repo-wide verdict shape."""

import pytest

from repro.api import (
    API_SCHEMA_VERSION,
    IngestError,
    Verdict,
    VerifyRequest,
    precision_summary,
)
from repro.bpf import assemble
from repro.bpf.canon import CachedVerdict
from repro.bpf.verifier import Verifier
from repro.eval import gamma_bits
from repro.fuzz import generate_program
from repro.fuzz.generator import PROFILES

ACCEPTED = "mov r0, 7\nadd r0, 3\nexit"
REJECTED = "ldxdw r0, [r10-8]\nexit"   # uninitialized stack read


def _verify(text, ctx_size=64, **kwargs):
    program = assemble(text)
    events = []
    verifier = Verifier(
        ctx_size=ctx_size,
        on_transfer=lambda i, label, s: events.append((i, label, s)),
    )
    result = verifier.verify(program)
    return program, result, events


class TestVerifyRequest:
    def test_from_json_payload(self):
        program = assemble(ACCEPTED)
        request = VerifyRequest.from_json_payload({
            "program_hex": program.to_bytes().hex(),
            "ctx_size": 32,
            "states": True,
            "precision": True,
        })
        assert request.ctx_size == 32
        assert request.want_states and request.want_precision
        assert request.program.to_bytes() == program.to_bytes()

    def test_unknown_fields_ignored(self):
        program = assemble(ACCEPTED)
        request = VerifyRequest.from_json_payload({
            "program_hex": program.to_bytes().hex(),
            "future_field": {"anything": 1},
        })
        assert request.ctx_size == 64

    def test_non_bool_flag_is_422(self):
        program = assemble(ACCEPTED)
        with pytest.raises(IngestError) as exc:
            VerifyRequest.from_json_payload({
                "program_hex": program.to_bytes().hex(),
                "states": "yes",
            })
        assert exc.value.status == 422

    def test_from_wire_with_query(self):
        program = assemble(ACCEPTED)
        request = VerifyRequest.from_wire(
            program.to_bytes(), {"ctx_size": "16", "precision": "1"}
        )
        assert request.ctx_size == 16
        assert request.want_precision and not request.want_states


class TestVerdictShape:
    def test_accept_payload(self):
        program, result, _ = _verify(ACCEPTED)
        verdict = Verdict.from_result(
            result, program.canonical_hash(), 64
        )
        payload = verdict.to_payload()
        assert payload["schema_version"] == API_SCHEMA_VERSION
        assert payload["verdict"] == "accept"
        assert payload["ok"] is True
        assert payload["cached"] is False
        assert payload["canonical_hash"] == program.canonical_hash()
        assert payload["insns_processed"] == result.insns_processed
        assert "error" not in payload

    def test_reject_payload_carries_error(self):
        program, result, _ = _verify(REJECTED)
        payload = Verdict.from_result(
            result, program.canonical_hash(), 64
        ).to_payload()
        assert payload["verdict"] == "reject"
        assert payload["ok"] is False
        error = payload["error"]
        assert isinstance(error["index"], int)
        assert isinstance(error["reason"], str) and error["reason"]
        assert isinstance(error["structural"], bool)

    def test_states_render_with_string_keys(self):
        program, result, _ = _verify(ACCEPTED)
        verdict = Verdict.from_result(
            result, program.canonical_hash(), 64,
            states={0: "{} stack{}", 2: "{r0=7} stack{}"},
        )
        assert verdict.to_payload()["states"] == {
            "0": "{} stack{}", "2": "{r0=7} stack{}",
        }


class TestPrecisionSummary:
    def test_aggregates_transfer_stream(self):
        _, result, events = _verify(ACCEPTED)
        summary = precision_summary(
            CachedVerdict.from_result(result, events).precision
        )
        assert summary["transfers"] == len(events) > 0
        assert "add64" in summary["operators"]
        entry = summary["operators"]["add64"]
        assert entry["count"] >= 1
        assert entry["gamma_bits_max"] == 0   # constant-folded result

    def test_empty_stream(self):
        assert precision_summary([]) == {"transfers": 0, "operators": {}}

    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_folded_runs_render_the_stream(self, profile):
        # The entry folds the stream once; rendering its runs must give
        # the per-operator table the stream itself gives, in
        # first-transfer order.
        for seed in range(40):
            program = generate_program(seed, profile).program
            events = []
            result = Verifier(
                on_transfer=lambda i, label, s: events.append((i, label, s)),
            ).verify(program)
            expected = {}
            for _i, label, scalar in events:
                bits = gamma_bits(scalar)
                entry = expected.setdefault(label, {
                    "count": 0, "gamma_bits_sum": 0, "gamma_bits_max": 0,
                })
                entry["count"] += 1
                entry["gamma_bits_sum"] += bits
                entry["gamma_bits_max"] = max(entry["gamma_bits_max"], bits)
            summary = precision_summary(
                CachedVerdict.from_result(result, events).precision
            )
            assert summary == {"transfers": len(events), "operators": expected}
            assert list(summary["operators"]) == list(expected)
