"""End-to-end HTTP tests against a live ApiServer on an ephemeral port.

Response-shape assertions here are deliberately *tolerant*: they check
the required keys and their types and ignore anything extra, so the
service can grow additive fields without breaking clients (or these
tests).
"""

import http.client
import json
import urllib.error
import urllib.request

import pytest

from repro.api import ApiServer, VerificationService
from repro.api.server import MAX_BODY_BYTES
from repro.bpf import assemble

ACCEPTED = "mov r0, 7\nadd r0, 3\nexit"
REJECTED = "ldxdw r0, [r10-8]\nexit"


@pytest.fixture
def server():
    service = VerificationService(workers=2)
    api = ApiServer(service)
    api.start()
    yield api
    api.stop()
    service.close()


def post_json(server, payload, path="/verify"):
    request = urllib.request.Request(
        server.url + path,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    return _send(request)


def post_wire(server, data, path="/verify"):
    request = urllib.request.Request(
        server.url + path,
        data=data,
        headers={"Content-Type": "application/octet-stream"},
        method="POST",
    )
    return _send(request)


def get(server, path):
    return _send(urllib.request.Request(server.url + path))


def _send(request):
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def hex_payload(text, **extra):
    payload = {"program_hex": assemble(text).to_bytes().hex()}
    payload.update(extra)
    return payload


def assert_verdict_shape(body):
    """Required keys and types only — additive fields are fine."""
    assert isinstance(body["schema_version"], int)
    assert isinstance(body["canonical_hash"], str)
    assert len(body["canonical_hash"]) == 64
    assert isinstance(body["ctx_size"], int)
    assert body["verdict"] in ("accept", "reject")
    assert isinstance(body["ok"], bool)
    assert isinstance(body["insns_processed"], int)
    assert isinstance(body["cached"], bool)
    if body["verdict"] == "reject":
        error = body["error"]
        assert isinstance(error["index"], int)
        assert isinstance(error["reason"], str) and error["reason"]


def assert_error_shape(body):
    error = body["error"]
    assert isinstance(error["code"], str) and error["code"]
    assert isinstance(error["message"], str) and error["message"]


class TestVerifyEndpoint:
    def test_json_accept(self, server):
        status, body = post_json(server, hex_payload(ACCEPTED))
        assert status == 200
        assert_verdict_shape(body)
        assert body["verdict"] == "accept" and body["ok"] is True

    def test_json_reject_is_still_200(self, server):
        status, body = post_json(server, hex_payload(REJECTED))
        assert status == 200
        assert_verdict_shape(body)
        assert body["verdict"] == "reject" and body["ok"] is False

    def test_octet_stream_body(self, server):
        status, body = post_wire(server, assemble(ACCEPTED).to_bytes())
        assert status == 200
        assert_verdict_shape(body)
        assert body["verdict"] == "accept"

    def test_warm_repeat_is_cached(self, server):
        _, cold = post_json(server, hex_payload(ACCEPTED))
        _, warm = post_json(server, hex_payload(ACCEPTED))
        assert cold["cached"] is False
        assert warm["cached"] is True
        assert warm["canonical_hash"] == cold["canonical_hash"]

    def test_states_and_precision_flags(self, server):
        status, body = post_json(
            server, hex_payload(ACCEPTED, states=True, precision=True)
        )
        assert status == 200
        assert isinstance(body["states"], dict) and body["states"]
        assert all(isinstance(v, str) for v in body["states"].values())
        assert body["precision"]["transfers"] > 0

    def test_wire_query_flags(self, server):
        status, body = post_wire(
            server,
            assemble(ACCEPTED).to_bytes(),
            path="/verify?ctx_size=32&precision=1",
        )
        assert status == 200
        assert body["ctx_size"] == 32
        assert body["precision"]["transfers"] > 0


class TestRejections:
    def test_bad_json_is_400(self, server):
        request = urllib.request.Request(
            server.url + "/verify",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        status, body = _send(request)
        assert status == 400
        assert_error_shape(body)
        assert body["error"]["code"] == "bad-json"

    def test_truncated_wire_is_400(self, server):
        status, body = post_wire(server, b"\xde\xad\xbe\xef")
        assert status == 400
        assert_error_shape(body)
        assert body["error"]["code"] == "bad-wire-format"

    def test_empty_wire_is_422(self, server):
        status, body = post_wire(server, b"")
        assert status in (400, 422)   # empty body: missing/empty program
        assert_error_shape(body)

    def test_missing_program_key_is_400(self, server):
        status, body = post_json(server, {"ctx_size": 64})
        assert status == 400
        assert_error_shape(body)
        assert body["error"]["code"] == "missing-program"

    def test_bad_ctx_size_is_422(self, server):
        status, body = post_json(
            server, hex_payload(ACCEPTED, ctx_size="enormous")
        )
        assert status == 422
        assert_error_shape(body)
        assert body["error"]["code"] == "bad-ctx-size"

    def test_rejections_counted_in_stats(self, server):
        post_wire(server, b"\x01\x02\x03")
        _, stats = get(server, "/stats")
        assert stats["service"]["rejections"] >= 1

    @pytest.mark.parametrize("length,status", [
        (None, 400), ("-1", 400), (str(MAX_BODY_BYTES + 1), 422),
    ])
    def test_body_limit_rejections_are_counted(self, server, length, status):
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=5)
        try:
            conn.putrequest("POST", "/verify")
            if length is not None:
                conn.putheader("Content-Length", length)
            conn.endheaders()
            assert conn.getresponse().status == status
        finally:
            conn.close()
        _, stats = get(server, "/stats")
        assert stats["service"]["rejections"] == 1

    def test_unknown_path_is_404(self, server):
        status, body = get(server, "/nope")
        assert status == 404
        assert_error_shape(body)


class TestReadEndpoints:
    def test_healthz(self, server):
        status, body = get(server, "/healthz")
        assert status == 200
        assert body["status"] == "ok"

    def test_verdict_lookup_hit(self, server):
        _, verdict = post_json(server, hex_payload(ACCEPTED))
        status, body = get(
            server, f"/verdict/{verdict['canonical_hash']}"
        )
        assert status == 200
        assert_verdict_shape(body)
        assert body["cached"] is True

    def test_verdict_lookup_miss_is_404(self, server):
        status, body = get(server, "/verdict/" + "0" * 64)
        assert status == 404
        assert_error_shape(body)
        assert body["error"]["code"] == "unknown-verdict"

    def test_stats_counts_cache_hits(self, server):
        post_json(server, hex_payload(ACCEPTED))
        post_json(server, hex_payload(ACCEPTED))
        status, stats = get(server, "/stats")
        assert status == 200
        service_stats = stats["service"]
        assert service_stats["requests"] >= 2
        assert service_stats["verifications"] == 1
        assert service_stats["cache"]["hits"] >= 1

    def test_metrics_exposition(self, server):
        post_json(server, hex_payload(ACCEPTED))
        request = urllib.request.Request(server.url + "/metrics")
        with urllib.request.urlopen(request, timeout=10) as response:
            text = response.read().decode()
        assert "repro_api_requests_total" in text
        assert "repro_api_cache_hits_total" in text


class TestFaultsEcho:
    """An armed chaos plan is visible on the service surface: operators
    must be able to tell a chaos run from an outage at a glance."""

    @pytest.fixture(autouse=True)
    def disarmed(self):
        from repro import faults
        faults.disarm()
        yield
        faults.disarm()

    def test_healthz_and_stats_echo_the_armed_plan(self, server):
        from repro import faults
        faults.arm("seed=11,service.verify.hang=0.25:0.1")
        _, health = get(server, "/healthz")
        assert health["faults"] == {
            "spec": "seed=11,service.verify.hang=0.25:0.1", "seed": 11,
        }
        _, stats = get(server, "/stats")
        assert stats["faults"]["seed"] == 11

    def test_no_echo_when_disarmed(self, server):
        _, health = get(server, "/healthz")
        assert "faults" not in health
        _, stats = get(server, "/stats")
        assert "faults" not in stats
