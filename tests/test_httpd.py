"""The shared HTTP contract, held against every server built on repro.httpd.

The verification service, the campaign coordinator and the obs stats
endpoint must answer the same way wherever the scaffold decides: unknown
routes, routes that raise, body limits and stalled clients.  Response
checks are tolerant: they assert the keys the contract names and ignore
anything extra, so a server may grow additive fields.
"""

from __future__ import annotations

import http.client
import json
import socket
import time

import pytest

from repro.api import ApiServer, VerificationService
from repro.api.dist import MAX_RESULT_BODY_BYTES, CoordinatorApi
from repro.api.server import MAX_BODY_BYTES
from repro.fuzz import CampaignSpec, Coordinator
from repro.obs import StatsServer

#: Short enough to keep the idle-client test fast, long enough that a
#: server which wrongly waits for a body is caught by the 1 s client.
SOCKET_TIMEOUT_S = 2.0


def _boom(*_args, **_kwargs):
    raise RuntimeError("boom")


def _api(tmp_path, monkeypatch):
    service = VerificationService(workers=1)
    monkeypatch.setattr(service, "lookup", _boom)
    server = ApiServer(service, socket_timeout_s=SOCKET_TIMEOUT_S)
    return server, "/verdict/" + "0" * 64, service.close


def _coordinator(tmp_path, monkeypatch):
    coordinator = Coordinator(
        CampaignSpec(budget=4, rounds=1, seed=1, workers=1),
        tmp_path / "state",
    )
    monkeypatch.setattr(coordinator, "round_info", _boom)
    server = CoordinatorApi(coordinator, socket_timeout_s=SOCKET_TIMEOUT_S)
    return server, "/round", None


def _stats(tmp_path, monkeypatch):
    server = StatsServer(_boom)   # registry_fn raises on every request
    server.socket_timeout_s = SOCKET_TIMEOUT_S
    return server, "/metrics", None


SURFACES = {"api": _api, "coordinator": _coordinator, "stats": _stats}

#: (surface, POST route, its body limit, the 422 code past the limit)
POST_ROUTES = [
    ("api", "/verify", MAX_BODY_BYTES, "program-too-large"),
    ("coordinator", "/lease", MAX_RESULT_BODY_BYTES, "body-too-large"),
    ("coordinator", "/result", MAX_RESULT_BODY_BYTES, "body-too-large"),
]


@pytest.fixture
def serve(tmp_path, monkeypatch):
    started = []

    def start(name):
        server, raising_path, close = SURFACES[name](tmp_path, monkeypatch)
        started.append((server.start(), close))
        return server, raising_path

    yield start
    for server, close in started:
        server.stop()
        if close is not None:
            close()


def _connect(server, timeout=5.0):
    return http.client.HTTPConnection("127.0.0.1", server.port,
                                      timeout=timeout)


def _read(conn):
    response = conn.getresponse()
    return response.status, json.loads(response.read())


def _post_headers_only(server, path, headers, timeout=1.0):
    """POST ``headers`` and no body; the answer must come within 1 s."""
    conn = _connect(server, timeout=timeout)
    try:
        conn.putrequest("POST", path)
        for name, value in headers.items():
            conn.putheader(name, value)
        conn.endheaders()
        return _read(conn)
    finally:
        conn.close()


def assert_envelope(body, code):
    assert isinstance(body["schema_version"], int)
    assert body["error"]["code"] == code
    assert isinstance(body["error"]["message"], str)
    assert body["error"]["message"]


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_unknown_route_is_a_404_envelope_on_a_kept_alive_connection(
    serve, name
):
    server, _ = serve(name)
    conn = _connect(server)
    try:
        for _ in range(2):   # HTTP/1.1: the connection survives the 404
            conn.request("GET", "/nope")
            status, body = _read(conn)
            assert status == 404
            assert_envelope(body, "not-found")
    finally:
        conn.close()


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_a_raising_route_is_a_500_envelope(serve, name):
    server, raising_path = serve(name)
    conn = _connect(server)
    try:
        conn.request("GET", raising_path)
        status, body = _read(conn)
    finally:
        conn.close()
    assert status == 500
    assert_envelope(body, "internal-error")
    assert "boom" in body["error"]["message"]


@pytest.mark.parametrize("name,path,_limit,_code", POST_ROUTES)
def test_missing_content_length_is_400(serve, name, path, _limit, _code):
    server, _ = serve(name)
    status, body = _post_headers_only(server, path, {})
    assert status == 400
    assert_envelope(body, "missing-body")


@pytest.mark.parametrize("name,path,_limit,_code", POST_ROUTES)
def test_negative_content_length_is_400_without_reading(
    serve, name, path, _limit, _code
):
    # Read as "until EOF", -1 used to pin the handler thread until the
    # client hung up or the socket timed out.
    server, _ = serve(name)
    status, body = _post_headers_only(server, path, {"Content-Length": "-1"})
    assert status == 400
    assert_envelope(body, "missing-body")


@pytest.mark.parametrize("name,path,limit,code", POST_ROUTES)
def test_oversize_body_is_422_without_reading(serve, name, path, limit, code):
    server, _ = serve(name)
    status, body = _post_headers_only(server, path,
                                      {"Content-Length": str(limit + 1)})
    assert status == 422
    assert_envelope(body, code)


@pytest.mark.parametrize("name", sorted(SURFACES))
def test_a_silent_client_is_dropped_after_the_socket_timeout(serve, name):
    server, _ = serve(name)
    with socket.create_connection(("127.0.0.1", server.port)) as sock:
        sock.settimeout(SOCKET_TIMEOUT_S + 10)
        started = time.monotonic()
        assert sock.recv(1) == b""   # closed by the server, nothing sent
        elapsed = time.monotonic() - started
    assert SOCKET_TIMEOUT_S - 0.5 <= elapsed < SOCKET_TIMEOUT_S + 5


@pytest.mark.parametrize("name,path,_limit,_code", POST_ROUTES[:2])
def test_a_client_stalled_mid_body_is_dropped_unanswered(
    serve, name, path, _limit, _code
):
    # The read times out: there is no one to answer, so no 500 either.
    server, _ = serve(name)
    with socket.create_connection(("127.0.0.1", server.port)) as sock:
        sock.sendall(f"POST {path} HTTP/1.1\r\nHost: x\r\n"
                     f"Content-Length: 10\r\n\r\n{{}}".encode())
        sock.settimeout(SOCKET_TIMEOUT_S + 10)
        assert sock.recv(1) == b""
