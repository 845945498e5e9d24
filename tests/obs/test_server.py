"""The /metrics and /stats endpoints, served from a background thread."""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.obs import HeartbeatWriter, Registry, StatsServer


@pytest.fixture
def registry() -> Registry:
    reg = Registry()
    reg.counter("oracle.programs").inc(12)
    reg.add_op_time("verifier", "mul64", 2_000_000)
    return reg


def _get(url: str) -> str:
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.read().decode("utf-8")


def test_metrics_endpoint_serves_prometheus_text(registry):
    server = StatsServer(lambda: registry).start()
    try:
        body = _get(server.url + "/metrics")
    finally:
        server.stop()
    assert "repro_oracle_programs_total 12" in body
    assert 'repro_verifier_op_seconds_total{op="mul64"} 0.002' in body


def test_stats_endpoint_embeds_heartbeat_and_staleness(tmp_path, registry):
    HeartbeatWriter(tmp_path / "heartbeat.json", interval_s=0.05).publish(
        {"phase": "campaign", "round": 1}, force=True
    )
    time.sleep(0.15)   # > 2x the declared interval: snapshot is now stale
    server = StatsServer(lambda: registry, obs_dir=tmp_path).start()
    try:
        payload = json.loads(_get(server.url + "/stats"))
    finally:
        server.stop()
    assert payload["metrics"]["counters"]["oracle.programs"] == 12
    assert payload["heartbeat"]["phase"] == "campaign"
    assert "stale" in payload


def test_unknown_route_is_404(registry):
    server = StatsServer(lambda: registry).start()
    try:
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(server.url + "/nope")
        assert excinfo.value.code == 404
        body = json.loads(excinfo.value.read())
    finally:
        server.stop()
    # The repo-wide error envelope, not plain text.
    assert body["schema_version"] == 1
    assert body["error"]["code"] == "not-found"
    assert isinstance(body["error"]["message"], str)


def test_live_registry_mutations_are_visible(registry):
    # registry_fn is consulted per request, not captured at start().
    server = StatsServer(lambda: registry).start()
    try:
        registry.counter("oracle.programs").inc(8)
        body = _get(server.url + "/metrics")
    finally:
        server.stop()
    assert "repro_oracle_programs_total 20" in body
