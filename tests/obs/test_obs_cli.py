"""The --obs-* flags and the ``repro stats`` subcommand, end to end."""

from __future__ import annotations

import json
import time

import pytest

from repro.cli import main
from repro.obs import HeartbeatWriter


@pytest.fixture
def obs_dir(tmp_path, capsys):
    """A populated --obs-dir from a tiny real campaign run."""
    target = tmp_path / "obs"
    rc = main([
        "campaign", "--budget", "10", "--rounds", "2", "--seed", "4",
        "--obs-dir", str(target), "--obs-sample", "1.0",
    ])
    assert rc == 0
    capsys.readouterr()
    return target


def test_campaign_obs_dir_writes_all_artifacts(obs_dir):
    assert (obs_dir / "trace.jsonl").exists()
    assert (obs_dir / "metrics.json").exists()
    assert (obs_dir / "heartbeat.json").exists()


def test_stats_renders_tables_and_validates(obs_dir, capsys):
    rc = main(["stats", str(obs_dir), "--validate"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "heartbeat:" in out and "phase=done" in out
    assert "oracle.programs" in out
    assert "verifier time by operator" in out
    assert "campaign.round" in out
    assert "schema-valid" in out


def test_stats_json_payload(obs_dir, capsys):
    rc = main(["stats", str(obs_dir), "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["metrics"]["counters"]["oracle.programs"] >= 10
    assert payload["heartbeat"]["phase"] == "done"


def test_stats_validate_fails_on_corrupt_trace(obs_dir, capsys):
    with open(obs_dir / "trace.jsonl", "a") as handle:
        handle.write(json.dumps({"v": 1, "kind": "bogus"}) + "\n")
    rc = main(["stats", str(obs_dir), "--validate"])
    captured = capsys.readouterr()
    assert rc == 1
    assert "invalid record" in captured.err


def test_stats_warns_on_stale_heartbeat(tmp_path, capsys):
    HeartbeatWriter(tmp_path / "heartbeat.json", interval_s=0.05).publish(
        {"phase": "campaign", "round": 1}
    )
    time.sleep(0.15)
    rc = main(["stats", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "WARN:" in out and "stale" in out


def test_stats_never_warns_on_a_done_heartbeat(tmp_path, capsys):
    # A cleanly closed session's last snapshot is final, not overdue.
    HeartbeatWriter(tmp_path / "heartbeat.json", interval_s=0.05).publish(
        {"phase": "done", "round": 2}
    )
    time.sleep(0.15)   # > 2x the declared interval
    rc = main(["stats", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "phase=done" in out
    assert "WARN:" not in out


def test_stats_rejects_missing_directory(tmp_path, capsys):
    rc = main(["stats", str(tmp_path / "nope")])
    assert rc == 2
    assert "not a directory" in capsys.readouterr().err


def test_fuzz_obs_dir(tmp_path, capsys):
    target = tmp_path / "obs"
    rc = main([
        "fuzz", "--budget", "8", "--seed", "2",
        "--obs-dir", str(target),
    ])
    assert rc == 0
    heartbeat = json.loads((target / "heartbeat.json").read_text())
    assert heartbeat["phase"] == "done"
    assert heartbeat["executed"] == 8
    metrics = json.loads((target / "metrics.json").read_text())
    assert metrics["counters"]["oracle.programs"] >= 8
