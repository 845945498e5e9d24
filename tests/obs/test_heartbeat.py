"""Heartbeat snapshots: sequencing, session refresh, staleness detection."""

from __future__ import annotations

import json
import os
import sys
import time

import pytest

from repro.obs import (
    HEARTBEAT_SCHEMA_VERSION,
    HeartbeatWriter,
    ObsSession,
    read_heartbeat,
    staleness_warning,
)


def test_publish_carries_seq_pid_and_interval(tmp_path):
    path = tmp_path / "heartbeat.json"
    writer = HeartbeatWriter(path, interval_s=0.5)
    writer.publish({"phase": "campaign", "round": 1})
    first = read_heartbeat(path)
    assert first["schema_version"] == HEARTBEAT_SCHEMA_VERSION
    assert first["seq"] == 1
    assert first["pid"] == os.getpid()
    assert first["interval_s"] == 0.5
    assert first["phase"] == "campaign"

    writer.publish({"phase": "campaign", "round": 2})
    second = read_heartbeat(path)
    assert second["seq"] == 2           # monotonic across publishes
    assert second["round"] == 2


def test_open_session_keeps_its_heartbeat_fresh(tmp_path):
    """Between round ends the session republishes the last snapshot,
    so a live process never reads as stale."""
    session = ObsSession(obs_dir=tmp_path, heartbeat_interval_s=0.2)
    try:
        session.publish_heartbeat({"phase": "campaign", "round": 1})
        first = read_heartbeat(tmp_path / "heartbeat.json")
        time.sleep(1.0)   # well past 2x the interval, no new snapshot
        later = read_heartbeat(tmp_path / "heartbeat.json")
        assert staleness_warning(later) is None
        assert later["seq"] > first["seq"]
        assert later["ts"] > first["ts"]
        assert later["uptime_s"] > first["uptime_s"]
        assert later["phase"] == "campaign" and later["round"] == 1
    finally:
        session.close()
    final = read_heartbeat(tmp_path / "heartbeat.json")
    assert final["phase"] == "done" and final["round"] == 1
    time.sleep(0.5)   # the refresher stopped with the session
    assert read_heartbeat(tmp_path / "heartbeat.json")["seq"] == final["seq"]


def test_refresh_never_republishes_a_replaced_snapshot(tmp_path):
    """Publishes race a refresher firing every millisecond; the shared
    lock keeps the file on the newest snapshot and every write whole."""
    path = tmp_path / "heartbeat.json"
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        session = ObsSession(obs_dir=tmp_path, heartbeat_interval_s=0.001)
        try:
            for n in range(1, 301):
                session.publish_heartbeat({"round": n})
                assert read_heartbeat(path)["round"] == n
        finally:
            session.close()
    finally:
        sys.setswitchinterval(switch)
    assert read_heartbeat(path)["round"] == 300


def test_publish_never_leaves_a_torn_file(tmp_path):
    path = tmp_path / "heartbeat.json"
    writer = HeartbeatWriter(path)
    writer.publish({"phase": "x"})
    # The write-then-rename protocol leaves no .tmp behind.
    assert list(tmp_path.iterdir()) == [path]


def test_read_heartbeat_rejects_unknown_schema(tmp_path):
    path = tmp_path / "heartbeat.json"
    path.write_text(json.dumps({"schema_version": 99}))
    with pytest.raises(ValueError):
        read_heartbeat(path)


def test_staleness_warning_after_twice_the_interval():
    payload = {"interval_s": 2.0, "ts": 1000.0, "pid": 7, "seq": 3}
    assert staleness_warning(payload, now=1003.9) is None
    warning = staleness_warning(payload, now=1004.1)
    assert warning is not None
    assert "stale" in warning
    assert "pid 7" in warning and "seq 3" in warning


def test_a_done_snapshot_is_never_stale():
    payload = {"interval_s": 2.0, "ts": 1000.0, "pid": 7, "seq": 3,
               "phase": "done"}
    assert staleness_warning(payload, now=1e9) is None
    assert staleness_warning(dict(payload, phase="campaign"), now=1e9)


def test_staleness_needs_a_declared_interval():
    # No interval declared (hand-written file): no liveness contract.
    assert staleness_warning({"ts": 0.0}, now=1e9) is None
