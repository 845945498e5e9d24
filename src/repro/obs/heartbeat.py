"""Heartbeat snapshots: the "what is this campaign doing *right now*" file.

Long campaigns publish a small JSON snapshot (round, programs/sec,
corpus size, violations, per-operator top-k) to ``heartbeat.json`` in
the obs directory after every round, and the open
:class:`~repro.obs.ObsSession` republishes the last one every
``interval_s`` in between.  The write is atomic (write-then-rename), so
a reader — ``repro stats``, the ``/stats`` endpoint, a dashboard
poller — never sees a torn file.

Staleness is an explicit part of the contract: every snapshot carries a
monotonic ``seq``, the publisher ``pid``, and its declared publish
``interval_s``.  A live publisher refreshes the file at that interval,
so a snapshot older than twice its declared interval means the
publisher died mid-run (worker crash, OOM-kill) and the numbers are
lies — :func:`staleness_warning` is how readers find out, instead of a
dashboard forever showing the last good round.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, Optional

__all__ = [
    "HEARTBEAT_SCHEMA_VERSION",
    "HeartbeatWriter",
    "read_heartbeat",
    "staleness_warning",
]

HEARTBEAT_SCHEMA_VERSION = 1


class HeartbeatWriter:
    """Publishes atomic heartbeat snapshots with sequence numbers.

    ``interval_s`` is the declared freshness contract recorded in every
    snapshot: the publisher writes at least once per interval while it
    lives, and readers treat ``2 * interval_s`` without a new snapshot
    as staleness.  Not thread-safe: concurrent publishers serialize
    around it (the session's heartbeat lock).
    """

    def __init__(
        self, path: "str | os.PathLike[str]", interval_s: float = 2.0
    ) -> None:
        self.path = Path(path)
        self.interval_s = interval_s
        self._seq = 0

    def publish(self, snapshot: Dict) -> None:
        """Write ``snapshot`` under the next ``seq`` and a fresh ``ts``."""
        self._seq += 1
        payload = {
            "schema_version": HEARTBEAT_SCHEMA_VERSION,
            "seq": self._seq,
            "pid": os.getpid(),
            "interval_s": self.interval_s,
            "ts": time.time(),
        }
        payload.update(snapshot)
        tmp = self.path.with_suffix(self.path.suffix + ".tmp")
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, self.path)


def read_heartbeat(path: "str | os.PathLike[str]") -> Dict:
    """Load a heartbeat snapshot (raises ``ValueError`` on bad schema)."""
    payload = json.loads(Path(path).read_text())
    version = payload.get("schema_version")
    if version != HEARTBEAT_SCHEMA_VERSION:
        raise ValueError(f"unsupported heartbeat schema {version!r}")
    return payload


def staleness_warning(
    payload: Dict, now: Optional[float] = None
) -> Optional[str]:
    """A human-readable warning when a snapshot has outlived its
    declared interval by 2x — the publisher is likely dead.

    The ``phase == "done"`` snapshot a session writes when it closes
    cleanly is final, not overdue, so it never warns.
    """
    if payload.get("phase") == "done":
        return None
    now = time.time() if now is None else now
    interval = float(payload.get("interval_s", 0.0))
    age = now - float(payload.get("ts", 0.0))
    if interval > 0 and age > 2 * interval:
        return (
            f"heartbeat is stale: last published {age:.1f}s ago by "
            f"pid {payload.get('pid')} (seq {payload.get('seq')}), more "
            f"than 2x its declared {interval:.1f}s interval — the "
            f"publisher has likely exited or crashed"
        )
    return None
