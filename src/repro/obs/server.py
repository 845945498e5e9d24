"""Live stats endpoint: two routes on the :mod:`repro.httpd` scaffold.

Serves, from the standard library only:

* ``GET /metrics`` — the registry in Prometheus text exposition format;
* ``GET /stats``   — JSON: the latest heartbeat snapshot (with a
  ``stale`` warning field when the publisher looks dead) plus the
  registry snapshot.

The server binds ``127.0.0.1`` by default — this is an operator
diagnostic port, not a public API — and ``port=0`` picks an ephemeral
port, exposed via :attr:`StatsServer.port` after :meth:`start`.
Serving runs on a daemon thread, so a crashed campaign never hangs on
its own diagnostics.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, Optional

from repro.httpd import HttpServer, Text

from .heartbeat import read_heartbeat, staleness_warning
from .metrics import Registry

__all__ = ["StatsServer"]


class StatsServer(HttpServer):
    """Serve ``/metrics`` and ``/stats`` for a registry + obs directory.

    ``registry_fn`` is called per request so the live (mutating)
    registry is always what renders; ``obs_dir`` (optional) supplies the
    heartbeat file the ``/stats`` payload embeds.
    """

    def __init__(
        self,
        registry_fn: Callable[[], Registry],
        obs_dir: Optional["str | Path"] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._registry_fn = registry_fn
        self._obs_dir = Path(obs_dir) if obs_dir is not None else None
        super().__init__(
            {
                "GET /metrics": lambda _request: Text(
                    registry_fn().render_prometheus()
                ),
                "GET /stats": lambda _request: self.stats_payload(),
            },
            host, port,
            thread_name="repro-obs-stats",
        )

    # -- payloads -----------------------------------------------------------

    def stats_payload(self) -> Dict:
        payload: Dict = {"metrics": self._registry_fn().to_dict()}
        heartbeat_path = (
            self._obs_dir / "heartbeat.json"
            if self._obs_dir is not None
            else None
        )
        if heartbeat_path is not None and heartbeat_path.exists():
            try:
                heartbeat = read_heartbeat(heartbeat_path)
            except (ValueError, OSError) as exc:
                payload["heartbeat_error"] = str(exc)
            else:
                payload["heartbeat"] = heartbeat
                warning = staleness_warning(heartbeat)
                if warning:
                    payload["stale"] = warning
        return payload
