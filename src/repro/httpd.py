"""The one HTTP scaffold: a route table on a stdlib ``ThreadingHTTPServer``.

The verification service (:class:`repro.api.server.ApiServer`), the
campaign coordinator (:class:`repro.api.dist.CoordinatorApi`) and the
obs stats endpoint (:class:`repro.obs.server.StatsServer`) are
:class:`HttpServer` subclasses that supply only their routes.  This
module imports nothing from ``repro``, so ``repro.obs`` can use it too.
The contract they share, stated once:

* **Lifecycle.**  :meth:`HttpServer.start` binds (``port=0`` picks an
  ephemeral port, read back from :attr:`HttpServer.port`) and serves
  HTTP/1.1 keep-alive on a daemon thread; :meth:`HttpServer.stop`
  shuts it down.  Request logs never reach stderr.
* **Routes.**  A table maps ``"METHOD /path"`` to a callable taking a
  :class:`Request`; a key ending in ``/`` also matches every path under
  it.  A route returns a JSON object (rendered ``indent=2``, sorted
  keys, trailing newline) or a :class:`Text` as a 200.
* **Errors.**  Anything else is an :class:`HttpError`, rendered as the
  envelope ``{"schema_version": 1, "error": {"code": ..., "message":
  ...}}`` plus the error's headers (``Retry-After`` on a 503).  An
  unknown route is **404** ``not-found``; any other exception a route
  raises is **500** ``internal-error`` — never a traceback on the wire.
* **Body limits.**  :meth:`Request.body` reads nothing until the
  declared ``Content-Length`` checks out: missing, malformed or
  negative is **400** ``missing-body``; above the server's
  ``max_body_bytes`` (0 unless it takes bodies) is **422** with the
  server's ``too_large_code``.
* **Socket timeout.**  Every connection carries ``socket_timeout_s``
  (default 30 s): a client that stops sending, or never sends, cannot
  pin a handler thread.
"""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional, TypeVar, Union
from urllib.parse import parse_qsl, urlsplit

__all__ = [
    "DEFAULT_SOCKET_TIMEOUT_S",
    "HttpError",
    "HttpServer",
    "Request",
    "Text",
    "error_payload",
]

#: Per-connection socket timeout: a client that stops sending (or
#: reading) cannot pin a handler thread forever.
DEFAULT_SOCKET_TIMEOUT_S = 30.0


def error_payload(code: str, message: str) -> Dict[str, Any]:
    """The error envelope: clients switch on ``code``, never on prose."""
    return {"schema_version": 1, "error": {"code": code, "message": message}}


class HttpError(Exception):
    """A request answered with the error envelope instead of a 200.

    ``code`` is a stable kebab-case identifier; ``str(err)`` stays the
    human-readable message; ``headers`` ride along on the response.
    """

    def __init__(self, status: int, code: str, message: str,
                 headers: Optional[Dict[str, str]] = None) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message
        self.headers = headers or {}

    def to_payload(self) -> Dict[str, str]:
        return {"code": self.code, "message": self.message}


class Text(str):
    """A 200 rendered as Prometheus exposition text instead of JSON."""


Route = Callable[["Request"], Union[Dict[str, Any], Text]]
_S = TypeVar("_S", bound="HttpServer")


class Request:
    """One request as a route sees it: method, path, query, headers, body."""

    def __init__(self, handler: "_Handler") -> None:
        parts = urlsplit(handler.path)
        self.method = handler.command
        self.path = parts.path
        self.query = dict(parse_qsl(parts.query))
        self.headers = handler.headers
        self._handler = handler

    def body(self) -> bytes:
        """The body, read only once its declared length is acceptable."""
        app = self._handler.server.app
        declared = (self.headers.get("Content-Length") or "").strip()
        if not declared.isdecimal():   # missing, malformed or negative
            raise HttpError(
                400, "missing-body",
                f"{self.method} {self.path} requires a Content-Length body",
            )
        length = int(declared)
        if length > app.max_body_bytes:
            raise HttpError(
                422, app.too_large_code,
                f"request body is {length} bytes; the limit is "
                f"{app.max_body_bytes}",
            )
        return self._handler.rfile.read(length)

    def json(self) -> Any:
        """The body as any JSON value; 400 ``bad-json`` if it is not JSON."""
        body = self.body()
        try:
            return json.loads(body.decode("utf-8"))
        except ValueError as exc:
            raise HttpError(
                400, "bad-json", f"request body is not JSON: {exc}"
            ) from exc


class HttpServer:
    """Serve a route table over HTTP on a daemon thread."""

    def __init__(
        self,
        routes: Dict[str, Route],
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        thread_name: str,
        socket_timeout_s: float = DEFAULT_SOCKET_TIMEOUT_S,
        max_body_bytes: int = 0,
        too_large_code: str = "body-too-large",
    ) -> None:
        self._routes = routes
        self.host = host
        self.socket_timeout_s = socket_timeout_s
        self.max_body_bytes = max_body_bytes
        self.too_large_code = too_large_code
        self._requested_port = port
        self._thread_name = thread_name
        self._httpd: Optional[_Server] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def port(self) -> int:
        if self._httpd is None:
            return self._requested_port
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self: _S) -> _S:
        self._httpd = _Server((self.host, self._requested_port), _Handler)
        self._httpd.app = self
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=self._thread_name,
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def _route(self, method: str, path: str) -> Route:
        key = f"{method} {path}"
        route = self._routes.get(key)
        if route is not None:
            return route
        for prefix, route in self._routes.items():
            if prefix.endswith("/") and key.startswith(prefix):
                return route
        raise HttpError(404, "not-found", f"no such route: {path}")


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    app: HttpServer


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: _Server

    def setup(self) -> None:
        super().setup()
        # A stalled client trips this and the handler thread is reclaimed.
        self.connection.settimeout(self.server.app.socket_timeout_s)

    def _dispatch(self) -> None:
        request, status = Request(self), 200
        headers: Dict[str, str] = {}
        try:
            reply = self.server.app._route(self.command, request.path)(request)
        except HttpError as exc:
            status, reply = exc.status, error_payload(exc.code, exc.message)
            headers = exc.headers
        except (socket.timeout, ConnectionError):
            raise   # the connection itself failed: nothing to answer on
        except Exception as exc:  # never a traceback on the wire
            status, reply = 500, error_payload("internal-error", str(exc))
        if isinstance(reply, Text):
            body, ctype = str(reply), "text/plain; version=0.0.4"
        else:
            body = json.dumps(reply, indent=2, sort_keys=True) + "\n"
            ctype = "application/json"
        data = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(data)))
        for name, value in headers.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(data)

    do_GET = do_POST = _dispatch  # the route table decides what exists

    def log_message(self, format: str, *args: Any) -> None:
        pass  # request logs go through obs, not stderr
