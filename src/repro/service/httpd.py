"""Live telemetry over HTTP: /metrics, /healthz, /slowlog.

A stdlib :class:`http.server.ThreadingHTTPServer` on a daemon thread,
bound to a :class:`~repro.service.QueryService`:

``/metrics``
    The service's Prometheus text exposition (exactly
    :meth:`QueryService.metrics_text` -- the same bytes ``repro-datalog
    serve --metrics-out`` writes), content type
    ``text/plain; version=0.0.4``.

``/healthz``
    ``200 ok`` while the service accepts work, ``503 closed`` after
    :meth:`QueryService.close` -- the liveness/readiness answer a
    probe wants, JSON body with queue depth and in-flight count.

``/slowlog?n=K``
    The newest ``K`` recorded (sampled or slow) requests' records as a
    JSON array, oldest first (default: every one the service keeps):
    :meth:`QueryService.slowlog`, each record's ``trace`` a span tree
    ``Tracer.from_dict`` loads.

Bind with ``port=0`` for an ephemeral port (tests and the CI smoke do)
and read the chosen one back from :attr:`ServiceHTTPD.port`.  The
server serves each request from its own thread, so a scrape never
blocks a request being served -- the exporters only take the metrics locks.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qs, urlparse

__all__ = ["ServiceHTTPD"]

#: The Prometheus text exposition content type (scrapers sniff this).
_METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class _Handler(BaseHTTPRequestHandler):
    # The bound service is attached to the *server* (one handler
    # instance exists per request, the server persists).
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args) -> None:
        # Probes hit /healthz every few seconds; stderr noise helps
        # nobody.  Errors still surface through the response codes.
        pass

    def _reply(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        service = self.server.service  # type: ignore[attr-defined]
        url = urlparse(self.path)
        if url.path == "/metrics":
            body = service.metrics_text().encode("utf-8")
            self._reply(200, body, _METRICS_CONTENT_TYPE)
            return
        if url.path == "/healthz":
            closed = getattr(service, "_closed", False)
            payload = {
                "status": "closed" if closed else "ok",
                "queue_depth": service.metrics.queue_depth,
                "in_flight": service.metrics.in_flight,
            }
            body = (json.dumps(payload, sort_keys=True) + "\n").encode(
                "utf-8"
            )
            self._reply(
                503 if closed else 200, body, "application/json"
            )
            return
        if url.path == "/slowlog":
            n: Optional[int] = None
            raw = parse_qs(url.query).get("n", [])
            if raw:
                try:
                    n = max(0, int(raw[0]))
                except ValueError:
                    self._reply(
                        400,
                        b'{"error": "n must be an integer"}\n',
                        "application/json",
                    )
                    return
            body = (
                json.dumps(service.slowlog(n), sort_keys=True) + "\n"
            ).encode("utf-8")
            self._reply(200, body, "application/json")
            return
        self._reply(404, b'{"error": "not found"}\n', "application/json")


class ServiceHTTPD:
    """One telemetry HTTP server bound to one query service.

    Use as a context manager or call :meth:`start`/:meth:`stop`.  The
    serving thread is a daemon, so a process exiting mid-scrape does
    not hang; :meth:`stop` shuts the listener down cleanly.
    """

    def __init__(
        self,
        service,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self._server = ThreadingHTTPServer((host, port), _Handler)
        self._server.daemon_threads = True
        self._server.service = service  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (the ephemeral one when constructed with 0)."""
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ServiceHTTPD":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._server.serve_forever,
                name="repro-service-httpd",
                daemon=True,
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "ServiceHTTPD":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
