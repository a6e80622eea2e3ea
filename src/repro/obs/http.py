"""A tiny stdlib HTTP surface for daemon health, status and metrics.

Three read-only endpoints, enough for a load balancer probe, a human with
``curl``, or a Prometheus scrape job:

- ``GET /healthz`` — ``200 ok`` while the server is up.
- ``GET /status`` — the daemon's ``status()`` report as JSON.
- ``GET /metrics`` — the telemetry sink in Prometheus text exposition.

Built on :class:`http.server.ThreadingHTTPServer` so it needs nothing the
standard library doesn't ship; binds an ephemeral port by default (read
the bound address from :meth:`StatusServer.start`'s return value).
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

from repro.obs.exporter import encode_json

__all__ = ["StatusServer"]


class StatusServer:
    """Serve ``/healthz``, ``/status`` and ``/metrics`` from callables.

    ``status_fn`` returns the status dict; ``metrics_fn`` (optional)
    returns the Prometheus exposition text.  Handlers call them per
    request, so responses always reflect live state.
    """

    def __init__(
        self,
        status_fn: Callable[[], dict],
        metrics_fn: Callable[[], str] | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.status_fn = status_fn
        self.metrics_fn = metrics_fn
        self.host = host
        self.port = port
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int] | None:
        """``(host, port)`` once started, else None."""
        if self._server is None:
            return None
        return self._server.server_address[:2]

    def start(self) -> tuple[str, int]:
        """Bind and serve in a daemon thread; returns ``(host, port)``."""
        if self._server is not None:
            return self.address  # already running; idempotent

        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
                path = self.path.split("?", 1)[0]
                try:
                    if path == "/healthz":
                        self._send(200, "text/plain; charset=utf-8", "ok\n")
                    elif path == "/status":
                        body = encode_json(outer.status_fn()) + "\n"
                        self._send(200, "application/json", body)
                    elif path == "/metrics" and outer.metrics_fn is not None:
                        self._send(
                            200,
                            "text/plain; version=0.0.4; charset=utf-8",
                            outer.metrics_fn(),
                        )
                    else:
                        self._send(404, "text/plain; charset=utf-8", "not found\n")
                except Exception as exc:  # surface handler bugs to the client
                    self._send(500, "text/plain; charset=utf-8", f"error: {exc}\n")

            def _send(self, code: int, content_type: str, body: str) -> None:
                payload = body.encode("utf-8")
                self.send_response(code)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, *args) -> None:
                pass  # keep daemon stderr quiet

        self._server = ThreadingHTTPServer((self.host, self.port), Handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="autocomp-status-http",
            daemon=True,
        )
        self._thread.start()
        return self.address

    def stop(self) -> None:
        """Shut the server down and release the port (idempotent)."""
        server = self._server
        if server is None:
            return
        server.shutdown()
        server.server_close()
        self._server = None
        thread = self._thread
        if thread is not None:
            thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "StatusServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
