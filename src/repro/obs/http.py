"""Standalone metrics endpoint for long CLI runs and remote workers.

:func:`start_metrics_server` binds a tiny stdlib HTTP server in a
daemon thread serving

* ``GET /metrics`` — Prometheus text exposition of the installed
  telemetry sinks, the :class:`~repro.telemetry.ProgressEngine` and the
  :class:`~repro.telemetry.Recorder` (both read at request time, so a
  scrape mid-run sees live state), and
* ``GET /status``  — the same state as one JSON document (what
  ``repro top`` and ``repro status`` poll).

The server never touches the run: handlers only *read* engine/recorder
snapshots under their own locks.  The service HTTP server exposes the
same two routes (see :mod:`repro.service.server`); this module is for
``estimate`` / ``compare`` / ``worker`` processes that otherwise have no
HTTP surface.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Tuple

from repro.obs.prometheus import render_exposition
from repro.telemetry import context as _telemetry

EXPOSITION_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def obs_status(engine=None, recorder=None) -> dict:
    """One JSON-able document with everything a dashboard needs."""
    if engine is None:
        engine = _telemetry.get_engine()
    if recorder is None:
        recorder = _telemetry.get_active()
    status = {"snapshot": None, "counters": {}, "gauges": {}}
    if engine is not None:
        status["snapshot"] = engine.snapshot()
    if recorder is not None:
        with recorder._lock:
            status["counters"] = dict(recorder.counters)
            status["gauges"] = {
                name: value
                for name, value in recorder.gauges.items()
                if isinstance(value, (int, float))
            }
    return status


class _MetricsHandler(BaseHTTPRequestHandler):
    server_version = "repro-obs/1.0"

    def log_message(self, fmt, *args):  # pragma: no cover - silence stderr
        pass

    def _send(self, code: int, content_type: str, body: bytes) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self):  # noqa: N802 - stdlib handler naming
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/metrics":
            text = render_exposition(
                engine=_telemetry.get_engine(),
                recorder=_telemetry.get_active(),
            )
            self._send(200, EXPOSITION_CONTENT_TYPE, text.encode())
        elif path in ("/status", "/"):
            body = json.dumps(obs_status()).encode()
            self._send(200, "application/json", body)
        else:
            self._send(404, "application/json",
                       json.dumps({"error": "not found"}).encode())


class MetricsServer:
    """A bound-and-serving metrics endpoint (daemon thread)."""

    def __init__(self, host: str, port: int):
        self._httpd = ThreadingHTTPServer((host, port), _MetricsHandler)
        self._httpd.daemon_threads = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-metrics",
            daemon=True,
        )
        self._thread.start()

    @property
    def address(self) -> Tuple[str, int]:
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def close(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "MetricsServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def start_metrics_server(
    port: int, host: str = "127.0.0.1"
) -> MetricsServer:
    """Bind and start serving ``/metrics`` + ``/status`` immediately."""
    return MetricsServer(host, int(port))
