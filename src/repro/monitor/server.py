"""The monitoring endpoint: a stdlib HTTP server over live telemetry.

:class:`MonitorServer` serves four read-only views of a running active
system, each backed by state the telemetry layer already maintains:

* ``/metrics`` — Prometheus text exposition rendered from the metrics
  registry (plus the profiler's labelled families when one is wired);
* ``/health``  — liveness JSON (HTTP 200 while healthy, 503 once the
  system is closing), assembled by a caller-supplied callable;
* ``/spans``   — the trace ring's recent span trees as JSON, with the
  rendered ASCII form ``repro trace`` prints alongside;
* ``/graph``   — the event-graph snapshot (per-node occurrence counts
  per parameter context, subscriber lists, queue depths);
* ``/profile`` — the rule profiler's per-rule/per-node attribution;
* ``/trace/<trace_id>`` — one event's lifecycle reconstructed from the
  span ring: every span/point stamped with that trace id, as trees and
  rendered text.

The server is a ``ThreadingHTTPServer`` on a daemon thread: scrapes
never block rule execution, and an abandoned server cannot keep the
process alive. All handlers read snapshots; none mutate system state.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Optional
from urllib.parse import urlparse

from repro.monitor.profiler import RuleProfiler
from repro.monitor.prometheus import render_metrics
from repro.telemetry.processors import MetricsRegistry, TraceLogProcessor


class MonitorServer:
    """Serves the introspection endpoints for one active system."""

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        health: Optional[Callable[[], dict]] = None,
        trace: Optional[TraceLogProcessor] = None,
        graph: Optional[Callable[[], dict]] = None,
        profiler: Optional[RuleProfiler] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        prefix: str = "sentinel",
        extra_metrics: Optional[Callable[[], list[str]]] = None,
    ):
        self.registry = registry
        self.health = health
        self.trace = trace
        self.graph = graph
        self.profiler = profiler
        self.prefix = prefix
        #: callable returning extra exposition lines appended to
        #: ``/metrics`` at scrape time (e.g. the detached-queue
        #: families, which live outside the metrics registry)
        self.extra_metrics = extra_metrics
        monitor = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (stdlib casing)
                monitor._route(self)

            def log_message(self, *args) -> None:
                """Scrapes are high-frequency; stay quiet."""

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None
        self._closed = False

    # -- lifecycle ---------------------------------------------------------

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (the OS picks one when constructed with 0)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "MonitorServer":
        if self._closed:
            raise RuntimeError("monitor server already closed")
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name=f"sentinel-monitor:{self.port}",
                daemon=True,
            )
            self._thread.start()
        return self

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "MonitorServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- routing -----------------------------------------------------------

    def _route(self, request: BaseHTTPRequestHandler) -> None:
        path = urlparse(request.path).path.rstrip("/") or "/"
        try:
            if path == "/metrics":
                self._send(request, 200, self._metrics_text(),
                           "text/plain; version=0.0.4; charset=utf-8")
            elif path == "/health":
                data = self.health() if self.health is not None else {
                    "healthy": True
                }
                status = 200 if data.get("healthy", True) else 503
                self._send_json(request, status, data)
            elif path == "/spans":
                self._send_json(request, 200, self._spans())
            elif path.startswith("/trace/"):
                status, data = self._trace_view(path[len("/trace/"):])
                self._send_json(request, status, data)
            elif path == "/graph":
                if self.graph is None:
                    self._send_json(request, 404,
                                    {"error": "no event graph wired"})
                else:
                    self._send_json(request, 200, self.graph())
            elif path == "/profile":
                if self.profiler is None:
                    self._send_json(request, 404,
                                    {"error": "no profiler wired"})
                else:
                    self._send_json(request, 200, self.profiler.to_dict())
            elif path == "/":
                self._send_json(request, 200, {"endpoints": [
                    "/metrics", "/health", "/spans", "/graph", "/profile",
                    "/trace/<trace_id>",
                ]})
            else:
                self._send_json(request, 404, {"error": f"unknown {path}"})
        except Exception as error:  # a broken view must not kill the server
            try:
                self._send_json(request, 500, {"error": repr(error)})
            except Exception:
                pass

    def _metrics_text(self) -> str:
        registries = [self.registry] if self.registry is not None else []
        extra: list[str] = []
        if self.profiler is not None:
            extra.extend(self.profiler.prometheus_lines(self.prefix))
        if self.extra_metrics is not None:
            extra.extend(self.extra_metrics())
        return render_metrics(registries, prefix=self.prefix,
                              extra_lines=extra)

    def _spans(self) -> dict:
        if self.trace is None:
            return {"trees": [], "rendered": ""}
        events = self.trace.events()
        return {
            "trees": self.trace.trees(events),
            "rendered": self.trace.render(events),
            "buffered": len(events),
            "capacity": self.trace.capacity,
        }

    def _trace_view(self, trace_id: str) -> tuple[int, dict]:
        """One trace's lifecycle from the span ring (or 404)."""
        if self.trace is None:
            return 404, {"error": "no trace processor wired"}
        events = self.trace.for_trace(trace_id)
        if not events:
            return 404, {"error": f"no spans for trace {trace_id!r} "
                                  "(evicted from the ring, or never seen)"}
        return 200, {
            "trace_id": trace_id,
            "events": len(events),
            "trees": self.trace.trees(events),
            "rendered": self.trace.render(events),
        }

    # -- plumbing ----------------------------------------------------------

    @staticmethod
    def _send(request: BaseHTTPRequestHandler, status: int, body: str,
              content_type: str) -> None:
        payload = body.encode("utf-8")
        request.send_response(status)
        request.send_header("Content-Type", content_type)
        request.send_header("Content-Length", str(len(payload)))
        request.end_headers()
        request.wfile.write(payload)

    @classmethod
    def _send_json(cls, request: BaseHTTPRequestHandler, status: int,
                   data: dict) -> None:
        cls._send(request, status, json.dumps(data, sort_keys=True),
                  "application/json")
