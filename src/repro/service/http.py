"""Stdlib-only asyncio HTTP front end for the analysis service.

One ``asyncio.start_server`` accept loop, hand-rolled HTTP/1.1
parsing (request line, headers, ``Content-Length`` bodies,
keep-alive), and a small route table over
:class:`~repro.service.server.AnalysisService`::

    POST /submit-run        {property, size?, threads?, seed?, wait?}
    POST /analyze           {run, threshold?, wait?}
    POST /diff              {before, after, threshold?, wait?}
    POST /campaign          {properties?, size?, threads?, seed?, wait?}
    POST /synth             {spec, threshold?, timeout?, retries?, wait?}
    POST /export            {runs?, csv?, wait?}  ground-truth dataset
    GET  /history[?wait=0]  archive manifest as an async job
    GET  /jobs/<id>         poll one job (state, result when done)
    GET  /status            live service snapshot (JSON)
    GET  /dashboard         self-refreshing HTML status page
    GET  /metrics           Prometheus text exposition
    GET  /metrics.json      JSON metrics snapshot (with quantiles)
    GET  /healthz           liveness probe
    POST /drain             stop intake, wait for in-flight to finish

Submissions return ``202 {"job": ...}`` immediately; with
``wait`` truthy (query string or body) the response blocks until the
job resolves and carries the result inline -- that is how perfbench's
service workload measures end-to-end latency without poll noise.
Rate-limited tenants get ``429`` with a ``Retry-After`` header; a
draining service answers ``503`` to every submission.

Every request gets a request id (``X-Request-Id`` header in and out,
generated when absent) that the service propagates into job records
and obs spans -- the tracing thread that ties an HTTP accept to its
executor cell and archive cache activity.

:func:`run_service_in_thread` runs the whole loop on a daemon thread
and returns a handle with the bound port -- how tests and
``ats serve --watch`` host the server without blocking.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import math
import sys
import threading
import time
from typing import Optional, Tuple

from ..obs.export import to_json_str, to_prometheus
from ..obs.instruments import service_metrics
from ..obs.spans import span_log, spans_enabled
from .breaker import BreakerOpen
from .dashboard import render_html
from .server import (
    AnalysisService,
    JobError,
    RateLimited,
    ServiceDraining,
)

__all__ = ["ServiceHTTP", "ServiceHandle", "run_service_in_thread"]

_MAX_BODY = 1 << 20
_request_ids = itertools.count(1)

#: POST route -> job kind.
_SUBMIT_ROUTES = {
    "/submit-run": "run",
    "/analyze": "analyze",
    "/diff": "diff",
    "/campaign": "campaign",
    "/synth": "synth",
    "/export": "export",
}


def _json_bytes(payload: dict) -> bytes:
    return (json.dumps(payload) + "\n").encode("utf-8")


def _chaos_injector():
    mod = sys.modules.get("repro.chaos.inject")
    return None if mod is None else mod.active()


class _Request:
    __slots__ = (
        "method", "path", "query", "headers", "body", "request_id",
        "keep_alive",
    )

    def __init__(self, method, path, query, headers, body):
        self.method = method
        self.path = path
        self.query = query
        self.headers = headers
        self.body = body
        self.request_id = headers.get(
            "x-request-id", f"req-{next(_request_ids):06d}"
        )
        if headers.get("connection", "").lower() == "close":
            self.keep_alive = False
        else:
            self.keep_alive = True

    def tenant(self) -> str:
        return self.headers.get("x-tenant", "default")

    def deadline(self) -> Optional[float]:
        """Client deadline in seconds, from ``X-Deadline-Ms``.

        The header wins; a ``deadline`` body key (seconds) is the
        JSON-only fallback.  Malformed or non-positive values raise
        :class:`~repro.service.server.JobError` (a 400), because a
        silently-dropped deadline is worse than a rejected request.
        """
        raw = self.headers.get("x-deadline-ms")
        if raw is not None:
            try:
                value = float(raw) / 1000.0
            except ValueError:
                raise JobError(
                    f"X-Deadline-Ms is not a number: {raw!r}"
                ) from None
        elif isinstance(self.body, dict) and "deadline" in self.body:
            try:
                value = float(self.body["deadline"])
            except (TypeError, ValueError):
                raise JobError(
                    "deadline must be a number of seconds"
                ) from None
        else:
            return None
        if value <= 0:
            raise JobError("deadline must be positive")
        return value

    def flag(self, name: str, default: bool = False) -> bool:
        raw = self.query.get(name)
        if raw is not None:
            return raw not in ("0", "false", "no", "")
        if isinstance(self.body, dict) and name in self.body:
            return bool(self.body[name])
        return default

    def json(self) -> dict:
        return self.body if isinstance(self.body, dict) else {}


class ServiceHTTP:
    """The asyncio HTTP server wrapping one :class:`AnalysisService`."""

    def __init__(
        self,
        service: AnalysisService,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, backlog=1024
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self, drain: bool = True) -> None:
        """Graceful shutdown: stop intake, drain, close the listener."""
        if drain:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, self.service.drain, 30.0)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                status, payload, headers = await self._route(request)
                await self._respond(writer, request, status, payload,
                                    headers)
                if not request.keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _read_request(self, reader) -> Optional[_Request]:
        line = await reader.readline()
        if not line:
            return None
        try:
            method, target, _version = (
                line.decode("latin-1").strip().split(" ", 2)
            )
        except ValueError:
            return None
        headers = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        path, _, raw_query = target.partition("?")
        query = {}
        for pair in raw_query.split("&"):
            if pair:
                key, _, value = pair.partition("=")
                query[key] = value
        body = None
        length = int(headers.get("content-length", 0) or 0)
        if length:
            if length > _MAX_BODY:
                raise ConnectionError("body too large")
            raw_body = await reader.readexactly(length)
            try:
                body = json.loads(raw_body)
            except ValueError:
                body = {"_malformed": True}
        return _Request(method, path, query, headers, body)

    async def _respond(
        self, writer, request, status: int, payload, headers: dict
    ) -> None:
        injector = _chaos_injector()
        if injector is not None and injector.drop_connection():
            # chaos: tear the socket down before the response bytes
            # leave -- the client sees a reset mid-request.
            writer.transport.abort()
            raise ConnectionResetError("chaos: connection dropped")
        if isinstance(payload, (dict, list)):
            body = _json_bytes(payload)
            ctype = "application/json"
        else:
            body = payload if isinstance(payload, bytes) else (
                str(payload).encode("utf-8")
            )
            ctype = headers.pop("Content-Type", "text/plain")
        reason = {
            200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            429: "Too Many Requests", 500: "Internal Server Error",
            503: "Service Unavailable",
        }.get(status, "OK")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {ctype}",
            f"Content-Length: {len(body)}",
            f"X-Request-Id: {request.request_id}",
            "Connection: " + (
                "keep-alive" if request.keep_alive else "close"
            ),
        ]
        for name, value in headers.items():
            lines.append(f"{name}: {value}")
        writer.write(
            ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body
        )
        await writer.drain()

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    async def _route(self, request) -> Tuple[int, object, dict]:
        t0 = time.monotonic()
        endpoint, handler = self._dispatch(request)
        try:
            status, payload, headers = await handler(request)
        except RateLimited as exc:
            status = 429
            payload = {"error": str(exc),
                       "retry_after": exc.retry_after}
            headers = {"Retry-After": str(
                max(1, math.ceil(exc.retry_after))
            )}
        except BreakerOpen as exc:
            status = 503
            payload = {"error": str(exc),
                       "retry_after": exc.retry_after}
            headers = {"Retry-After": str(
                max(1, math.ceil(exc.retry_after))
            )}
        except ServiceDraining as exc:
            status, payload, headers = 503, {"error": str(exc)}, {}
        except JobError as exc:
            status, payload, headers = 400, {"error": str(exc)}, {}
        except Exception as exc:  # noqa: BLE001 - boundary
            status = 500
            payload = {"error": f"{type(exc).__name__}: {exc}"}
            headers = {}
        self._observe(endpoint, status, t0, request)
        return status, payload, headers

    def _dispatch(self, request):
        method, path = request.method, request.path
        if method == "POST" and path in _SUBMIT_ROUTES:
            return path.lstrip("/"), self._handle_submit
        if method == "GET":
            if path == "/history":
                return "history", self._handle_history
            if path.startswith("/jobs/"):
                return "jobs", self._handle_job
            if path == "/status":
                return "status", self._handle_status
            if path == "/dashboard":
                return "dashboard", self._handle_dashboard
            if path == "/metrics":
                return "metrics", self._handle_metrics
            if path == "/metrics.json":
                return "metrics.json", self._handle_metrics_json
            if path == "/healthz":
                return "healthz", self._handle_healthz
        if method == "POST" and path == "/drain":
            return "drain", self._handle_drain
        if path in _SUBMIT_ROUTES or path in (
            "/history", "/status", "/metrics", "/drain"
        ):
            return "method", self._handle_bad_method
        return "unknown", self._handle_unknown

    def _observe(self, endpoint, status, t0, request) -> None:
        elapsed = time.monotonic() - t0
        metrics = service_metrics()
        if metrics is not None:
            metrics.requests.labels(
                endpoint=endpoint, code=str(status)
            ).inc()
            metrics.request_seconds.labels(endpoint=endpoint).observe(
                elapsed
            )
        if spans_enabled():
            span_log().record(
                "http-request", "service", t0, t0 + elapsed,
                {
                    "request_id": request.request_id,
                    "endpoint": endpoint,
                    "code": status,
                },
            )

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------

    async def _handle_submit(self, request):
        body = request.json()
        if body.get("_malformed"):
            return 400, {"error": "request body is not valid JSON"}, {}
        kind = _SUBMIT_ROUTES[request.path]
        job, coalesced = self.service.submit(
            kind,
            body,
            tenant=request.tenant(),
            request_id=request.request_id,
            deadline=request.deadline(),
        )
        if request.flag("wait"):
            await self._await_job(job)
            return 200, job.to_dict(), {}
        return 202, {
            "job": job.id,
            "state": job.state,
            "coalesced": coalesced,
        }, {}

    async def _handle_history(self, request):
        job, _ = self.service.submit(
            "history",
            {},
            tenant=request.tenant(),
            request_id=request.request_id,
        )
        if request.flag("wait", default=True):
            await self._await_job(job)
            return 200, job.to_dict(), {}
        return 202, {"job": job.id, "state": job.state}, {}

    async def _handle_job(self, request):
        job_id = request.path[len("/jobs/"):]
        job = self.service.get_job(job_id)
        if job is None:
            return 404, {"error": f"unknown job {job_id!r}"}, {}
        if request.flag("wait"):
            await self._await_job(job)
        return 200, job.to_dict(), {}

    async def _handle_status(self, request):
        return 200, self.service.status(), {}

    async def _handle_dashboard(self, request):
        html = render_html(self.service.status())
        return 200, html.encode("utf-8"), {
            "Content-Type": "text/html; charset=utf-8"
        }

    async def _handle_metrics(self, request):
        text = to_prometheus()
        return 200, text.encode("utf-8"), {
            "Content-Type": "text/plain; version=0.0.4"
        }

    async def _handle_metrics_json(self, request):
        return 200, to_json_str().encode("utf-8"), {
            "Content-Type": "application/json"
        }

    async def _handle_healthz(self, request):
        return 200, {"ok": True}, {}

    async def _handle_drain(self, request):
        body = request.json()
        try:
            timeout = float(body.get("timeout", 30.0))
        except (TypeError, ValueError):
            return 400, {"error": "timeout must be a number"}, {}
        loop = asyncio.get_running_loop()
        # drain() itself flushes the journal + archive manifest before
        # returning, so "drained: true" means the durable state is on
        # disk -- the caller may kill the process the moment it reads
        # this response.
        drained = await loop.run_in_executor(
            None, self.service.drain, timeout
        )
        return 200, {
            "drained": drained,
            "counts": dict(self.service.counts),
        }, {}

    async def _handle_bad_method(self, request):
        return 405, {"error": f"method {request.method} not allowed"}, {}

    async def _handle_unknown(self, request):
        return 404, {"error": f"no route {request.path!r}"}, {}

    async def _await_job(self, job) -> None:
        loop = asyncio.get_running_loop()
        future = loop.create_future()

        def resolve(_job) -> None:
            if not future.done():
                future.set_result(None)

        job.add_done_callback(
            lambda j: loop.call_soon_threadsafe(resolve, j)
        )
        await future


class ServiceHandle:
    """A service running on a background thread (tests, CLI)."""

    def __init__(self, http: ServiceHTTP, loop, thread):
        self.http = http
        self._loop = loop
        self._thread = thread

    @property
    def port(self) -> int:
        return self.http.port

    @property
    def url(self) -> str:
        return f"http://{self.http.host}:{self.http.port}"

    def stop(self, drain: bool = True) -> None:
        """Drain (optionally), close the server, join the loop thread."""
        future = asyncio.run_coroutine_threadsafe(
            self.http.stop(drain=drain), self._loop
        )
        future.result(timeout=60)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10)
        self._loop.close()

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def run_service_in_thread(
    service: AnalysisService,
    host: str = "127.0.0.1",
    port: int = 0,
) -> ServiceHandle:
    """Start the HTTP server on a daemon thread; returns its handle.

    The handle's ``url`` includes the actually-bound port (pass
    ``port=0`` for an ephemeral one), and ``stop()`` performs the
    graceful drain-then-close shutdown.
    """
    http = ServiceHTTP(service, host=host, port=port)
    loop = asyncio.new_event_loop()
    ready = threading.Event()
    startup_error = []

    def runner() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(http.start())
        except BaseException as exc:  # noqa: BLE001 - reported below
            startup_error.append(exc)
            ready.set()
            return
        ready.set()
        loop.run_forever()

    thread = threading.Thread(
        target=runner, name="ats-service", daemon=True
    )
    thread.start()
    ready.wait(timeout=10)
    if startup_error:
        raise startup_error[0]
    return ServiceHandle(http, loop, thread)
