"""Asyncio serving gateway: the HTTP front end of the inference service.

A single-threaded ``asyncio`` front end (stdlib ``asyncio.start_server``,
no new dependencies) in front of :class:`InferenceService`:

* one event loop owns every socket; parsing and response writes are
  non-blocking, so idle connections cost a coroutine, not a thread;
* requests pass :class:`~repro.serve.admission.AdmissionController`
  *before* any real work -- shed requests (429 rate-limited / 503
  saturated, both with ``Retry-After``) never reach the batcher, which
  is what keeps memory bounded under overload;
* admitted classify requests are submitted to the existing
  :class:`~repro.serve.batcher.MicroBatcher` and awaited with
  ``asyncio.wrap_future`` -- the event loop keeps accepting sockets
  while worker processes evaluate the batch;
* every route gets a latency histogram (``gateway_<route>_seconds``,
  p50/p99 in ``/metrics``).

Routes (a known path with the wrong method answers 405)::

    GET    /healthz   liveness (503 + status=degraded drains the node)
    GET    /metrics   text exposition (gateway + service + engine)
    GET    /models    registered models
    GET    /drift     drift-detector state
    GET    /rollout   live rollout report
    POST   /classify  batched classification (admission-controlled)
    POST   /track     per-word trace (admission-controlled)
    POST   /reload    hot reload
    POST   /rollout   start a shadow/canary rollout
    DELETE /rollout   abort the live rollout

:class:`GatewayServer` wraps the loop in a daemon thread so synchronous
callers (CLI, tests, benchmarks) get a plain start/close lifecycle.
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
import time
from typing import Dict, Optional, Tuple

from repro.errors import PersistenceError
from repro.serve.admission import AdmissionController, Decision
from repro.serve.batcher import BatcherClosed, BatcherSaturated
from repro.serve.server import InferenceService
from repro.serve.workers import PoolClosed, WorkerCrash

#: Routes that carry real work and therefore pass admission control.
#: Control-plane routes (health, metrics, reload, rollout) stay cheap and
#: must answer precisely when the node is overloaded.
ADMITTED_ROUTES = {"classify": "classify", "track": "track"}

#: Largest accepted request body; beyond it the request is refused with
#: 413 before the body is read, bounding per-connection memory.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: StreamReader line/header limit (also bounds header memory).
HEADER_LIMIT = 64 * 1024

#: Pipelined requests a connection may queue ahead of the one being
#: served.  Beyond it the connection is answered 503 and closed: a
#: client that floods requests without reading responses is buffering
#: on our side, and the cap bounds that memory per connection.
MAX_PIPELINE_DEPTH = 8

_STATUS_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 409: "Conflict",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class _Request:
    """One parsed HTTP request."""

    __slots__ = ("method", "path", "keep_alive", "body")

    def __init__(self, method: str, path: str, keep_alive: bool,
                 body: bytes) -> None:
        self.method = method
        self.path = path
        self.keep_alive = keep_alive
        self.body = body

    def json(self) -> dict:
        if not self.body:
            raise ValueError("empty request body")
        payload = json.loads(self.body.decode("utf-8"))
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload


class _BadRequest(ValueError):
    """Malformed HTTP framing; answered 400 and the connection closed."""


class GatewayServer:
    """The asyncio front end, driven from a dedicated loop thread.

    Args:
        service: the :class:`InferenceService` to expose.
        host / port: bind address (port 0 = ephemeral; read ``.port``
            after :meth:`start`).
        admission: admission controller; a default-policy one is created
            when omitted (same metrics registry as the service).
        max_body: request body bound in bytes (413 beyond it).
        max_pipeline: HTTP/1.1 pipelining depth -- parsed requests a
            connection may queue beyond the one in flight; exceeding it
            gets 503 + connection close (``gateway_pipeline_shed_total``
            counts the closures).

    Lifecycle::

        gateway = GatewayServer(service, port=8080)
        gateway.start()
        ...
        gateway.close()       # then service.close()
    """

    def __init__(
        self,
        service: InferenceService,
        host: str = "127.0.0.1",
        port: int = 0,
        admission: Optional[AdmissionController] = None,
        max_body: int = MAX_BODY_BYTES,
        max_pipeline: int = MAX_PIPELINE_DEPTH,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.max_body = max_body
        self.max_pipeline = max(1, max_pipeline)
        self.admission = (
            admission
            if admission is not None
            else AdmissionController(metrics=service.metrics)
        )
        # /healthz folds admission saturation into its degraded signal.
        service.admission = self.admission
        self.metrics = service.metrics
        self._requests_total = self.metrics.counter(
            "gateway_requests_total", "requests parsed by the asyncio gateway"
        )
        self._errors_total = self.metrics.counter(
            "gateway_errors_total", "gateway responses with status >= 400"
        )
        self._connections = self.metrics.gauge(
            "gateway_connections", "open gateway connections"
        )
        self._pipeline_shed = self.metrics.counter(
            "gateway_pipeline_shed_total",
            "connections closed for exceeding the pipelining depth cap",
        )
        self._route_seconds: Dict[str, object] = {}
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._thread: Optional[threading.Thread] = None
        self._conn_tasks: "set[asyncio.Task]" = set()  # loop-thread only
        self._started = False
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self, timeout: float = 10.0) -> "GatewayServer":
        """Bind the listener and start serving; returns self."""
        if self._started:
            raise RuntimeError("gateway already started")
        self._started = True
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, name="serve-gateway", daemon=True
        )
        self._thread.start()
        bound = asyncio.run_coroutine_threadsafe(self._bind(), self._loop)
        self.port = bound.result(timeout=timeout)
        return self

    def close(self, timeout: float = 5.0) -> None:
        """Stop listening, cancel live connections, join the loop thread."""
        if self._closed or not self._started:
            self._closed = True
            return
        self._closed = True
        asyncio.run_coroutine_threadsafe(
            self._shutdown(), self._loop
        ).result(timeout=timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=timeout)
        self._loop.close()

    def __enter__(self) -> "GatewayServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    async def _bind(self) -> int:
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port, limit=HEADER_LIMIT
        )
        return self._server.sockets[0].getsockname()[1]

    async def _shutdown(self) -> None:
        self._server.close()
        await self._server.wait_closed()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        self._connections.inc()
        try:
            await self._connection_loop(reader, writer)
        except asyncio.CancelledError:
            raise  # shutdown path; propagate so gather() sees it
        except Exception:  # noqa: BLE001 - reprolint.allow: one dropped
            # connection (reset mid-write, broken pipe, bad TLS probe)
            # must never take the accept loop down with it.
            pass
        finally:
            self._conn_tasks.discard(task)
            self._connections.dec()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass  # peer already gone; nothing left to flush

    async def _connection_loop(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Serve one connection: parse-ahead reader, serial dispatcher.

        The reader task keeps parsing pipelined requests into a queue
        while the dispatcher awaits the batcher, so pipelining overlaps
        parse and compute; responses still go out strictly in request
        order.  The queue is bounded by ``max_pipeline`` -- a client
        that outruns its own reads gets the queued responses, then 503
        and the connection closed.
        """
        queue: "asyncio.Queue[Tuple[str, object]]" = asyncio.Queue()
        reader_task = asyncio.ensure_future(
            self._read_into_queue(reader, queue)
        )
        try:
            while True:
                kind, payload = await queue.get()
                if kind == "request":
                    request = payload
                    self._requests_total.inc()
                    keep_alive = request.keep_alive
                    await self._dispatch(request, writer)
                    await writer.drain()
                    if not keep_alive:
                        return
                elif kind == "bad":
                    self._write_response(
                        writer, 400,
                        self._json_body({"error": str(payload)}),
                        "application/json", keep_alive=False,
                    )
                    await writer.drain()
                    return
                elif kind == "shed":
                    self._errors_total.inc()
                    self._pipeline_shed.inc()
                    self._write_response(
                        writer, 503,
                        self._json_body({
                            "error": "pipelining depth exceeded",
                            "max_pipeline": self.max_pipeline,
                        }),
                        "application/json", keep_alive=False,
                    )
                    await writer.drain()
                    return
                else:  # "eof"
                    return
        finally:
            reader_task.cancel()
            try:
                await reader_task
            except asyncio.CancelledError:
                # Expected teardown; anything else the reader raised
                # propagates to _on_connection's drop-the-connection
                # handler.
                pass

    async def _read_into_queue(
        self,
        reader: asyncio.StreamReader,
        queue: "asyncio.Queue[Tuple[str, object]]",
    ) -> None:
        """Parse requests ahead of the dispatcher, up to the depth cap."""
        while True:
            try:
                request = await self._read_request(reader)
            except _BadRequest as error:
                await queue.put(("bad", str(error)))
                return
            if request is None:
                await queue.put(("eof", None))
                return
            if queue.qsize() >= self.max_pipeline:
                # The parsed request is dropped: its response would sit
                # behind a queue the client is not draining.
                await queue.put(("shed", None))
                return
            await queue.put(("request", request))
            if not request.keep_alive:
                return

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[_Request]:
        """Parse one request; None on clean EOF before a request line."""
        try:
            line = await reader.readline()
        except (asyncio.LimitOverrunError, ValueError) as error:
            raise _BadRequest(f"request line too long ({error})") from error
        if not line:
            return None
        try:
            method, target, version = line.decode("ascii").split()
        except (UnicodeDecodeError, ValueError) as error:
            raise _BadRequest("malformed request line") from error
        headers = await self._read_headers(reader)
        keep_alive = version.upper() != "HTTP/1.0"
        if headers.get("connection", "").lower() == "close":
            keep_alive = False
        length_text = headers.get("content-length", "0")
        try:
            length = int(length_text)
        except ValueError as error:
            raise _BadRequest(
                f"bad Content-Length {length_text!r}"
            ) from error
        if length < 0 or length > self.max_body:
            raise _BadRequest(
                f"body of {length} bytes exceeds the "
                f"{self.max_body}-byte bound"
            )
        body = b""
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError as error:
                raise _BadRequest("body shorter than Content-Length") from error
        path = target.split("?", 1)[0].rstrip("/") or "/"
        return _Request(method.upper(), path, keep_alive, body)

    async def _read_headers(
        self, reader: asyncio.StreamReader
    ) -> Dict[str, str]:
        headers: Dict[str, str] = {}
        while True:
            try:
                line = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError) as error:
                raise _BadRequest(f"header too long ({error})") from error
            if line in (b"\r\n", b"\n"):
                return headers
            if not line:
                raise _BadRequest("connection closed inside headers")
            name, sep, value = line.decode("latin-1").partition(":")
            if not sep:
                raise _BadRequest(f"malformed header line {line!r}")
            headers[name.strip().lower()] = value.strip()

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    async def _dispatch(
        self, request: _Request, writer: asyncio.StreamWriter
    ) -> None:
        route = self._route_name(request)
        started = time.perf_counter()
        decision: Optional[Decision] = None
        admitted_route = ADMITTED_ROUTES.get(route)
        if admitted_route is not None:
            decision = self.admission.admit(admitted_route)
            if not decision:
                self._errors_total.inc()
                self._write_response(
                    writer, decision.status,
                    self._json_body({
                        "error": "rate limited" if decision.status == 429
                        else "saturated",
                        "retry_after": decision.retry_after,
                    }),
                    "application/json",
                    keep_alive=request.keep_alive,
                    retry_after=decision.retry_after,
                )
                self._observe_route(route, time.perf_counter() - started)
                return
        try:
            status, body, content_type, retry_after = await self._handle(
                request, route
            )
        except (ValueError, json.JSONDecodeError) as error:
            status, body, content_type, retry_after = (
                400, self._json_body({"error": str(error)}),
                "application/json", 0.0,
            )
        except KeyError as error:
            status, body, content_type, retry_after = (
                404,
                self._json_body(
                    {"error": str(error.args[0] if error.args else error)}
                ),
                "application/json", 0.0,
            )
        except BatcherSaturated as error:
            # The batcher's own bound tripped underneath admission --
            # same contract as an admission shed: retryable, 503.
            status, body, content_type, retry_after = (
                503,
                self._json_body(
                    {"error": str(error), "retry_after": 0.5}
                ),
                "application/json", 0.5,
            )
        except (PersistenceError, BatcherClosed, PoolClosed,
                WorkerCrash) as error:
            status, body, content_type, retry_after = (
                503,
                self._json_body(
                    {"error": f"{type(error).__name__}: {error}"}
                ),
                "application/json", 0.0,
            )
        except Exception as error:  # noqa: BLE001 - boundary
            status, body, content_type, retry_after = (
                500,
                self._json_body(
                    {"error": f"{type(error).__name__}: {error}"}
                ),
                "application/json", 0.0,
            )
        finally:
            if decision is not None:
                decision.release()
        if status >= 400:
            self._errors_total.inc()
        self._write_response(
            writer, status, body, content_type,
            keep_alive=request.keep_alive, retry_after=retry_after,
        )
        self._observe_route(route, time.perf_counter() - started)

    def _route_name(self, request: _Request) -> str:
        names = {
            "/healthz": "healthz", "/metrics": "metrics",
            "/models": "models", "/drift": "drift",
            "/rollout": "rollout", "/classify": "classify",
            "/track": "track", "/reload": "reload",
        }
        return names.get(request.path, "unknown")

    async def _handle(
        self, request: _Request, route: str
    ) -> Tuple[int, bytes, str, float]:
        """Returns ``(status, body, content_type, retry_after)``."""
        service = self.service
        method = request.method
        if route == "unknown":
            return (
                404,
                self._json_body({"error": f"unknown path {request.path!r}"}),
                "application/json", 0.0,
            )
        if route == "classify" and method == "POST":
            payload = request.json()
            documents = payload.get("documents")
            if not isinstance(documents, list) or not documents:
                raise ValueError("'documents' must be a non-empty list")
            futures = service.submit_payloads(
                documents, model=payload.get("model")
            )
            results = await asyncio.gather(
                *(asyncio.wrap_future(future) for future in futures)
            )
            return (
                200, self._json_body({"results": list(results)}),
                "application/json", 0.0,
            )
        if route == "healthz" and method == "GET":
            health = service.health()
            status = 200 if health.get("status") == "ok" else 503
            return status, self._json_body(health), "application/json", 0.0
        if route == "metrics" and method == "GET":
            text = await self._in_executor(service.metrics_text)
            return 200, text.encode("utf-8"), "text/plain; charset=utf-8", 0.0
        if route == "models" and method == "GET":
            return (
                200,
                self._json_body({"models": service.registry.describe()}),
                "application/json", 0.0,
            )
        if route == "drift" and method == "GET":
            return (
                200, self._json_body(service.drift_report()),
                "application/json", 0.0,
            )
        if route == "rollout":
            return await self._handle_rollout(request, method)
        if route == "track" and method == "POST":
            payload = request.json()
            text = payload.get("text")
            category = payload.get("category")
            if not text or not category:
                raise ValueError("'text' and 'category' are required")
            result = await self._in_executor(
                service.track, text, category, payload.get("model")
            )
            return 200, self._json_body(result), "application/json", 0.0
        if route == "reload" and method == "POST":
            try:
                payload = request.json()
            except ValueError:
                payload = {}
            result = await self._in_executor(
                service.reload, payload.get("model")
            )
            return 200, self._json_body(result), "application/json", 0.0
        return (
            405,
            self._json_body(
                {"error": f"{method} not supported on {request.path!r}"}
            ),
            "application/json", 0.0,
        )

    async def _handle_rollout(
        self, request: _Request, method: str
    ) -> Tuple[int, bytes, str, float]:
        service = self.service
        if method == "GET":
            report = service.rollout_report()
            if report is None:
                return (
                    404, self._json_body({"error": "no rollout is live"}),
                    "application/json", 0.0,
                )
            return 200, self._json_body(report), "application/json", 0.0
        if method == "POST":
            payload = request.json()
            candidate = payload.get("candidate")
            if not candidate:
                raise ValueError("'candidate' (a registered model) is required")
            report = await self._in_executor(
                service.start_rollout,
                candidate,
                payload.get("incumbent"),
                payload.get("config") or {},
            )
            return 200, self._json_body(report), "application/json", 0.0
        if method == "DELETE":
            report = service.abort_rollout()
            if report is None:
                return (
                    404, self._json_body({"error": "no rollout is live"}),
                    "application/json", 0.0,
                )
            return 200, self._json_body(report), "application/json", 0.0
        return (
            405,
            self._json_body({"error": f"{method} not supported on /rollout"}),
            "application/json", 0.0,
        )

    async def _in_executor(self, fn, *args):
        """Run blocking service work off the event loop."""
        return await asyncio.get_running_loop().run_in_executor(
            None, lambda: fn(*args)
        )

    # ------------------------------------------------------------------
    # response writing and accounting
    # ------------------------------------------------------------------
    @staticmethod
    def _json_body(payload: dict) -> bytes:
        return json.dumps(payload).encode("utf-8")

    def _write_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        content_type: str,
        keep_alive: bool,
        retry_after: float = 0.0,
    ) -> None:
        reason = _STATUS_REASONS.get(status, "Unknown")
        headers = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        if retry_after > 0:
            headers.append(f"Retry-After: {max(1, math.ceil(retry_after))}")
        writer.write(
            ("\r\n".join(headers) + "\r\n\r\n").encode("ascii") + body
        )

    def _observe_route(self, route: str, seconds: float) -> None:
        histogram = self._route_seconds.get(route)
        if histogram is None:
            histogram = self.metrics.histogram(
                f"gateway_{route}_seconds", f"gateway {route} latency"
            )
            self._route_seconds[route] = histogram
        histogram.observe(seconds)
