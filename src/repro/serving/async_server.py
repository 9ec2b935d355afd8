"""Asyncio HTTP frontend with admission control and ``/metrics``.

The ``gqbe serve`` frontend.  One event loop accepts every
connection (``asyncio.start_server``; stdlib-only, no aiohttp), parses
HTTP/1.1 with keep-alive, and applies admission control *before* any
request is allowed to touch the engine:

1. **Auth** — when ``api_keys`` is set, a request must carry
   ``Authorization: Bearer <key>`` with a listed key (``401``
   otherwise).  The key also names the client for rate limiting.
2. **Rate limit** — per-client token buckets
   (:class:`~repro.serving.limits.RateLimiter`); a client over its
   sustained rate is shed with ``429`` + ``Retry-After``.
3. **Answer cache** — duplicate queries are answered from the
   generation-guarded :class:`~repro.serving.cache.AnswerCache`
   without consuming an admission slot.
4. **Admission gate** — a bounded in-flight counter
   (:class:`~repro.serving.limits.AdmissionGate`); past the high-water
   mark the request is shed with ``429`` + ``Retry-After`` instead of
   queueing unboundedly.
5. **Deadline** — with ``deadline_ms`` set, a request whose engine call
   has not finished inside the deadline is answered ``504`` and the call
   cancelled: one still queued never runs, one already running finishes
   on its engine thread and is discarded.

An admitted query is one task on the engine executor of the
:class:`~repro.serving.server.ServingCore` this class extends, awaited
on the loop; ingests, reloads and compactions run on a separate handler
thread pool via ``run_in_executor``.  Answers are byte-identical to
calling the engine directly (the SLO gate asserts this per commit).
``GET /metrics`` exposes the Prometheus text exposition built by
:mod:`repro.serving.metrics`.

Event-loop confinement: the rate limiter and admission gate are only
touched from coroutines on the loop thread and therefore hold no locks;
everything shared with executor threads (cache, metrics, core counters)
is locked.  See ``CON005`` in ``tools/gqbecheck``.
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from os import PathLike

from repro.core.gqbe import GQBE
from repro.exceptions import GQBEError
from repro.serving.limits import AdmissionGate, RateLimiter, retry_after_header
from repro.serving.metrics import LATENCY_BUCKETS, MetricsRegistry
from repro.serving.server import DEFAULT_MAX_BODY_BYTES, ServingCore

logger = logging.getLogger("repro.serving.async")

#: Cap on the request head (request line + headers) before ``431``.
MAX_HEAD_BYTES = 32 * 1024

_ANONYMOUS_CLIENT = "-"


class _HttpError(Exception):
    """An error response decided before (or instead of) routing."""

    def __init__(self, status: int, message: str, headers: dict | None = None):
        self.status = status
        self.message = message
        self.headers = headers or {}
        super().__init__(message)


_REASONS = {
    200: "OK",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class AsyncGQBEServer(ServingCore):
    """The asyncio HTTP transport over :class:`ServingCore`.

    Parameters beyond :class:`ServingCore`'s:

    host / port:
        Bind address; ``port=0`` picks an ephemeral port (read
        :attr:`port` after :meth:`start`).
    high_water:
        Maximum admitted in-flight requests; past it, ``429``.
    deadline_ms:
        Per-request engine deadline (``None`` disables; the core's
        ``request_timeout`` still caps each engine call with ``503``).
    rate_limit_rps / rate_limit_burst:
        Per-client token-bucket rate limit (``rate_limit_rps=None``
        disables rate limiting).
    api_keys:
        Optional allowlist; when set, requests must present
        ``Authorization: Bearer <key>``.
    """

    def __init__(
        self,
        system: GQBE,
        snapshot_path: str | PathLike | None = None,
        host: str = "127.0.0.1",
        port: int = 8080,
        high_water: int = 64,
        deadline_ms: int | None = None,
        rate_limit_rps: float | None = None,
        rate_limit_burst: int = 32,
        api_keys: tuple[str, ...] | list[str] | None = None,
        **core_kwargs,
    ) -> None:
        if deadline_ms is not None and deadline_ms < 1:
            raise ValueError(f"deadline_ms must be >= 1 or None, got {deadline_ms}")
        # The admission settings are validated before the core starts its
        # engine executor and worker processes, so a refused value leaks
        # neither.
        self._gate = AdmissionGate(high_water)
        self._limiter = (
            RateLimiter(rate_limit_rps, rate_limit_burst)
            if rate_limit_rps is not None
            else None
        )
        super().__init__(system, snapshot_path=snapshot_path, **core_kwargs)
        self._requested_host = host
        self._requested_port = port
        self.high_water = high_water
        self.deadline_ms = deadline_ms
        self.api_keys = frozenset(api_keys) if api_keys else None
        # Loop-confined like the gate: only coroutines touch it, and the
        # /metrics gauge callback also renders on the loop thread.
        self._ingest_inflight = 0
        # Handler threads for ingests, reloads and compactions (queries
        # run on the core's engine executor).  Ingests consume gate
        # slots, so high_water plus a slot for /admin/reload and one for
        # /admin/compact bounds it exactly; nothing queues here.
        self._executor = ThreadPoolExecutor(
            max_workers=high_water + 2, thread_name_prefix="gqbe-async"
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._bound: tuple[str, int] | None = None
        self._shutdown: asyncio.Event | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._build_metrics()

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def _build_metrics(self) -> None:
        registry = MetricsRegistry()
        self.metrics = registry
        self._m_requests = registry.counter(
            "gqbe_http_requests_total",
            "HTTP requests by path and response code.",
            ("path", "code"),
        )
        self._m_shed = registry.counter(
            "gqbe_http_shed_total",
            "Requests shed before reaching the engine, by reason.",
            ("reason",),
        )
        self._m_timeouts = registry.counter(
            "gqbe_http_timeouts_total",
            "Requests that hit the deadline (504) or request timeout (503).",
            ("kind",),
        )
        self._m_internal = registry.counter(
            "gqbe_http_internal_errors_total",
            "Unhandled handler exceptions answered with a 500.",
        )
        self._m_cache_hits = registry.counter(
            "gqbe_cache_hits_total", "Answer-cache hits on /query."
        )
        self._m_cache_misses = registry.counter(
            "gqbe_cache_misses_total", "Answer-cache misses on /query."
        )
        self._m_ingest_requests = registry.counter(
            "gqbe_ingest_requests_total",
            "POST /admin/ingest requests answered 200.",
        )
        self._m_ingest_triples = registry.counter(
            "gqbe_ingest_triples_total",
            "Triples received by /admin/ingest, by outcome.",
            ("result",),
        )
        self._m_compactions = registry.counter(
            "gqbe_compactions_total",
            "Completed delta compactions (manual or threshold-triggered).",
        )
        registry.gauge(
            "gqbe_delta_edges",
            "Edges currently held by the in-memory delta overlay.",
            callback=lambda: len(self._system.pending_delta),
        )
        registry.gauge(
            "gqbe_queue_depth",
            "Admitted in-flight requests (admission gate depth).",
            callback=lambda: self._gate.depth,
        )
        registry.gauge(
            "gqbe_ingest_inflight",
            "In-flight /admin/ingest requests (each holds a gate slot).",
            callback=lambda: self._ingest_inflight,
        )
        registry.gauge(
            "gqbe_queue_high_water",
            "Admission high-water mark (requests past it are shed).",
            callback=lambda: self._gate.high_water,
        )
        registry.gauge(
            "gqbe_cache_entries",
            "Entries currently held by the answer cache.",
            callback=lambda: self._cache.stats()["entries"],
        )
        registry.gauge(
            "gqbe_snapshot_generation",
            "Answer-cache generation (bumps on /admin/reload).",
            callback=lambda: self._cache.generation,
        )
        self._m_stage_seconds = registry.histogram(
            "gqbe_stage_seconds",
            "Per-stage latency of POST /query: admission, queue (submit to "
            "engine start), execute (engine call) and total (handler).",
            buckets=LATENCY_BUCKETS,
            label_names=("stage",),
        )

    def _observe_engine_call(self, queue_seconds, execute_seconds):
        self._m_stage_seconds.observe(queue_seconds, stage="queue")
        self._m_stage_seconds.observe(execute_seconds, stage="execute")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        """The bound host address."""
        return self._bound[0] if self._bound else self._requested_host

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``)."""
        return self._bound[1] if self._bound else self._requested_port

    def start(self) -> "AsyncGQBEServer":
        """Serve from a background event-loop thread; returns ``self``."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._thread_main, name="gqbe-async-serve", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._startup_error is not None:
            error = self._startup_error
            self._thread.join(timeout=5)
            self._thread = None
            self._startup_error = None
            raise error
        if self._bound is None:
            raise RuntimeError("async server failed to bind within 30s")
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the ``gqbe serve`` entry point)."""
        try:
            asyncio.run(self._serve_main())
        finally:
            self._executor.shutdown(wait=False)
            self.close_engine()

    def stop(self) -> None:
        """Stop the loop, the handler threads, the engine and the pool."""
        if self._loop is not None and self._shutdown is not None:
            loop, shutdown = self._loop, self._shutdown
            try:
                loop.call_soon_threadsafe(shutdown.set)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        self._executor.shutdown(wait=False)
        self.close_engine()

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._serve_main())
        # gqbe: ignore[EXC001] -- thread top level: surface bind/startup
        # failures to start() instead of dying silently on a daemon
        # thread.
        except BaseException as error:  # noqa: BLE001
            self._startup_error = error
        finally:
            self._ready.set()

    async def _serve_main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_connection, self._requested_host, self._requested_port
        )
        sock = server.sockets[0].getsockname()
        self._bound = (sock[0], sock[1])
        self._ready.set()
        async with server:
            await self._shutdown.wait()
        self._bound = None

    # ------------------------------------------------------------------
    # connection handling (HTTP/1.1 with keep-alive)
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                keep_alive = await self._handle_one_request(reader, writer)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError, TimeoutError):
            pass  # client went away; nothing to answer
        except asyncio.CancelledError:
            # Loop shutdown cancels in-flight connection handlers; close
            # the socket quietly instead of propagating (which makes the
            # streams machinery log every idle keep-alive connection).
            pass
        # gqbe: ignore[EXC001] -- connection top level: a handler bug
        # must kill one connection with a log line, not the accept loop.
        except Exception:  # noqa: BLE001
            logger.exception("unhandled error on connection")
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _read_head(self, reader: asyncio.StreamReader):
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            raise _HttpError(431, "request head too large") from None
        if len(head) > MAX_HEAD_BYTES:
            raise _HttpError(431, "request head too large")
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, _version = lines[0].split(" ", 2)
        except ValueError:
            raise _HttpError(400, f"malformed request line: {lines[0]!r}") from None
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        return method, target, headers

    async def _read_body(self, reader: asyncio.StreamReader, headers: dict) -> bytes:
        raw_length = headers.get("content-length")
        try:
            length = int(raw_length) if raw_length is not None else 0
        except ValueError:
            raise _HttpError(
                400, f"invalid Content-Length header: {raw_length!r}"
            ) from None
        if length < 0:
            raise _HttpError(400, f"invalid Content-Length header: {raw_length!r}")
        if length > self.max_body_bytes:
            raise _HttpError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{self.max_body_bytes}-byte limit",
            )
        return await reader.readexactly(length) if length else b""

    async def _handle_one_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> bool:
        started = time.monotonic()
        route = "unknown"
        try:
            try:
                method, target, headers = await self._read_head(reader)
            except asyncio.IncompleteReadError as error:
                if not error.partial:
                    return False  # clean keep-alive close between requests
                raise
            route = target.split("?", 1)[0]
            body = await self._read_body(reader, headers)
            keep_alive = headers.get("connection", "").lower() != "close"
            status, payload, extra = await self._route(
                method, route, headers, body, started
            )
        except _HttpError as error:
            self._count("request_errors")
            status, payload, extra = error.status, {"error": error.message}, error.headers
            keep_alive = False
        except asyncio.IncompleteReadError:
            # Only the stream reads above raise this: the client hung up
            # inside the head or the body.  Not a server error and nobody
            # to answer; _handle_connection closes the socket quietly.
            raise
        # gqbe: ignore[EXC001] -- the top-of-request net: any unhandled
        # failure becomes a logged traceback plus a generic 500 rather
        # than a dropped connection or a leaked stack trace.
        except Exception as error:  # noqa: BLE001 - last-resort 500
            self.note_internal_error(route, error)
            self._m_internal.inc()
            status, payload, extra = 500, {"error": "internal server error"}, {}
            keep_alive = False
        self._m_requests.inc(path=self._metric_route(route), code=str(status))
        if route == "/query":
            self._m_stage_seconds.observe(time.monotonic() - started, stage="total")
        await self._send_response(writer, status, payload, extra, keep_alive)
        return keep_alive

    @staticmethod
    def _metric_route(route: str) -> str:
        """Bound the label cardinality: unknown paths collapse to one."""
        if route in (
            "/query",
            "/healthz",
            "/stats",
            "/metrics",
            "/admin/reload",
            "/admin/ingest",
            "/admin/compact",
        ):
            return route
        return "other"

    async def _send_response(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload,
        extra_headers: dict,
        keep_alive: bool,
    ) -> None:
        if isinstance(payload, (bytes, str)):
            data = payload.encode("utf-8") if isinstance(payload, str) else payload
            content_type = extra_headers.pop(
                "Content-Type", "text/plain; charset=utf-8"
            )
        else:
            data = json.dumps(payload).encode("utf-8")
            content_type = "application/json"
        reason = _REASONS.get(status, "Unknown")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(data)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        lines.extend(f"{name}: {value}" for name, value in extra_headers.items())
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        writer.write(head + data)
        await writer.drain()

    # ------------------------------------------------------------------
    # routing + admission control
    # ------------------------------------------------------------------
    async def _route(
        self, method: str, route: str, headers: dict, body: bytes, started: float
    ) -> tuple[int, object, dict]:
        if method == "GET":
            if route == "/healthz":
                return 200, self.healthz(), {}
            if route == "/stats":
                return 200, self.stats(), {}
            if route == "/metrics":
                return (
                    200,
                    self.metrics.render(),
                    {"Content-Type": self.metrics.content_type},
                )
            return 404, {"error": f"unknown path {route!r}"}, {}
        if method != "POST":
            return 405, {"error": f"method {method} not allowed"}, {}
        if route == "/query":
            return await self._handle_query(headers, body, started)
        if route == "/admin/reload":
            return await self._handle_reload(headers, body)
        if route == "/admin/ingest":
            return await self._handle_ingest(headers, body)
        if route == "/admin/compact":
            return await self._handle_compact(headers)
        return 404, {"error": f"unknown path {route!r}"}, {}

    def _authenticate(self, headers: dict) -> str:
        """Return the client id for rate limiting; raise 401 if denied."""
        auth = headers.get("authorization", "")
        scheme, _, key = auth.partition(" ")
        key = key.strip() if scheme.lower() == "bearer" else ""
        if self.api_keys is not None:
            if key not in self.api_keys:
                self._m_shed.inc(reason="unauthorized")
                raise _HttpError(401, "missing or unknown API key")
            return key
        return key or _ANONYMOUS_CLIENT

    def _admit(self, client_id: str) -> None:
        """Rate-limit check (raises 429 + Retry-After when shed)."""
        if self._limiter is None:
            return
        retry_after = self._limiter.check(client_id)
        if retry_after is not None:
            self._m_shed.inc(reason="rate_limit")
            raise _HttpError(
                429,
                "rate limit exceeded",
                {"Retry-After": retry_after_header(retry_after)},
            )

    def _parse_json(self, body: bytes):
        if not body:
            return None
        try:
            return json.loads(body)
        except ValueError:
            raise _HttpError(400, "request body is not valid JSON") from None

    async def _handle_query(
        self, headers: dict, body: bytes, started: float
    ) -> tuple[int, object, dict]:
        client_id = self._authenticate(headers)
        self._admit(client_id)
        payload = self._parse_json(body)
        try:
            key = self._parse_query_payload(payload)
        except ValueError as error:
            self._count("request_errors")
            return 400, {"error": str(error)}, {}
        cached = self._cached_answer(key)
        if cached is not None:
            self._m_cache_hits.inc()
            return 200, cached, {}
        self._m_cache_misses.inc()
        # Admission is checked only after the cache: duplicate-heavy
        # traffic is absorbed without holding a slot.
        if not self._gate.try_enter():
            self._m_shed.inc(reason="queue_full")
            return (
                429,
                {"error": "server is at capacity, retry later"},
                {"Retry-After": retry_after_header(self._gate.retry_after_seconds)},
            )
        self._m_stage_seconds.observe(time.monotonic() - started, stage="admission")
        try:
            return await self._execute_admitted(key, started)
        finally:
            self._gate.leave()

    async def _execute_admitted(self, key, started: float) -> tuple[int, object, dict]:
        # Read before computing: a reload landing mid-flight makes the
        # answer's put a no-op (tests/test_serving.py pins it).
        generation = self._cache.generation
        budget = self.request_timeout
        if self.deadline_ms is not None:
            budget = min(
                budget, self.deadline_ms / 1000.0 - (time.monotonic() - started)
            )
        future = self._submit_query(*key)
        try:
            result = await asyncio.wait_for(
                asyncio.wrap_future(future), timeout=max(budget, 0.001)
            )
        except TimeoutError:
            # wait_for cancelled the engine call: still queued, it never
            # runs; already running, its answer is discarded.
            self._count("request_errors")
            if self.deadline_ms is not None:
                self._m_timeouts.inc(kind="deadline")
                return (
                    504,
                    {"error": f"deadline of {self.deadline_ms}ms exceeded"},
                    {},
                )
            self._m_timeouts.inc(kind="request_timeout")
            return 503, {"error": "timed out waiting for execution"}, {}
        except GQBEError as error:
            self._count("request_errors")
            return 400, {"error": str(error), "type": type(error).__name__}, {}
        return 200, self._fresh_answer(key, generation, result), {}

    async def _handle_reload(
        self, headers: dict, body: bytes
    ) -> tuple[int, object, dict]:
        self._authenticate(headers)
        payload = self._parse_json(body)
        if not isinstance(payload, dict) or not isinstance(
            payload.get("snapshot"), str
        ):
            return 400, {"error": 'body must be {"snapshot": "<path>"}'}, {}
        loop = asyncio.get_running_loop()
        try:
            generation = await loop.run_in_executor(
                self._executor, lambda: self.load_snapshot(payload["snapshot"])
            )
        except GQBEError as error:
            return 400, {"error": str(error), "type": type(error).__name__}, {}
        return (
            200,
            {
                "reloaded": True,
                "snapshot": payload["snapshot"],
                "generation": generation,
            },
            {},
        )

    async def _handle_ingest(
        self, headers: dict, body: bytes
    ) -> tuple[int, object, dict]:
        client_id = self._authenticate(headers)
        self._admit(client_id)
        payload = self._parse_json(body)
        # Ingest shares the executor with queries, so it must consume an
        # admission slot too — otherwise a burst of ingests could occupy
        # every worker thread while the gate still reports capacity.
        if not self._gate.try_enter():
            self._m_shed.inc(reason="queue_full")
            return (
                429,
                {"error": "server is at capacity, retry later"},
                {"Retry-After": retry_after_header(self._gate.retry_after_seconds)},
            )
        self._ingest_inflight += 1
        loop = asyncio.get_running_loop()
        try:
            status, response = await loop.run_in_executor(
                self._executor, lambda: self.handle_ingest(payload)
            )
        finally:
            self._ingest_inflight -= 1
            self._gate.leave()
        if status == 200:
            self._m_ingest_requests.inc()
            if response["applied"]:
                self._m_ingest_triples.inc(
                    amount=response["applied"], result="applied"
                )
            if response["duplicates"]:
                self._m_ingest_triples.inc(
                    amount=response["duplicates"], result="duplicate"
                )
        return status, response, {}

    async def _handle_compact(self, headers: dict) -> tuple[int, object, dict]:
        self._authenticate(headers)
        loop = asyncio.get_running_loop()
        status, response = await loop.run_in_executor(
            self._executor, lambda: self.handle_compact()
        )
        return status, response, {}

    def _note_compaction(self) -> None:
        self._m_compactions.inc()

    # ------------------------------------------------------------------
    # info endpoints
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        body = super().stats()
        body["admission"] = self._gate.stats()
        if self._limiter is not None:
            body["rate_limit"] = self._limiter.stats()
        body["frontend"] = "async"
        return body
