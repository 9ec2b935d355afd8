"""Load driver for the serve layer (the ``gqbe bench-serve`` subcommand).

Fires ``requests`` HTTP queries at a running server, measures
per-request latency, and folds in the server's own ``/stats`` counters
(cache hit rate, engine calls).  The report is printed as a table by the
CLI and written as JSON for CI to upload next to the bench-gate
artifact.

Two arrival modes:

* ``closed`` (default) — ``concurrency`` worker threads with one
  persistent connection each, next request issued as soon as the
  previous answer lands.  Measures capacity: the offered load adapts to
  the server's pace, so nothing is shed.
* ``open`` — requests are dispatched on a fixed schedule of ``rate``
  requests/second regardless of completions, each on its own
  connection.  Measures overload behavior: past the admission high-water
  mark the server must shed with ``429`` + ``Retry-After``
  instead of queueing, and the report counts exactly that
  (``status_counts``, ``retry_after_seen``, ``transport_errors``).
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
import time
from collections.abc import Sequence

from repro.serving.server import ServingCore


def _connect(host: str, port: int, timeout: float) -> http.client.HTTPConnection:
    """A keep-alive connection with Nagle's algorithm off.

    ``http.client`` writes request headers and body in separate segments;
    with Nagle on, the body then waits for the server's delayed ACK —
    a flat ~40ms stall on every request after the first on a persistent
    connection.
    """
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    connection.connect()
    connection.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return connection


def _percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list (0 for empty)."""
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]


class _Outcomes:
    """Thread-safe tally of request outcomes across load workers."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.ok = 0
        self.cached = 0
        self.errors = 0
        self.transport_errors = 0
        self.retry_after_seen = 0
        self.status_counts: dict[str, int] = {}
        self.latencies: list[float] = []

    def record(self, status: int, payload: dict, elapsed: float, retry_after) -> None:
        with self._lock:
            key = str(status)
            self.status_counts[key] = self.status_counts.get(key, 0) + 1
            if retry_after is not None:
                self.retry_after_seen += 1
            if status == 200:
                self.ok += 1
                if payload.get("cached"):
                    self.cached += 1
                self.latencies.append(elapsed)
            else:
                self.errors += 1

    def record_transport_error(self) -> None:
        with self._lock:
            self.errors += 1
            self.transport_errors += 1


def _issue(
    connection: http.client.HTTPConnection,
    body: bytes,
    outcomes: _Outcomes,
    headers: dict,
) -> None:
    started = time.perf_counter()
    connection.request("POST", "/query", body=body, headers=headers)
    response = connection.getresponse()
    raw = response.read()
    elapsed = time.perf_counter() - started
    try:
        payload = json.loads(raw) if raw else {}
    except ValueError:
        payload = {}
    outcomes.record(
        response.status, payload, elapsed, response.getheader("Retry-After")
    )


def _request_headers(api_key: str | None) -> dict:
    headers = {"Content-Type": "application/json"}
    if api_key is not None:
        headers["Authorization"] = f"Bearer {api_key}"
    return headers


def run_load(
    host: str,
    port: int,
    query_tuples: Sequence[Sequence[str]],
    k: int = 10,
    requests: int = 200,
    concurrency: int = 8,
    timeout: float = 60.0,
    arrival: str = "closed",
    rate: float | None = None,
    api_key: str | None = None,
) -> dict:
    """Issue ``requests`` queries round-robin over ``query_tuples``.

    Returns the load report: throughput, latency percentiles (ms),
    per-status counts, error/cached counts and the server's ``/stats``
    snapshot.  ``arrival="open"`` dispatches on a fixed ``rate``
    requests/second schedule instead of the closed loop (see the module
    docstring).
    """
    if not query_tuples:
        raise ValueError("bench-serve needs at least one query tuple")
    if requests < 1:
        raise ValueError(f"requests must be >= 1, got {requests}")
    if arrival not in ("closed", "open"):
        raise ValueError(f'arrival must be "closed" or "open", got {arrival!r}')
    if arrival == "open" and (rate is None or rate <= 0):
        raise ValueError("open-loop arrival needs rate > 0 requests/second")
    tuples = [list(t) for t in query_tuples]
    headers = _request_headers(api_key)
    bodies = [
        json.dumps({"tuple": tuples[index % len(tuples)], "k": k}).encode("utf-8")
        for index in range(requests)
    ]
    outcomes = _Outcomes()

    started = time.perf_counter()
    if arrival == "closed":
        _closed_loop(host, port, bodies, outcomes, headers, concurrency, timeout)
    else:
        _open_loop(host, port, bodies, outcomes, headers, rate, timeout)
    duration = time.perf_counter() - started

    merged = sorted(outcomes.latencies)
    server_stats: dict = {}
    try:
        connection = _connect(host, port, timeout)
        connection.request("GET", "/stats", headers=headers)
        server_stats = json.loads(connection.getresponse().read())
        connection.close()
    except (OSError, http.client.HTTPException, ValueError):
        pass

    completed = outcomes.ok
    return {
        "requests": requests,
        "arrival": arrival,
        "rate_rps": rate,
        "concurrency": concurrency if arrival == "closed" else None,
        "distinct_queries": len(tuples),
        "k": k,
        "duration_seconds": duration,
        "throughput_rps": completed / duration if duration > 0 else 0.0,
        "completed": completed,
        "cached_responses": outcomes.cached,
        "errors": outcomes.errors,
        "transport_errors": outcomes.transport_errors,
        "status_counts": dict(sorted(outcomes.status_counts.items())),
        "retry_after_seen": outcomes.retry_after_seen,
        "latency_ms": {
            "mean": (sum(merged) / len(merged) * 1000) if merged else 0.0,
            "p50": _percentile(merged, 0.50) * 1000,
            "p95": _percentile(merged, 0.95) * 1000,
            "p99": _percentile(merged, 0.99) * 1000,
            "max": merged[-1] * 1000 if merged else 0.0,
        },
        "server_stats": server_stats,
    }


def _closed_loop(
    host: str,
    port: int,
    bodies: list[bytes],
    outcomes: _Outcomes,
    headers: dict,
    concurrency: int,
    timeout: float,
) -> None:
    requests = len(bodies)
    concurrency = max(1, min(concurrency, requests))
    counter = {"next": 0}
    counter_lock = threading.Lock()

    def worker() -> None:
        connection = _connect(host, port, timeout)
        try:
            while True:
                with counter_lock:
                    index = counter["next"]
                    if index >= requests:
                        return
                    counter["next"] = index + 1
                try:
                    # Bytes body: http.client then writes headers + body
                    # in one send, avoiding a Nagle/delayed-ACK stall.
                    _issue(connection, bodies[index], outcomes, headers)
                except (OSError, http.client.HTTPException):
                    outcomes.record_transport_error()
                    connection.close()
                    connection = _connect(host, port, timeout)
        finally:
            connection.close()

    threads = [
        threading.Thread(target=worker, daemon=True) for _ in range(concurrency)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def _open_loop(
    host: str,
    port: int,
    bodies: list[bytes],
    outcomes: _Outcomes,
    headers: dict,
    rate: float,
    timeout: float,
) -> None:
    """Fixed-schedule dispatch: request ``i`` starts at ``i / rate``
    seconds, on its own connection, whether or not earlier requests have
    completed — offered load does not adapt to the server."""
    epoch = time.perf_counter()

    def fire(index: int) -> None:
        delay = index / rate - (time.perf_counter() - epoch)
        if delay > 0:
            time.sleep(delay)
        try:
            connection = _connect(host, port, timeout)
        except OSError:
            outcomes.record_transport_error()
            return
        try:
            _issue(connection, bodies[index], outcomes, headers)
        except (OSError, http.client.HTTPException):
            outcomes.record_transport_error()
        finally:
            connection.close()

    threads = [
        threading.Thread(target=fire, args=(index,), daemon=True)
        for index in range(len(bodies))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def bench_serve(
    server: ServingCore,
    query_tuples: Sequence[Sequence[str]],
    k: int = 10,
    requests: int = 200,
    concurrency: int = 8,
    warmup_requests: int = 0,
    timeout: float = 60.0,
    arrival: str = "closed",
    rate: float | None = None,
    api_key: str | None = None,
) -> dict:
    """Run a load pass against an (already started) embedded server.

    ``warmup_requests`` are issued and discarded first — with a cold
    snapshot they absorb lazy deserialization and index builds so the
    measured pass reflects steady-state serving.
    """
    if warmup_requests:
        run_load(
            server.host,
            server.port,
            query_tuples,
            k=k,
            requests=warmup_requests,
            concurrency=min(concurrency, warmup_requests),
            timeout=timeout,
            api_key=api_key,
        )
    report = run_load(
        server.host,
        server.port,
        query_tuples,
        k=k,
        requests=requests,
        concurrency=concurrency,
        timeout=timeout,
        arrival=arrival,
        rate=rate,
        api_key=api_key,
    )
    # Peak-RSS bookkeeping (after the load, i.e. with every lazily
    # mapped shard the workload needed faulted in): proves that N
    # snapshot-mapped workers share pages instead of multiplying RSS.
    report["memory"] = server.memory_stats()
    if server.snapshot_path is not None:
        # The *structural* per-worker footprint: a fresh process that
        # opens the snapshot and touches every shard, minus the
        # interpreter+numpy floor.  Live worker RSS is dominated by
        # transient query allocations; this figure isolates what the
        # snapshot itself costs each worker (every shard is mapped, so
        # it tends toward the parsed manifest alone).
        from repro.serving.pool import (
            interpreter_floor_rss_bytes,
            snapshot_worker_structural_rss_bytes,
        )

        structural = snapshot_worker_structural_rss_bytes(server.snapshot_path)
        floor = interpreter_floor_rss_bytes()
        report["memory"]["snapshot_worker_structural_rss_bytes"] = structural
        report["memory"]["snapshot_worker_structural_incremental_bytes"] = (
            max(0, structural - floor)
            if structural is not None and floor is not None
            else None
        )
    return report
