"""Frontend tests: admission control, limits, metrics, deadlines.

Pins the serving-tier acceptance criteria for the asyncio frontend
(``tests/test_serving.py`` holds the request/response and reload cases):

* answers are byte-identical to a direct ``GQBE.query`` call;
* a shed request (``429`` past the high-water mark) carries
  ``Retry-After`` and never touches the engine;
* rate-limited clients recover as their token bucket refills;
* a deadline expiry answers ``504`` while the cache generation guard
  stays intact — the abandoned result can never be served later;
* answer-cache entries expire after their TTL and keep the generation
  guard;
* a client that hangs up mid-request is not counted as a server error;
* ``GET /metrics`` renders a parseable Prometheus text exposition whose
  counters reconcile with the requests the test itself issued.

The serving defaults live on the ``AsyncGQBEServer`` / ``ServingCore``
constructors, which also refuse bad values; the CLI tests at the bottom
pin that each ``gqbe serve`` flag defaults to its constructor's default
and that a refused value is a usage error (exit 2), not a traceback.
"""

from __future__ import annotations

import http.client
import inspect
import json
import multiprocessing
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.config import GQBEConfig
from repro.core.gqbe import GQBE
from repro.datasets.example_graph import figure1_excerpt
from repro.graph.triples import write_triples
from repro.serving.async_server import AsyncGQBEServer
from repro.serving.cache import AnswerCache
from repro.serving.limits import (
    AdmissionGate,
    RateLimiter,
    TokenBucket,
    retry_after_header,
)
from repro.serving.metrics import (
    MetricsRegistry,
    parse_prometheus_text,
)


class FakeClock:
    """A manually advanced monotonic clock for limit/TTL tests."""

    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ----------------------------------------------------------------------
# TokenBucket / RateLimiter
# ----------------------------------------------------------------------
def test_token_bucket_starts_full_and_refills():
    clock = FakeClock()
    bucket = TokenBucket(rate=2.0, burst=3, clock=clock)
    assert [bucket.allow() for _ in range(3)] == [True, True, True]
    assert not bucket.allow()
    # Empty bucket at 2 tokens/s: one full token accrues in 0.5s.
    assert bucket.retry_after_seconds() == pytest.approx(0.5)
    clock.advance(0.5)
    assert bucket.allow()
    assert not bucket.allow()
    # Refill caps at burst: a long idle stretch grants at most 3 tokens.
    clock.advance(3600)
    assert [bucket.allow() for _ in range(4)] == [True, True, True, False]


def test_token_bucket_rejects_bad_parameters():
    with pytest.raises(ValueError, match="rate"):
        TokenBucket(rate=0, burst=1)
    with pytest.raises(ValueError, match="burst"):
        TokenBucket(rate=1, burst=0)


def test_rate_limiter_refuses_bad_parameters_up_front(figure1_graph):
    """Buckets are built on a client's first request; a bad rate must be
    refused when the limiter is built, not as a 500 on every query."""
    for rate in (0, -3):
        with pytest.raises(ValueError, match="rate must be > 0"):
            RateLimiter(rate=rate, burst=1)
    with pytest.raises(ValueError, match="burst must be >= 1"):
        RateLimiter(rate=1.0, burst=0)
    with pytest.raises(ValueError, match="rate must be > 0"):
        AsyncGQBEServer(
            GQBE(figure1_graph, config=GQBEConfig(mqg_size=10)),
            port=0,
            rate_limit_rps=0,
        )


def test_rate_limiter_check_and_refill():
    clock = FakeClock()
    limiter = RateLimiter(rate=1.0, burst=2, clock=clock)
    assert limiter.check("alice") is None
    assert limiter.check("alice") is None
    retry_after = limiter.check("alice")
    assert retry_after is not None and retry_after >= 1.0
    # Other clients have their own buckets.
    assert limiter.check("bob") is None
    clock.advance(1.0)
    assert limiter.check("alice") is None
    assert limiter.stats()["rejections"] == 1
    assert limiter.stats()["tracked_clients"] == 2


def test_rate_limiter_evicts_least_recently_used_bucket():
    clock = FakeClock()
    limiter = RateLimiter(rate=0.001, burst=1, max_clients=2, clock=clock)
    assert limiter.check("a") is None  # a's bucket now empty
    assert limiter.check("b") is None
    assert limiter.check("c") is None  # table full: "a" (LRU) dropped
    assert len(limiter._buckets) == 2
    # A returning evicted client starts from a fresh, full bucket: the
    # bound errs toward admitting, never toward starving.
    assert limiter.check("a") is None
    # "c" kept its bucket through the churn — and it is empty.
    assert limiter.check("c") is not None


# ----------------------------------------------------------------------
# AdmissionGate / Retry-After
# ----------------------------------------------------------------------
def test_admission_gate_bounds_in_flight_requests():
    gate = AdmissionGate(high_water=2)
    assert gate.try_enter()
    assert gate.try_enter()
    assert not gate.try_enter()
    assert gate.stats() == {
        "high_water": 2,
        "depth": 2,
        "admitted": 2,
        "rejections": 1,
    }
    gate.leave()
    assert gate.try_enter()
    gate.leave()
    gate.leave()
    with pytest.raises(RuntimeError, match="without a matching enter"):
        gate.leave()


def test_retry_after_header_is_a_positive_integer_rounded_up():
    assert retry_after_header(0.2) == "1"
    assert retry_after_header(1.0) == "1"
    assert retry_after_header(1.01) == "2"
    assert retry_after_header(5) == "5"


# ----------------------------------------------------------------------
# AnswerCache time-to-live (LRU + generation guard: tests/test_serving.py)
# ----------------------------------------------------------------------
def test_ttl_cache_expires_entries_on_access():
    clock = FakeClock()
    cache = AnswerCache(capacity=8, ttl_seconds=10.0, clock=clock)
    assert cache.put("key", {"answers": []}, cache.generation)
    assert cache.get("key") == {"answers": []}
    clock.advance(10.5)
    assert cache.get("key") is None
    assert cache.expirations == 1
    assert len(cache) == 0
    assert cache.stats()["expirations"] == 1 and cache.stats()["ttl_seconds"] == 10.0


def test_ttl_cache_keeps_generation_guard():
    clock = FakeClock()
    cache = AnswerCache(capacity=8, ttl_seconds=60.0, clock=clock)
    old_generation = cache.generation
    cache.invalidate()
    assert not cache.put("key", "stale", old_generation)
    assert cache.get("key") is None
    assert cache.stale_puts == 1
    assert cache.put("key", "fresh", cache.generation)
    assert cache.get("key") == "fresh"


def test_ttl_cache_rejects_non_positive_ttl():
    with pytest.raises(ValueError, match="ttl_seconds"):
        AnswerCache(capacity=8, ttl_seconds=0)


# ----------------------------------------------------------------------
# Metrics: exposition format and parse round-trip
# ----------------------------------------------------------------------
def test_metrics_exposition_format():
    registry = MetricsRegistry()
    requests = registry.counter("demo_requests_total", "Requests.", ("code",))
    registry.gauge("demo_depth", "Depth.", callback=lambda: 3)
    latency = registry.histogram(
        "demo_seconds", "Latency.", buckets=(0.1, 1.0), label_names=("stage",)
    )
    requests.inc(code="200")
    requests.inc(code="200")
    requests.inc(code="429")
    latency.observe(0.05, stage="total")
    latency.observe(2.0, stage="total")

    text = registry.render()
    lines = text.splitlines()
    assert "# HELP demo_requests_total Requests." in lines
    assert "# TYPE demo_requests_total counter" in lines
    assert 'demo_requests_total{code="200"} 2' in lines
    assert 'demo_requests_total{code="429"} 1' in lines
    assert "# TYPE demo_depth gauge" in lines
    assert "demo_depth 3" in lines  # integers render without ".0"
    assert "# TYPE demo_seconds histogram" in lines
    assert 'demo_seconds_bucket{le="0.1",stage="total"} 1' in lines
    assert 'demo_seconds_bucket{le="1",stage="total"} 1' in lines
    assert 'demo_seconds_bucket{le="+Inf",stage="total"} 2' in lines
    assert 'demo_seconds_sum{stage="total"} 2.05' in lines
    assert 'demo_seconds_count{stage="total"} 2' in lines
    assert text.endswith("\n")
    assert "0.0.4" in registry.content_type


def test_metrics_parse_roundtrip():
    registry = MetricsRegistry()
    counter = registry.counter("rt_total", "Round trip.", ("path", "code"))
    counter.inc(path="/query", code="200")
    counter.inc(3, path='/que"ry\n', code="429")
    histogram = registry.histogram("rt_seconds", "Latency.", buckets=(0.5,))
    histogram.observe(0.25)

    parsed = parse_prometheus_text(registry.render())
    assert parsed[("rt_total", (("code", "200"), ("path", "/query")))] == 1
    assert parsed[("rt_total", (("code", "429"), ("path", '/que"ry\n')))] == 3
    assert parsed[("rt_seconds_bucket", (("le", "0.5"),))] == 1
    assert parsed[("rt_seconds_bucket", (("le", "+Inf"),))] == 1
    assert parsed[("rt_seconds_sum", ())] == 0.25
    assert parsed[("rt_seconds_count", ())] == 1


def test_metrics_registry_guards():
    registry = MetricsRegistry()
    counter = registry.counter("guard_total", "Guard.")
    with pytest.raises(ValueError, match="already registered"):
        registry.counter("guard_total", "Duplicate.")
    with pytest.raises(ValueError, match="only go up"):
        counter.inc(-1)
    labelled = registry.counter("guard_labelled_total", "Guard.", ("path",))
    with pytest.raises(ValueError, match="takes labels"):
        labelled.inc(code="200")


# ----------------------------------------------------------------------
# HTTP helpers (raw http.client, header-aware)
# ----------------------------------------------------------------------
def _request(server, method, path, payload=None, headers=None):
    connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        body = json.dumps(payload) if payload is not None else None
        connection.request(
            method,
            path,
            body=body,
            headers={"Content-Type": "application/json", **(headers or {})},
        )
        response = connection.getresponse()
        raw = response.read()
        content_type = response.getheader("Content-Type", "")
        parsed = (
            json.loads(raw) if "application/json" in content_type else raw.decode()
        )
        return response.status, dict(response.getheaders()), parsed
    finally:
        connection.close()


def _post(server, path, payload, headers=None):
    status, _headers, body = _request(server, "POST", path, payload, headers)
    return status, body


def _get(server, path, headers=None):
    status, _headers, body = _request(server, "GET", path, headers=headers)
    return status, body


def _scrape(server):
    status, headers, text = _request(server, "GET", "/metrics")
    assert status == 200
    assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
    return parse_prometheus_text(text)


@pytest.fixture(scope="module")
def async_server(figure1_graph):
    server = AsyncGQBEServer(
        GQBE(figure1_graph, config=GQBEConfig(mqg_size=10)),
        port=0,
        cache_size=64,
    ).start()
    yield server
    server.stop()


# ----------------------------------------------------------------------
# Equivalence: served answers == direct query
# ----------------------------------------------------------------------
def test_async_answers_match_direct(async_server, figure1_system):
    payload = {"tuple": ["Jerry Yang", "Yahoo!"], "k": 5}
    status, via_async = _post(async_server, "/query", payload)
    assert status == 200 and via_async["cached"] is False

    direct = figure1_system.query(("Jerry Yang", "Yahoo!"), k=5)
    assert [tuple(a["entities"]) for a in via_async["answers"]] == [
        answer.entities for answer in direct.answers
    ]
    assert [a["score"] for a in via_async["answers"]] == [
        answer.score for answer in direct.answers
    ]


def test_async_reports_nodes_the_join_cap_skipped(figure1_graph):
    capped = GQBE(figure1_graph, config=GQBEConfig(mqg_size=10, max_join_rows=1))
    server = AsyncGQBEServer(capped, port=0).start()
    try:
        status, body = _post(
            server, "/query", {"tuple": ["Jerry Yang", "Yahoo!"], "k": 3}
        )
    finally:
        server.stop()
    assert status == 200
    assert body["nodes_skipped"] > 0
    direct = capped.query(("Jerry Yang", "Yahoo!"), k=3)
    assert body["peak_retained_rows"] == direct.statistics.peak_retained_rows


def test_async_cache_hit_bypasses_admission(async_server):
    payload = {"tuple": ["Jerry Yang", "Yahoo!"], "k": 7}
    _, first = _post(async_server, "/query", payload)
    assert first["cached"] is False
    admitted_before = async_server._gate.admitted
    _, second = _post(async_server, "/query", payload)
    assert second["cached"] is True
    assert second["answers"] == first["answers"]
    # The hit never held an admission slot.
    assert async_server._gate.admitted == admitted_before


def test_async_error_surface(async_server):
    assert _get(async_server, "/nope")[0] == 404
    status, _headers, body = _request(async_server, "PUT", "/query", {"k": 1})
    assert status == 405
    connection = http.client.HTTPConnection(
        async_server.host, async_server.port, timeout=30
    )
    try:
        connection.request("POST", "/query", body=b"{not json")
        assert connection.getresponse().status == 400
    finally:
        connection.close()
    status, body = _post(
        async_server, "/query", {"tuple": ["Jerry Yang", "Yahoo!"], "k": "ten"}
    )
    assert status == 400 and "k" in body["error"]
    for payload in (
        {"tuple": ["Jerry Yang", "Yahoo!"], "k": True},
        {"tuple": ["Jerry Yang", "Yahoo!"], "k_prime": True},
    ):
        status, body = _post(async_server, "/query", payload)
        assert status == 400 and "positive integer" in body["error"]
    oversized = async_server.max_body_bytes + 1
    connection = http.client.HTTPConnection(
        async_server.host, async_server.port, timeout=30
    )
    try:
        connection.putrequest("POST", "/query")
        connection.putheader("Content-Length", str(oversized))
        connection.endheaders()
        assert connection.getresponse().status == 413
    finally:
        connection.close()


def test_async_stats_and_metrics_endpoints(async_server):
    status, stats = _get(async_server, "/stats")
    assert status == 200
    assert stats["frontend"] == "async"
    assert stats["admission"]["high_water"] == async_server.high_water

    before = _scrape(async_server)
    _post(async_server, "/query", {"tuple": ["Jerry Yang", "Yahoo!"], "k": 4})
    after = _scrape(async_server)

    query_200 = ("gqbe_http_requests_total", (("code", "200"), ("path", "/query")))
    assert after[query_200] == before.get(query_200, 0) + 1
    assert after[("gqbe_queue_high_water", ())] == async_server.high_water
    assert after[("gqbe_queue_depth", ())] == 0
    assert after[("gqbe_snapshot_generation", ())] == async_server._cache.generation
    # Every engine call lands in the execute stage.
    count_key = ("gqbe_stage_seconds_count", (("stage", "execute"),))
    assert after[count_key] >= before.get(count_key, 0) + 1
    total_key = ("gqbe_stage_seconds_count", (("stage", "total"),))
    assert after[total_key] > before.get(total_key, 0)
    # perfbench reads these two keys from every serve run.
    engine = _get(async_server, "/stats")[1]["batcher"]
    assert engine["batches_run"] >= 1
    assert engine["mean_batch_size"] == 1.0


def test_total_stage_is_observed_for_query_requests_only(async_server):
    """``admission`` / ``queue`` / ``execute`` / ``total`` describe one
    query: info and admin routes stay out of ``total``."""
    total_key = ("gqbe_stage_seconds_count", (("stage", "total"),))
    before = _scrape(async_server).get(total_key, 0)
    assert _get(async_server, "/stats")[0] == 200
    assert _get(async_server, "/healthz")[0] == 200
    assert _get(async_server, "/nope")[0] == 404
    assert _post(async_server, "/admin/compact", None)[0] == 400
    assert _scrape(async_server).get(total_key, 0) == before
    assert _post(async_server, "/query", {"tuple": ["Bill Gates", "Microsoft"]})[0] == 200
    assert _scrape(async_server)[total_key] == before + 1


# ----------------------------------------------------------------------
# The engine executor is the one place an engine call is observed,
# inline or pooled
# ----------------------------------------------------------------------
_FOUNDERS = [
    ["Jerry Yang", "Yahoo!"],
    ["Steve Wozniak", "Apple Inc."],
    ["Sergey Brin", "Google"],
    ["Bill Gates", "Microsoft"],
]


@pytest.mark.parametrize(
    "workers",
    [
        pytest.param(1, id="inline"),
        pytest.param(
            2,
            id="pooled",
            marks=pytest.mark.skipif(
                "fork" not in multiprocessing.get_all_start_methods(),
                reason="a pool over an owned graph needs the fork start method",
            ),
        ),
    ],
)
def test_every_batch_reaches_metrics(figure1_graph, workers):
    """The ``queue`` / ``execute`` stages reconcile with ``/stats`` for
    four concurrent misses, one engine call each, inline and on the pool
    alike."""
    server = AsyncGQBEServer(
        GQBE(figure1_graph, config=GQBEConfig(mqg_size=10)),
        port=0,
        cache_size=0,
        workers=workers,
    ).start()
    try:
        with ThreadPoolExecutor(max_workers=len(_FOUNDERS)) as pool:
            responses = list(
                pool.map(
                    lambda query: _post(server, "/query", {"tuple": query, "k": 3}),
                    _FOUNDERS,
                )
            )
        assert [status for status, _ in responses] == [200] * len(_FOUNDERS)
        stats = server.stats()["batcher"]
        assert stats["batches_run"] == stats["queries_batched"] == len(_FOUNDERS)
        assert stats["pooled_batches"] == (stats["batches_run"] if workers > 1 else 0)
        metrics = _scrape(server)
        assert not [key for key in metrics if key[0].startswith("gqbe_batch_size")]
        stage = "gqbe_stage_seconds_count"
        assert metrics[(stage, (("stage", "execute"),))] == stats["batches_run"]
        assert metrics[(stage, (("stage", "queue"),))] == stats["queries_batched"]
        assert metrics[(stage, (("stage", "total"),))] == len(_FOUNDERS)
    finally:
        server.stop()


# ----------------------------------------------------------------------
# A client that hangs up mid-request is not a server error
# ----------------------------------------------------------------------
def test_client_hangup_mid_request_is_not_a_server_error(figure1_graph, caplog):
    server = AsyncGQBEServer(
        GQBE(figure1_graph, config=GQBEConfig(mqg_size=10)), port=0, cache_size=0
    ).start()
    try:
        torn = [
            # a body one byte long where the head promised a hundred
            b"POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: 100\r\n\r\n{",
            # a connection closed inside the header line
            b"POST /query HTTP/1.1\r\nContent-Le",
        ]
        for raw in torn:
            with socket.create_connection((server.host, server.port), timeout=30) as sock:
                sock.sendall(raw)
                sock.shutdown(socket.SHUT_WR)
                assert sock.recv(65536) == b""  # closed, nothing written back
        status, body = _post(
            server, "/query", {"tuple": ["Jerry Yang", "Yahoo!"], "k": 3}
        )
        assert status == 200 and body["answers"]
        stats = server.stats()
        assert stats["internal_errors"] == 0 and stats["request_errors"] == 0
        metrics = _scrape(server)
        assert metrics[("gqbe_http_internal_errors_total", ())] == 0
        assert not [
            key for key in metrics
            if key[0] == "gqbe_http_requests_total" and ("code", "500") in key[1]
        ]
        assert "Traceback" not in caplog.text
    finally:
        server.stop()


# ----------------------------------------------------------------------
# Admission gate over HTTP: 429 never touches the engine
# ----------------------------------------------------------------------
def test_async_queue_full_429_never_touches_batcher(figure1_graph, held_runner):
    server = AsyncGQBEServer(
        GQBE(figure1_graph, config=GQBEConfig(mqg_size=10)),
        port=0,
        high_water=1,
        cache_size=0,
    ).start()
    held = held_runner(server.system, "query")
    try:
        first: dict = {}

        def occupy_slot():
            first["response"] = _post(
                server, "/query", {"tuple": ["Jerry Yang", "Yahoo!"], "k": 3}
            )

        holder = threading.Thread(target=occupy_slot)
        holder.start()
        # Wait until the first request is inside the engine, not merely
        # admitted.
        assert held.entered.wait(timeout=10), "first request never reached the engine"
        assert server._gate.depth == 1

        status, headers, body = _request(
            server, "POST", "/query", {"tuple": ["Sergey Brin", "Google"], "k": 3}
        )
        assert status == 429
        assert int(headers["Retry-After"]) >= 1
        assert "capacity" in body["error"]
        # The shed request was refused before the engine: no engine call
        # queued or run.
        assert server._engine._work_queue.qsize() == 0
        held.release()
        holder.join(timeout=30)
        assert server.stats()["batcher"]["batches_run"] == 1
        assert held.calls == [(("Jerry Yang", "Yahoo!"), 3)]
        shed = _scrape(server)[
            ("gqbe_http_shed_total", (("reason", "queue_full"),))
        ]
        assert shed == 1
        assert first["response"][0] == 200
    finally:
        held.release()
        server.stop()


# ----------------------------------------------------------------------
# Rate limiting over HTTP
# ----------------------------------------------------------------------
def test_async_rate_limit_sheds_then_recovers(figure1_graph):
    server = AsyncGQBEServer(
        GQBE(figure1_graph, config=GQBEConfig(mqg_size=10)),
        port=0,
        rate_limit_rps=2.0,
        rate_limit_burst=2,
        cache_size=64,
    ).start()
    try:
        payload = {"tuple": ["Jerry Yang", "Yahoo!"], "k": 3}
        assert _post(server, "/query", payload)[0] == 200
        assert _post(server, "/query", payload)[0] == 200
        status, headers, body = _request(server, "POST", "/query", payload)
        assert status == 429
        assert int(headers["Retry-After"]) >= 1
        assert "rate limit" in body["error"]
        shed = _scrape(server)[
            ("gqbe_http_shed_total", (("reason", "rate_limit"),))
        ]
        assert shed >= 1
        # The bucket refills at 2 tokens/s: after ~0.6s one is back.
        time.sleep(0.6)
        assert _post(server, "/query", payload)[0] == 200
        assert server.stats()["rate_limit"]["rejections"] >= 1
    finally:
        server.stop()


# ----------------------------------------------------------------------
# Auth
# ----------------------------------------------------------------------
def test_async_api_key_allowlist(figure1_graph):
    server = AsyncGQBEServer(
        GQBE(figure1_graph, config=GQBEConfig(mqg_size=10)),
        port=0,
        api_keys=["secret-key"],
        cache_size=0,
    ).start()
    try:
        payload = {"tuple": ["Jerry Yang", "Yahoo!"], "k": 3}
        assert _post(server, "/query", payload)[0] == 401
        assert (
            _post(
                server,
                "/query",
                payload,
                headers={"Authorization": "Bearer wrong"},
            )[0]
            == 401
        )
        status, body = _post(
            server,
            "/query",
            payload,
            headers={"Authorization": "Bearer secret-key"},
        )
        assert status == 200 and body["answers"]
        # Reloads are behind the same allowlist.
        assert _post(server, "/admin/reload", {"snapshot": "x"})[0] == 401
        shed = _scrape(server)[
            ("gqbe_http_shed_total", (("reason", "unauthorized"),))
        ]
        assert shed == 3
    finally:
        server.stop()


# ----------------------------------------------------------------------
# Deadlines: 504 with the generation guard intact
# ----------------------------------------------------------------------
def test_async_deadline_expiry_504_generation_guard_intact(figure1_graph, monkeypatch):
    server = AsyncGQBEServer(
        GQBE(figure1_graph, config=GQBEConfig(mqg_size=10)),
        port=0,
        deadline_ms=100,
        cache_size=64,
    ).start()
    system = server.system
    inner = system.query
    try:
        def slow_query(*args, **kwargs):
            time.sleep(0.5)
            return inner(*args, **kwargs)

        monkeypatch.setattr(system, "query", slow_query)
        generation_before = server._cache.generation

        status, headers, body = _request(
            server, "POST", "/query", {"tuple": ["Jerry Yang", "Yahoo!"], "k": 3}
        )
        assert status == 504
        assert "deadline" in body["error"] and "100" in body["error"]
        timeouts = _scrape(server)[
            ("gqbe_http_timeouts_total", (("kind", "deadline"),))
        ]
        assert timeouts == 1

        # The guard is intact: nothing entered the cache, the generation
        # did not move, and the admission slot was released.
        assert server._cache.generation == generation_before
        assert len(server._cache) == 0
        assert server._gate.depth == 0

        # Once the slow call drains, the same query computes fresh —
        # the abandoned result is never served.
        monkeypatch.setattr(system, "query", inner)
        time.sleep(0.6)
        status, after = _post(
            server, "/query", {"tuple": ["Jerry Yang", "Yahoo!"], "k": 3}
        )
        assert status == 200 and after["cached"] is False
        assert after["generation"] == generation_before
    finally:
        server.stop()


def test_deadline_abandoned_batcher_slot_does_not_leak(figure1_graph, held_runner):
    """Fault: a request queued behind a held engine call misses its
    deadline.  It is answered 504, its engine call is cancelled and never
    runs, it frees its admission slot, and the server then answers the
    next query 200 in bounded time."""
    server = AsyncGQBEServer(
        GQBE(figure1_graph, config=GQBEConfig(mqg_size=10)),
        port=0,
        deadline_ms=100,
        cache_size=0,
    ).start()
    runner = held_runner(server.system, "query")
    try:
        with ThreadPoolExecutor(max_workers=1) as pool:
            first = pool.submit(
                _post, server, "/query", {"tuple": ["Jerry Yang", "Yahoo!"], "k": 3}
            )
            assert runner.entered.wait(timeout=10)
            status, body = _post(
                server, "/query", {"tuple": ["Sergey Brin", "Google"], "k": 3}
            )
            assert status == 504 and "deadline" in body["error"]
            assert first.result(timeout=10)[0] == 504
        # The abandoned call still sits in the queue, cancelled.
        runner.wait_queued(server, 1)
        runner.release()

        started = time.monotonic()
        status, body = _post(
            server, "/query", {"tuple": ["Steve Wozniak", "Apple Inc."], "k": 3}
        )
        assert status == 200 and body["answers"]
        assert time.monotonic() - started < 10
        assert [query for query, _ in runner.calls] == [
            ("Jerry Yang", "Yahoo!"),
            ("Steve Wozniak", "Apple Inc."),
        ]
        metrics = _scrape(server)
        assert metrics[("gqbe_queue_depth", ())] == 0
        assert metrics[("gqbe_http_timeouts_total", (("kind", "deadline"),))] == 2
    finally:
        server.stop()


# ----------------------------------------------------------------------
# CLI wiring: every serving flag defaults to its constructor's default
# ----------------------------------------------------------------------
def test_cli_serve_flags_default_from_the_constructors():
    from repro.cli import build_parser
    from repro.serving.server import ServingCore

    args = build_parser().parse_args(["serve", "--snapshot", "x.snap"])
    for owner, flags in (
        (
            AsyncGQBEServer,
            ("host", "port", "high_water", "deadline_ms", "rate_limit_rps",
             "rate_limit_burst"),
        ),
        (
            ServingCore,
            ("cache_size", "workers", "cache_ttl_seconds",
             "compact_threshold"),
        ),
    ):
        parameters = inspect.signature(owner.__init__).parameters
        for flag in flags:
            assert getattr(args, flag) == parameters[flag].default, flag
    assert args.api_keys is None

    args = build_parser().parse_args(
        [
            "serve",
            "--snapshot",
            "x.snap",
            "--high-water",
            "8",
            "--deadline-ms",
            "250",
            "--rate-limit-rps",
            "5.5",
            "--rate-limit-burst",
            "4",
            "--api-key",
            "k1",
            "--api-key",
            "k2",
            "--cache-ttl-seconds",
            "30",
        ]
    )
    assert args.high_water == 8
    assert args.deadline_ms == 250
    assert args.rate_limit_rps == 5.5
    assert args.rate_limit_burst == 4
    assert args.api_keys == ["k1", "k2"]
    assert args.cache_ttl_seconds == 30.0


def test_cli_bench_serve_arrival_wiring():
    from repro.cli import build_parser

    args = build_parser().parse_args(["bench-serve", "--workload", "freebase"])
    assert args.arrival == "closed" and args.rate is None
    args = build_parser().parse_args(
        ["bench-serve", "--workload", "freebase", "--arrival", "open", "--rate", "50"]
    )
    assert args.arrival == "open" and args.rate == 50.0


@pytest.mark.parametrize("command", ["serve", "bench-serve"])
@pytest.mark.parametrize(
    "flag, value",
    [
        ("--high-water", "0"),
        ("--workers", "0"),
        ("--deadline-ms", "0"),
        ("--cache-size", "-1"),
        ("--cache-ttl-seconds", "0"),
        ("--compact-threshold", "0"),
        ("--rate-limit-rps", "0"),
        ("--rate-limit-rps", "-3"),
    ],
)
def test_cli_refused_serving_value_is_a_usage_error(
    tmp_path, capsys, monkeypatch, command, flag, value
):
    """A value the server refuses exits 2 with one line on stderr — no
    traceback, and no server that starts only to fail every request."""
    from repro.cli import main

    def started(self):
        raise AssertionError(f"server started with {flag} {value}")

    monkeypatch.setattr(AsyncGQBEServer, "serve_forever", started)
    monkeypatch.setattr(AsyncGQBEServer, "start", started)
    path = tmp_path / "fig1.tsv"
    write_triples(sorted(figure1_excerpt().edges), path)
    argv = [command, str(path), "--port", "0", flag, value]
    if command == "bench-serve":
        argv += ["--tuple", "Jerry Yang,Yahoo!"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"gqbe {command}: error: ")
    assert len(err.strip().splitlines()) == 1


def test_build_frontend_wires_the_flags(figure1_graph):
    from repro.cli import build_frontend, build_parser

    system = GQBE(figure1_graph, config=GQBEConfig(mqg_size=10))
    args = build_parser().parse_args(
        [
            "serve",
            "--snapshot",
            "x.snap",
            "--high-water",
            "7",
            "--deadline-ms",
            "123",
            "--cache-ttl-seconds",
            "30",
        ]
    )
    server = build_frontend(system, None, args)
    try:
        assert isinstance(server, AsyncGQBEServer)
        assert server.high_water == 7
        assert server.deadline_ms == 123
        assert server.stats()["cache"]["ttl_seconds"] == 30.0
    finally:
        server._executor.shutdown(wait=False)
        server.close_engine()
