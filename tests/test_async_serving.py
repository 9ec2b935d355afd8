"""Frontend tests: admission control, limits, metrics, deadlines.

Pins the serving-tier acceptance criteria for the asyncio frontend
(``tests/test_serving.py`` holds the request/response and reload cases):

* answers are byte-identical to a direct ``GQBE.query`` call;
* a shed request (``429`` past the high-water mark) carries
  ``Retry-After`` and never touches the batcher;
* rate-limited clients recover as their token bucket refills;
* a deadline expiry answers ``504`` while the cache generation guard
  stays intact — the abandoned result can never be served later;
* answer-cache entries expire after their TTL and keep the generation
  guard;
* a client that hangs up mid-request is not counted as a server error;
* ``GET /metrics`` renders a parseable Prometheus text exposition whose
  counters reconcile with the requests the test itself issued.

The admission-control defaults live on ``GQBEConfig``
(``serve_high_water``, ``serve_deadline_ms``, ``serve_rate_limit_rps``,
``serve_rate_limit_burst``, ``serve_cache_ttl_seconds``); the CLI wiring
tests at the bottom pin that each flag defaults from its config field.
"""

from __future__ import annotations

import http.client
import json
import multiprocessing
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.config import GQBEConfig
from repro.core.gqbe import GQBE
from repro.exceptions import EvaluationError
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
    # Every engine execution lands in the batch-size histogram.
    count_key = ("gqbe_batch_size_count", ())
    assert after[count_key] >= before.get(count_key, 0) + 1
    total_key = ("gqbe_stage_seconds_count", (("stage", "total"),))
    assert after[total_key] > before.get(total_key, 0)


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
# The batcher is the one place a batch is observed, inline or pooled
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
    """``gqbe_batch_size`` and the ``queue`` / ``execute`` stages reconcile
    with ``/stats`` for four concurrent misses, whatever batches they
    form, on the inline runner and on the pool alike."""
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
        assert stats["queries_batched"] == len(_FOUNDERS)
        assert stats["pooled_batches"] == (stats["batches_run"] if workers > 1 else 0)
        metrics = _scrape(server)
        assert metrics[("gqbe_batch_size_count", ())] == stats["batches_run"]
        assert metrics[("gqbe_batch_size_sum", ())] == stats["queries_batched"]
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
# Admission gate over HTTP: 429 never touches the batcher
# ----------------------------------------------------------------------
def test_async_queue_full_429_never_touches_batcher(figure1_graph):
    server = AsyncGQBEServer(
        GQBE(figure1_graph, config=GQBEConfig(mqg_size=10)),
        port=0,
        high_water=1,
        cache_size=0,
    ).start()
    inner = server._batcher._runner
    try:
        release = threading.Event()

        def slow_runner(tuples, k, k_prime):
            release.wait(timeout=30)
            return inner(tuples, k, k_prime)

        server._batcher._runner = slow_runner
        first: dict = {}

        def occupy_slot():
            first["response"] = _post(
                server, "/query", {"tuple": ["Jerry Yang", "Yahoo!"], "k": 3}
            )

        holder = threading.Thread(target=occupy_slot)
        holder.start()
        deadline = time.monotonic() + 10
        while server._gate.depth < 1:
            assert time.monotonic() < deadline, "first request never admitted"
            time.sleep(0.005)

        batcher_before = server._batcher.stats()
        status, headers, body = _request(
            server, "POST", "/query", {"tuple": ["Sergey Brin", "Google"], "k": 3}
        )
        assert status == 429
        assert int(headers["Retry-After"]) >= 1
        assert "capacity" in body["error"]
        # The shed request was refused before the engine: no new batcher
        # submissions, no new batches.
        assert server._batcher.stats() == batcher_before
        shed = _scrape(server)[
            ("gqbe_http_shed_total", (("reason", "queue_full"),))
        ]
        assert shed == 1

        release.set()
        holder.join(timeout=30)
        assert first["response"][0] == 200
    finally:
        server._batcher._runner = inner
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
def test_async_deadline_expiry_504_generation_guard_intact(figure1_graph):
    server = AsyncGQBEServer(
        GQBE(figure1_graph, config=GQBEConfig(mqg_size=10)),
        port=0,
        deadline_ms=100,
        cache_size=64,
    ).start()
    inner = server._batcher._runner
    try:
        def slow_runner(tuples, k, k_prime):
            time.sleep(0.5)
            return inner(tuples, k, k_prime)

        server._batcher._runner = slow_runner
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

        # Once the slow batch drains, the same query computes fresh —
        # the abandoned result is never served.
        server._batcher._runner = inner
        time.sleep(0.6)
        status, after = _post(
            server, "/query", {"tuple": ["Jerry Yang", "Yahoo!"], "k": 3}
        )
        assert status == 200 and after["cached"] is False
        assert after["generation"] == generation_before
    finally:
        server._batcher._runner = inner
        server.stop()


def test_deadline_abandoned_batcher_slot_does_not_leak(figure1_graph, held_runner):
    """Fault: a request queued behind a held engine call misses its
    deadline.  It is answered 504, leaves the batcher queue without ever
    reaching the runner, frees its admission slot, and the server then
    answers the next query 200 in bounded time."""
    server = AsyncGQBEServer(
        GQBE(figure1_graph, config=GQBEConfig(mqg_size=10)),
        port=0,
        deadline_ms=100,
        cache_size=0,
    ).start()
    batcher = server._batcher
    runner = held_runner(batcher._runner)
    batcher._runner = runner
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
        # The abandoned entry leaves the queue before the worker is free.
        runner.wait_queued(batcher, 0)
        runner.release()

        started = time.monotonic()
        status, body = _post(
            server, "/query", {"tuple": ["Steve Wozniak", "Apple Inc."], "k": 3}
        )
        assert status == 200 and body["answers"]
        assert time.monotonic() - started < 10
        assert [tuples for tuples, _, _ in runner.calls] == [
            [("Jerry Yang", "Yahoo!")],
            [("Steve Wozniak", "Apple Inc.")],
        ]
        metrics = _scrape(server)
        assert metrics[("gqbe_queue_depth", ())] == 0
        assert metrics[("gqbe_http_timeouts_total", (("kind", "deadline"),))] == 2
    finally:
        server.stop()


# ----------------------------------------------------------------------
# CLI wiring: every admission flag defaults from its GQBEConfig field
# ----------------------------------------------------------------------
def test_cli_serve_admission_flags_default_from_config():
    from repro.cli import build_parser

    defaults = GQBEConfig()
    args = build_parser().parse_args(["serve", "--snapshot", "x.snap"])
    assert args.high_water == defaults.serve_high_water == 64
    assert args.deadline_ms == defaults.serve_deadline_ms is None
    assert args.rate_limit_rps == defaults.serve_rate_limit_rps is None
    assert args.rate_limit_burst == defaults.serve_rate_limit_burst == 32
    assert args.cache_ttl_seconds == defaults.serve_cache_ttl_seconds is None
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


def test_config_validates_serve_fields():
    with pytest.raises(EvaluationError, match="serve_high_water"):
        GQBEConfig(serve_high_water=0)
    with pytest.raises(EvaluationError, match="serve_deadline_ms"):
        GQBEConfig(serve_deadline_ms=0)
    with pytest.raises(EvaluationError, match="serve_rate_limit_rps"):
        GQBEConfig(serve_rate_limit_rps=0)
    with pytest.raises(EvaluationError, match="serve_rate_limit_burst"):
        GQBEConfig(serve_rate_limit_burst=0)
    with pytest.raises(EvaluationError, match="serve_cache_ttl_seconds"):
        GQBEConfig(serve_cache_ttl_seconds=0)


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
        server._batcher.close()
