"""Serve-layer tests: HTTP frontend, engine executor, LRU answer cache.

Covers the serving acceptance criteria: concurrent JSON queries answered
from one warm snapshot load, one engine call per request on the core's
engine executor, and — critically — that the LRU answer cache never
serves a stale answer after a new snapshot is loaded (generation guard).
"""

from __future__ import annotations

import http.client
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import pytest

from repro.core.config import GQBEConfig
from repro.core.gqbe import GQBE
from repro.exceptions import UnknownEntityError
from repro.graph.knowledge_graph import KnowledgeGraph
from repro.serving.async_server import AsyncGQBEServer
from repro.serving.cache import AnswerCache
from repro.serving.metrics import parse_prometheus_text
from repro.serving.server import ServingCore
from repro.storage.snapshot import GraphStore


# ----------------------------------------------------------------------
# AnswerCache
# ----------------------------------------------------------------------
def test_cache_lru_eviction_order():
    cache = AnswerCache(capacity=2)
    generation = cache.generation
    cache.put("a", 1, generation)
    cache.put("b", 2, generation)
    assert cache.get("a") == 1  # refresh "a": now "b" is least recent
    cache.put("c", 3, generation)
    assert cache.get("b") is None
    assert cache.get("a") == 1
    assert cache.get("c") == 3
    assert cache.evictions == 1


def test_cache_generation_guard_drops_stale_puts():
    cache = AnswerCache(capacity=8)
    old_generation = cache.generation
    cache.invalidate()
    assert not cache.put("key", "stale", old_generation)
    assert cache.get("key") is None
    assert cache.put("key", "fresh", cache.generation)
    assert cache.get("key") == "fresh"
    assert cache.stale_puts == 1


def test_cache_zero_capacity_disables_caching():
    cache = AnswerCache(capacity=0)
    assert not cache.put("key", 1, cache.generation)
    assert cache.get("key") is None


# ----------------------------------------------------------------------
# The engine executor: one task per /query engine call
# ----------------------------------------------------------------------
_JERRY = ("Jerry Yang", "Yahoo!")
_SERGEY = ("Sergey Brin", "Google")
_STEVE = ("Steve Wozniak", "Apple Inc.")
_BILL = ("Bill Gates", "Microsoft")


@pytest.fixture()
def engine_core(figure1_graph):
    core = ServingCore(
        GQBE(figure1_graph, config=GQBEConfig(mqg_size=10)), cache_size=0
    )
    yield core
    core.close_engine()


def _ask(core, query, k=3):
    return core.handle_query({"tuple": list(query), "k": k})


def test_batcher_groups_by_ranking_parameters(engine_core, held_runner):
    """Requests queued behind a held engine call each run as their own
    call with their own ``k``: no call mixes requests or parameters."""
    held = held_runner(engine_core.system, "query")
    with ThreadPoolExecutor(max_workers=4) as pool:
        first = pool.submit(_ask, engine_core, _JERRY, 5)
        assert held.entered.wait(timeout=10)
        queued = [
            pool.submit(_ask, engine_core, query, k)
            for query, k in ((_SERGEY, 5), (_STEVE, 5), (_BILL, 9))
        ]
        held.wait_queued(engine_core, 3)
        held.release()
        responses = [future.result(timeout=10) for future in [first, *queued]]
    assert [(status, body["k"]) for status, body in responses] == [
        (200, 5), (200, 5), (200, 5), (200, 9)
    ]
    assert held.calls[0] == (_JERRY, 5)
    assert sorted(held.calls[1:]) == [(_BILL, 9), (_SERGEY, 5), (_STEVE, 5)]
    stats = engine_core.stats()["batcher"]
    assert (stats["batches_run"], stats["mean_batch_size"]) == (4, 1.0)


def test_batcher_wakes_each_ranking_group_as_soon_as_it_has_run(
    engine_core, held_runner, monkeypatch
):
    """A caller is answered as soon as its own engine call has run, while
    the call queued after it is still running."""
    slow_entered, slow_gate = threading.Event(), threading.Event()
    system = engine_core.system
    inner = system.query

    def query(query_tuple, k, k_prime):
        if k == 9:
            slow_entered.set()
            slow_gate.wait(timeout=30)
        return inner(query_tuple, k=k, k_prime=k_prime)

    monkeypatch.setattr(system, "query", query)
    held = held_runner(system, "query")
    try:
        with ThreadPoolExecutor(max_workers=3) as pool:
            pool.submit(_ask, engine_core, _JERRY)
            assert held.entered.wait(timeout=10)
            quick = pool.submit(_ask, engine_core, _SERGEY, 5)
            held.wait_queued(engine_core, 1)
            slow = pool.submit(_ask, engine_core, _STEVE, 9)
            held.wait_queued(engine_core, 2)
            held.release()
            assert slow_entered.wait(timeout=10)
            # The k=9 call is still held: the k=5 caller is answered anyway.
            status, body = quick.result(timeout=10)
            assert (status, body["query"]) == (200, [list(_SERGEY)])
            assert not slow.done()
            slow_gate.set()
            assert slow.result(timeout=10)[0] == 200
    finally:
        slow_gate.set()


def test_batcher_per_query_errors_do_not_poison_batchmates(engine_core, held_runner):
    held = held_runner(engine_core.system, "query")
    with ThreadPoolExecutor(max_workers=3) as pool:
        pool.submit(_ask, engine_core, _JERRY)
        assert held.entered.wait(timeout=10)
        good = pool.submit(_ask, engine_core, _SERGEY)
        bad = pool.submit(_ask, engine_core, ("Nobody", "Nowhere"))
        held.wait_queued(engine_core, 2)
        held.release()
        assert good.result(timeout=10)[0] == 200
        status, body = bad.result(timeout=10)
        assert (status, body["type"]) == (400, UnknownEntityError.__name__)
    # Both queued behind the held call; each ran as its own call.
    assert len(held.calls) == 3


def test_batcher_observer_failure_reaches_callers_not_the_dispatcher(figure1_graph):
    failures = iter([RuntimeError("observer broke")])

    class Core(ServingCore):
        def _observe_engine_call(self, queue_seconds, execute_seconds):
            failure = next(failures, None)
            if failure is not None:
                raise failure

    core = Core(GQBE(figure1_graph, config=GQBEConfig(mqg_size=10)), cache_size=0)
    try:
        with pytest.raises(RuntimeError, match="observer broke"):
            _ask(core, _JERRY)
        assert _ask(core, _JERRY)[0] == 200
    finally:
        core.close_engine()


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one engine thread per CPU")
def test_batcher_keeps_one_batch_in_flight_per_pool_worker(
    figure1_graph, held_runner, monkeypatch
):
    """With a pool, a lone request does not wait for an unrelated one:
    while one pool call is held, the next runs beside it."""
    system = GQBE(figure1_graph, config=GQBEConfig(mqg_size=10))
    pool = SimpleNamespace(
        workers=2, query_batch=system.query_batch, close=dict, stats=dict
    )
    held = held_runner(pool, "query_batch")
    monkeypatch.setattr(ServingCore, "_make_pool", lambda self: pool)
    core = ServingCore(system, cache_size=0, workers=2)
    try:
        with ThreadPoolExecutor(max_workers=1) as executor:
            first = executor.submit(_ask, core, _JERRY)
            assert held.entered.wait(timeout=10)
            assert _ask(core, _SERGEY)[0] == 200
            assert not first.done()
            held.release()
            assert first.result(timeout=10)[0] == 200
        assert core.stats()["batcher"]["pooled_batches"] == 2
    finally:
        core.close_engine()


def test_batcher_close_rejects_new_submissions(engine_core):
    engine_core.close_engine()
    with pytest.raises(RuntimeError):
        _ask(engine_core, _JERRY)


@pytest.mark.parametrize("transport", ["handle_query", "http"])
def test_multi_tuple_query_honours_request_timeout(figure1_graph, transport):
    """A multi-tuple request behind a held engine shares the single-tuple
    budget: it is answered 503 at ``request_timeout``, not once the
    engine is free."""
    server = AsyncGQBEServer(
        GQBE(figure1_graph, config=GQBEConfig(mqg_size=10)),
        port=0,
        cache_size=0,
        request_timeout=0.2,
    )
    if transport == "http":
        server.start()
    payload = {"tuples": [list(_JERRY), list(_SERGEY)], "k": 3}

    def ask():
        if transport == "http":
            return _post(server, "/query", payload)
        return server.handle_query(payload)

    try:
        with ThreadPoolExecutor(max_workers=1) as pool:
            with server._exec_lock:
                started = time.monotonic()
                status, body = pool.submit(ask).result(timeout=1.0)
                elapsed = time.monotonic() - started
        assert status == 503, body
        assert elapsed < 1.0
    finally:
        server.stop()


# ----------------------------------------------------------------------
# AsyncGQBEServer over HTTP (admission control: tests/test_async_serving.py)
# ----------------------------------------------------------------------
def _second_graph() -> KnowledgeGraph:
    """A graph where the Fig. 1 founder query has different answers."""
    graph = KnowledgeGraph()
    for founder, company in [
        ("Jerry Yang", "Yahoo!"),
        ("Ada Lovelace", "Analytical Engines Ltd"),
        ("Grace Hopper", "COBOL Systems"),
    ]:
        graph.add_edge(founder, "founded", company)
        graph.add_edge(founder, "profession", "Engineer")
        graph.add_edge(company, "industry", "Computing")
    return graph


@pytest.fixture(scope="module")
def figure1_server(figure1_graph):
    server = AsyncGQBEServer(
        GQBE(figure1_graph, config=GQBEConfig(mqg_size=10)),
        port=0,
        cache_size=64,
    ).start()
    yield server
    server.stop()


def _post(server, path, payload):
    connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        connection.request(
            "POST",
            path,
            body=json.dumps(payload),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def _get(server, path):
    connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def _scrape(server):
    connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        connection.request("GET", "/metrics")
        return parse_prometheus_text(connection.getresponse().read().decode())
    finally:
        connection.close()


def test_serve_answers_match_direct_query(figure1_server, figure1_system):
    status, body = _post(
        figure1_server, "/query", {"tuple": ["Jerry Yang", "Yahoo!"], "k": 5}
    )
    assert status == 200
    direct = figure1_system.query(("Jerry Yang", "Yahoo!"), k=5)
    assert [tuple(a["entities"]) for a in body["answers"]] == [
        answer.entities for answer in direct.answers
    ]
    assert [a["score"] for a in body["answers"]] == [
        answer.score for answer in direct.answers
    ]
    assert body["cached"] is False


def test_serve_concurrent_requests_batch_and_agree(figure1_server, figure1_system):
    queries = [["Jerry Yang", "Yahoo!"], ["Sergey Brin", "Google"]] * 4
    with ThreadPoolExecutor(max_workers=8) as pool:
        responses = list(
            pool.map(
                lambda q: _post(figure1_server, "/query", {"tuple": q, "k": 3}),
                queries,
            )
        )
    for (status, body), query in zip(responses, queries):
        assert status == 200
        direct = figure1_system.query(tuple(query), k=3)
        assert [tuple(a["entities"]) for a in body["answers"]] == [
            answer.entities for answer in direct.answers
        ]
    stats = figure1_server.stats()
    assert stats["requests_served"] >= len(queries)
    assert stats["batcher"]["queries_batched"] >= 1


def test_serve_cache_hit_on_repeat(figure1_server):
    payload = {"tuple": ["Steve Wozniak", "Apple Inc."], "k": 4}
    status1, first = _post(figure1_server, "/query", payload)
    status2, second = _post(figure1_server, "/query", payload)
    assert status1 == status2 == 200
    assert second["cached"] is True
    assert first["answers"] == second["answers"]


def test_serve_multi_tuple_query(figure1_server, figure1_system):
    payload = {
        "tuples": [["Jerry Yang", "Yahoo!"], ["Sergey Brin", "Google"]],
        "k": 4,
    }
    status, body = _post(figure1_server, "/query", payload)
    assert status == 200
    direct = figure1_system.query_multi(
        [("Jerry Yang", "Yahoo!"), ("Sergey Brin", "Google")], k=4
    )
    assert [tuple(a["entities"]) for a in body["answers"]] == [
        answer.entities for answer in direct.answers
    ]


def test_serve_rejects_bad_requests(figure1_server):
    assert _post(figure1_server, "/query", {"k": 3})[0] == 400
    assert _post(figure1_server, "/query", {"tuple": []})[0] == 400
    assert _post(figure1_server, "/query", {"tuple": ["x"], "k": 0})[0] == 400
    # JSON booleans are not counts, though bool is an int subclass.
    for body in (
        {"tuple": ["Jerry Yang", "Yahoo!"], "k": True},
        {"tuple": ["Jerry Yang", "Yahoo!"], "k_prime": True},
    ):
        status, answer = _post(figure1_server, "/query", body)
        assert status == 400 and "positive integer" in answer["error"]
    status, body = _post(figure1_server, "/query", {"tuple": ["NoSuchEntity"]})
    assert status == 400 and body["type"] == "UnknownEntityError"
    assert _get(figure1_server, "/nope")[0] == 404


def _raw_request(server, raw: bytes):
    """Send a hand-crafted HTTP request; returns (status, parsed body)."""
    import socket

    with socket.create_connection((server.host, server.port), timeout=30) as sock:
        sock.sendall(raw)
        sock.shutdown(socket.SHUT_WR)
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    # Keep only the first response's JSON object.
    return status, json.loads(body.split(b"\r\n")[0] or body)


def test_serve_caps_oversized_request_bodies(figure1_server):
    """Satellite: an attacker-declared Content-Length cannot make the
    server allocate arbitrary memory — it is refused with 413 before a
    single body byte is read."""
    huge = figure1_server.max_body_bytes + 1
    raw = (
        b"POST /query HTTP/1.1\r\n"
        b"Host: test\r\nContent-Type: application/json\r\n"
        + f"Content-Length: {huge}\r\n\r\n".encode()
    )
    status, body = _raw_request(figure1_server, raw)
    assert status == 413
    assert "exceeds" in body["error"] and str(huge) in body["error"]
    # The server is still healthy afterwards.
    assert _get(figure1_server, "/healthz")[0] == 200


def test_serve_accepts_bodies_under_the_cap(figure1_graph, tmp_path):
    server = AsyncGQBEServer(
        GQBE(figure1_graph, config=GQBEConfig(mqg_size=10)),
        port=0,
        cache_size=0,
        max_body_bytes=256,
    ).start()
    try:
        status, _ = _post(
            server, "/query", {"tuple": ["Jerry Yang", "Yahoo!"], "k": 2}
        )
        assert status == 200
        big_payload = {"tuple": ["Jerry Yang", "Yahoo!"], "pad": "x" * 512}
        status, body = _post(server, "/query", big_payload)
        assert status == 413
    finally:
        server.stop()


def test_serve_malformed_content_length_is_accurate_400(figure1_server):
    """Satellite: ``Content-Length: abc`` used to fall into the generic
    "request body is not valid JSON" 400; it must name the real problem."""
    raw = (
        b"POST /query HTTP/1.1\r\n"
        b"Host: test\r\nContent-Type: application/json\r\n"
        b"Content-Length: abc\r\n\r\n"
    )
    status, body = _raw_request(figure1_server, raw)
    assert status == 400
    assert "Content-Length" in body["error"]
    assert "JSON" not in body["error"]

    raw = (
        b"POST /query HTTP/1.1\r\n"
        b"Host: test\r\nContent-Type: application/json\r\n"
        b"Content-Length: -5\r\n\r\n"
    )
    status, body = _raw_request(figure1_server, raw)
    assert status == 400 and "Content-Length" in body["error"]


def test_serve_internal_errors_are_opaque(figure1_graph, monkeypatch):
    """Satellite: the last-resort 500 must not leak exception details to
    the client; the traceback is logged server-side and counted."""
    server = AsyncGQBEServer(
        GQBE(figure1_graph, config=GQBEConfig(mqg_size=10)), port=0, cache_size=0
    ).start()
    try:
        def explode(payload):
            raise TypeError("secret internal detail: /etc/gqbe/snapshot.bin")

        monkeypatch.setattr(server, "_parse_query_payload", explode)
        status, body = _post(
            server, "/query", {"tuple": ["Jerry Yang", "Yahoo!"]}
        )
        assert status == 500
        assert body == {"error": "internal server error"}
        stats = server.stats()
        assert stats["internal_errors"] == 1
        assert stats["request_errors"] >= 1
        assert _scrape(server)[("gqbe_http_internal_errors_total", ())] == 1
    finally:
        server.stop()


def test_serve_healthz(figure1_server, figure1_graph):
    status, body = _get(figure1_server, "/healthz")
    assert status == 200
    assert body["status"] == "ok"
    assert body["graph"]["edges"] == figure1_graph.num_edges


def test_serve_cache_never_stale_after_snapshot_reload(figure1_graph, tmp_path):
    """The acceptance-critical staleness test.

    Query against snapshot A (answers cached), hot-swap snapshot B whose
    graph ranks different founders, re-issue the same query: the response
    must be B's answer, never A's cached one.
    """
    snap_a = tmp_path / "a.snap"
    snap_b = tmp_path / "b.snap"
    GraphStore.build(figure1_graph).save(snap_a)
    graph_b = _second_graph()
    GraphStore.build(graph_b).save(snap_b)

    server = AsyncGQBEServer.from_snapshot(
        snap_a,
        port=0,
        cache_size=64,
        cache_ttl_seconds=3600.0,  # a live TTL must not outlive a reload either
    ).start()
    try:
        payload = {"tuple": ["Jerry Yang", "Yahoo!"], "k": 5}
        _, before = _post(server, "/query", payload)
        _, before_again = _post(server, "/query", payload)
        assert before_again["cached"] is True

        generation_metric = _scrape(server)[("gqbe_snapshot_generation", ())]
        status, reload_body = _post(
            server, "/admin/reload", {"snapshot": str(snap_b)}
        )
        assert status == 200 and reload_body["reloaded"] is True
        assert reload_body["generation"] > before["generation"]
        assert _scrape(server)[("gqbe_snapshot_generation", ())] > generation_metric

        _, after = _post(server, "/query", payload)
        assert after["cached"] is False
        assert after["generation"] > before["generation"]
        expected = GQBE(graph_b).query(("Jerry Yang", "Yahoo!"), k=5)
        assert [tuple(a["entities"]) for a in after["answers"]] == [
            answer.entities for answer in expected.answers
        ]
        assert after["answers"] != before["answers"]
    finally:
        server.stop()


def test_serve_reload_failures_are_clean_400s(figure1_server, tmp_path):
    """Satellite: unreadable/corrupt snapshots surface as one typed
    SnapshotError through ``POST /admin/reload`` — a 400 naming the
    path, never a raw-traceback 500."""
    missing = tmp_path / "missing.snap"
    status, body = _post(
        figure1_server, "/admin/reload", {"snapshot": str(missing)}
    )
    assert status == 400
    assert body["type"] == "SnapshotError"
    assert "missing.snap" in body["error"]

    retired = tmp_path / "retired.snap"  # a single-file snapshot
    retired.write_bytes(b"GQBESNAP" + b"\x00" * 64)
    status, body = _post(
        figure1_server, "/admin/reload", {"snapshot": str(retired)}
    )
    assert status == 400 and body["type"] == "SnapshotError"
    assert "gqbe build-index" in body["error"]

    corrupt_dir = tmp_path / "corrupt.snapdir"
    corrupt_dir.mkdir()
    (corrupt_dir / "MANIFEST.json").write_text("{not json")
    status, body = _post(
        figure1_server, "/admin/reload", {"snapshot": str(corrupt_dir)}
    )
    assert status == 400 and body["type"] == "SnapshotError"
    # The server kept serving from its original snapshot throughout.
    assert _get(figure1_server, "/healthz")[0] == 200


def test_serve_in_flight_result_cannot_poison_cache_after_reload(
    figure1_graph, tmp_path
):
    """A put computed against the old snapshot is dropped by the guard."""
    snap = tmp_path / "a.snap"
    GraphStore.build(figure1_graph).save(snap)
    server = ServingCore.from_snapshot(snap, cache_size=64)
    try:
        generation_before = server._cache.generation
        status, body = server.handle_query(
            {"tuple": ["Jerry Yang", "Yahoo!"], "k": 3}
        )
        assert status == 200
        # Simulate a reload landing between compute and a later (stale) put.
        server._cache.invalidate()
        assert not server._cache.put("whatever", body, generation_before)
        status, after = server.handle_query(
            {"tuple": ["Jerry Yang", "Yahoo!"], "k": 3}
        )
        assert status == 200 and after["cached"] is False
    finally:
        server.close_engine()


def test_serve_reports_nodes_the_join_cap_skipped(figure1_server, figure1_graph):
    """A query whose joins overflow ``max_join_rows`` says so in its body."""
    payload = {"tuple": ["Jerry Yang", "Yahoo!"], "k": 3}
    assert _post(figure1_server, "/query", payload)[1]["nodes_skipped"] == 0
    capped = GQBE(figure1_graph, config=GQBEConfig(mqg_size=10, max_join_rows=1))
    core = ServingCore(capped)
    try:
        status, body = core.handle_query(payload)
    finally:
        core.close_engine()
    assert status == 200
    assert body["nodes_skipped"] > 0


def test_serve_reports_the_peak_retained_rows(figure1_server, figure1_graph):
    """The ``/query`` body carries the exploration's peak retained rows."""
    payload = {"tuple": ["Jerry Yang", "Yahoo!"], "k": 3}
    body = _post(figure1_server, "/query", payload)[1]
    system = GQBE(figure1_graph, config=GQBEConfig(mqg_size=10))
    direct = system.query(("Jerry Yang", "Yahoo!"), k=3)
    assert body["peak_retained_rows"] == direct.statistics.peak_retained_rows > 0


# ----------------------------------------------------------------------
# bench-serve load driver + CLI plumbing
# ----------------------------------------------------------------------
def test_bench_serve_load_driver(figure1_server):
    from repro.serving.loadgen import run_load

    report = run_load(
        figure1_server.host,
        figure1_server.port,
        [["Jerry Yang", "Yahoo!"], ["Sergey Brin", "Google"]],
        k=3,
        requests=12,
        concurrency=4,
    )
    assert report["completed"] == 12 and report["errors"] == 0
    assert report["throughput_rps"] > 0
    assert report["latency_ms"]["p95"] >= report["latency_ms"]["p50"] > 0


def test_cli_bench_serve_workload(tmp_path, capsys):
    from repro.cli import main

    out = tmp_path / "report.json"
    exit_code = main(
        [
            "bench-serve",
            "--workload",
            "freebase",
            "--scale",
            "0.1",
            "--requests",
            "10",
            "--concurrency",
            "2",
            "--warmup",
            "2",
            "--port",
            "0",
            "--json",
            str(out),
        ]
    )
    assert exit_code == 0
    report = json.loads(out.read_text())
    assert report["completed"] == 10 and report["errors"] == 0
    assert "throughput" in capsys.readouterr().out


def test_cli_bench_serve_rejects_workload_plus_snapshot(capsys):
    from repro.cli import main

    assert main(["bench-serve", "--workload", "freebase", "--snapshot", "x.snap"]) == 2
    assert "not both" in capsys.readouterr().err


def test_cli_serve_parser_wiring():
    from repro.cli import build_parser

    args = build_parser().parse_args(
        ["serve", "--snapshot", "x.snap", "--port", "0"]
    )
    assert args.snapshot == "x.snap"
    assert args.port == 0
    assert args.max_body_bytes is None  # server default (4 MiB) applies
    assert args.func.__name__ == "_cmd_serve"

    args = build_parser().parse_args(
        ["serve", "--snapshot", "x.snap", "--max-body-bytes", "1024"]
    )
    assert args.max_body_bytes == 1024


@pytest.mark.parametrize(
    "argv",
    [
        ["serve", "--snapshot", "x.snap", "--frontend", "threaded"],
        ["bench-serve", "--workload", "freebase", "--snapshot-format", "v2"],
        ["build-index", "in.tsv", "out.snap", "--format", "v1"],
        ["build-index", "in.tsv", "out.snap", "--rows"],
        ["serve", "--snapshot", "x.snap", "--batch-window-ms", "2"],
        ["bench-serve", "--workload", "freebase", "--batch-window-ms", "0"],
        ["serve", "--max-batch", "8"],
    ],
)
def test_cli_retired_selectors_are_gone(argv, capsys):
    """One format, one frontend, no batching: the flags that chose
    another are usage errors, not silently ignored."""
    from repro.cli import build_parser

    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(argv)
    assert excinfo.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
