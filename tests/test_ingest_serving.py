"""Serving-layer tests for the write path: ingest, compaction, crash safety.

Pins the operational guarantees of ``POST /admin/ingest`` and
``POST /admin/compact``:

* ingested edges become queryable immediately and the answer cache is
  invalidated — no response sent after the ingest ack describes the
  pre-ingest graph;
* concurrent queries racing ingest bursts and a compaction swap each see
  a *consistent* state: every response matches exactly one of the
  cumulative ground-truth stages, never a torn mixture;
* compaction writes a fresh generation next to the base via tmp-dir +
  atomic rename; a writer crash mid-flush leaves the server answering
  from the live delta, and restart resolution picks the newest valid
  generation while sweeping ``.tmp`` wreckage;
* ``--compact-threshold`` (``ServingCore(compact_threshold=...)``)
  triggers the same fold automatically in the background;
* ``/stats`` counters and ``/metrics`` series reconcile with the traffic
  the test itself issued.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import pytest

from repro.core.config import GQBEConfig
from repro.core.gqbe import GQBE
from repro.datasets.example_graph import figure1_excerpt
from repro.exceptions import SnapshotError
from repro.serving.async_server import AsyncGQBEServer
from repro.serving.metrics import parse_prometheus_text
from repro.serving.server import ServingCore
from repro.storage.generations import (
    generation_number,
    generation_path,
    generation_root,
    list_generations,
    next_generation_path,
    orphan_tmp_paths,
    prune_generations,
    resolve_latest_generation,
)
from repro.storage.snapshot import GraphStore

QUERY = ["Jerry Yang", "Yahoo!"]

#: Ingest bursts shaped like the Fig. 1 schema: each adds a founder and
#: a company wired into the existing graph, changing the answer list for
#: the running-example query.
BURSTS = [
    [
        ["Ada Lovelace", "founded", "Analytical Co"],
        ["Ada Lovelace", "education", "Stanford"],
        ["Ada Lovelace", "nationality", "USA"],
        ["Analytical Co", "headquartered_in", "Sunnyvale"],
        ["Analytical Co", "industry", "Technology"],
    ],
    [
        ["Grace Hopper", "founded", "Compiler Co"],
        ["Grace Hopper", "education", "Stanford"],
        ["Grace Hopper", "nationality", "USA"],
        ["Compiler Co", "headquartered_in", "Mountain View"],
        ["Compiler Co", "industry", "Technology"],
    ],
]


# ----------------------------------------------------------------------
# HTTP helpers
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
        return response.status, parsed
    finally:
        connection.close()


def _post(server, path, payload=None, headers=None):
    return _request(server, "POST", path, payload, headers)


def _get(server, path):
    return _request(server, "GET", path)


def _answer_entities(body):
    return [tuple(answer["entities"]) for answer in body["answers"]]


def _expected_entities(graph, k=10):
    # Default config, matching what GQBE.from_snapshot builds for the
    # served snapshot — answers are only comparable under equal configs.
    result = GQBE(graph).query(tuple(QUERY), k=k)
    return [tuple(answer.entities) for answer in result.answers]


def _snapshot(figure1_graph, tmp_path):
    path = tmp_path / "fig1.snapdir"
    GraphStore.build(figure1_graph).save(path)
    return path


def _merged(figure1_graph, *bursts):
    merged = figure1_graph.copy()
    for burst in bursts:
        for subject, label, obj in burst:
            merged.add_edge(subject, label, obj)
    return merged


# ----------------------------------------------------------------------
# generation layout unit tests
# ----------------------------------------------------------------------
class TestGenerations:
    def test_path_arithmetic(self, tmp_path):
        root = tmp_path / "data.snapdir"
        gen3 = generation_path(root, 3)
        assert gen3.name == "data.snapdir.gen3"
        assert generation_number(gen3) == 3
        assert generation_number(root) == 0
        assert generation_root(gen3) == root
        # Path arithmetic is closed: deriving from a generation path
        # lands on the same family.
        assert generation_path(gen3, 5).name == "data.snapdir.gen5"

    def test_list_and_next(self, figure1_graph, tmp_path):
        root = _snapshot(figure1_graph, tmp_path)
        assert [number for number, _ in list_generations(root)] == [0]
        assert next_generation_path(root).name == root.name + ".gen1"
        GraphStore.build(figure1_graph).save(generation_path(root, 1))
        assert [number for number, _ in list_generations(root)] == [0, 1]
        assert next_generation_path(root).name == root.name + ".gen2"
        # .tmp wreckage is never listed as a generation.
        (tmp_path / (root.name + ".gen2.tmp")).mkdir()
        assert [number for number, _ in list_generations(root)] == [0, 1]

    def test_resolve_prefers_newest_valid_and_sweeps_orphans(
        self, figure1_graph, tmp_path
    ):
        root = _snapshot(figure1_graph, tmp_path)
        GraphStore.build(figure1_graph).save(generation_path(root, 1))
        # gen2 is a torn write: a directory with no manifest.
        generation_path(root, 2).mkdir()
        orphan = tmp_path / (root.name + ".gen3.tmp")
        orphan.mkdir()
        assert orphan_tmp_paths(root) == [orphan]
        resolved = resolve_latest_generation(root)
        assert resolved == generation_path(root, 1)
        assert not orphan.exists()
        # The torn gen2 is skipped, not deleted — an operator may want
        # the evidence; only .tmp wreckage is swept.
        assert generation_path(root, 2).exists()

    def test_resolve_falls_back_to_given_path(self, tmp_path):
        missing = tmp_path / "never-built.snapdir"
        assert resolve_latest_generation(missing) == missing

    def test_prune_keeps_newest_and_never_the_root(self, figure1_graph, tmp_path):
        root = _snapshot(figure1_graph, tmp_path)
        for number in (1, 2, 3):
            GraphStore.build(figure1_graph).save(generation_path(root, number))
        removed = prune_generations(generation_path(root, 3), keep=2)
        assert removed == [generation_path(root, 1)]
        assert root.exists()
        assert not generation_path(root, 1).exists()
        assert generation_path(root, 2).exists()
        assert generation_path(root, 3).exists()


# ----------------------------------------------------------------------
# ingest and compaction over HTTP
# ----------------------------------------------------------------------
class TestAsyncIngest:
    @pytest.fixture()
    def server(self, figure1_graph, tmp_path):
        path = _snapshot(figure1_graph, tmp_path)
        server = AsyncGQBEServer.from_snapshot(path, port=0, cache_size=64).start()
        yield server
        server.stop()

    def test_ingest_is_immediately_queryable(self, server, figure1_graph):
        # The new founder is unknown before the ingest...
        status, body = _post(server, "/query", {"tuple": ["Ada Lovelace"]})
        assert status == 400
        status, warm = _post(server, "/query", {"tuple": QUERY, "k": 10})
        assert status == 200
        status, cached = _post(server, "/query", {"tuple": QUERY, "k": 10})
        assert status == 200 and cached["cached"]

        status, body = _post(server, "/admin/ingest", {"triples": BURSTS[0]})
        assert status == 200
        assert body["ingested"] and body["applied"] == len(BURSTS[0])
        assert body["duplicates"] == 0
        assert body["delta_edges"] == len(BURSTS[0])
        assert not body["compacting"]

        # ...and fully queryable right after the ack, with the cache
        # invalidated: the same query recomputes on the union graph.
        status, fresh = _post(server, "/query", {"tuple": QUERY, "k": 10})
        assert status == 200 and not fresh["cached"]
        assert fresh["generation"] > warm["generation"]
        assert _answer_entities(fresh) == _expected_entities(
            _merged(figure1_graph, BURSTS[0])
        )
        status, body = _post(server, "/query", {"tuple": ["Ada Lovelace"]})
        assert status == 200

        status, health = _get(server, "/healthz")
        assert health["delta_edges"] == len(BURSTS[0])
        status, stats = _get(server, "/stats")
        assert stats["ingest"]["requests"] == 1
        assert stats["ingest"]["triples_applied"] == len(BURSTS[0])
        assert stats["ingest"]["delta_edges"] == len(BURSTS[0])

    def test_duplicate_triples_count_but_do_not_mutate(self, server):
        _post(server, "/admin/ingest", {"triples": BURSTS[0]})
        status, body = _post(
            server,
            "/admin/ingest",
            {"triples": BURSTS[0] + [["Jerry Yang", "founded", "Yahoo!"]]},
        )
        assert status == 200
        assert body["applied"] == 0
        assert body["duplicates"] == len(BURSTS[0]) + 1
        assert body["delta_edges"] == len(BURSTS[0])

    @pytest.mark.parametrize(
        "payload",
        [
            None,
            {"triples": []},
            {"triples": "not-a-list"},
            {"triples": [["only", "two"]]},
            {"triples": [["a", "", "c"]]},
            {"triples": [["a", "b", 3]]},
        ],
    )
    def test_malformed_ingest_bodies_are_400(self, server, payload):
        status, body = _post(server, "/admin/ingest", payload)
        assert status == 400
        assert "error" in body

    def test_compact_writes_generation_and_swaps(self, server, figure1_graph):
        base = server.snapshot_path
        _post(server, "/admin/ingest", {"triples": BURSTS[0]})
        status, body = _post(server, "/admin/compact")
        assert status == 200
        assert body["compacted"]
        assert body["delta_edges"] == len(BURSTS[0])
        assert generation_number(body["snapshot"]) == 1
        assert generation_root(body["snapshot"]) == generation_root(base)

        # The server now serves the compacted generation: no delta, same
        # union answers, nothing stale in the cache.
        status, health = _get(server, "/healthz")
        assert health["snapshot"] == body["snapshot"]
        assert health["delta_edges"] == 0
        status, fresh = _post(server, "/query", {"tuple": QUERY, "k": 10})
        assert status == 200 and not fresh["cached"]
        assert _answer_entities(fresh) == _expected_entities(
            _merged(figure1_graph, BURSTS[0])
        )
        # The generation loads standalone, with the delta folded in.
        reloaded = GraphStore.load(body["snapshot"])
        assert reloaded.delta_triples == []
        assert reloaded.graph.num_edges == _merged(
            figure1_graph, BURSTS[0]
        ).num_edges

    def test_compact_without_snapshot_is_400(self, figure1_system):
        server = AsyncGQBEServer(figure1_system, port=0).start()
        try:
            status, body = _post(server, "/admin/compact")
            assert status == 400
            assert "snapshot" in body["error"]
        finally:
            server.stop()

    def test_ingest_visibility_and_metrics(self, server, figure1_graph):
        _post(server, "/query", {"tuple": QUERY, "k": 10})
        status, body = _post(
            server,
            "/admin/ingest",
            {"triples": BURSTS[0] + [["Jerry Yang", "founded", "Yahoo!"]]},
        )
        assert status == 200
        assert body["applied"] == len(BURSTS[0])
        assert body["duplicates"] == 1

        status, fresh = _post(server, "/query", {"tuple": QUERY, "k": 10})
        assert status == 200 and not fresh["cached"]
        assert _answer_entities(fresh) == _expected_entities(
            _merged(figure1_graph, BURSTS[0])
        )

        _status, text = _get(server, "/metrics")
        samples = parse_prometheus_text(text)
        assert samples[("gqbe_ingest_requests_total", ())] == 1
        assert samples[
            ("gqbe_ingest_triples_total", (("result", "applied"),))
        ] == len(BURSTS[0])
        assert (
            samples[("gqbe_ingest_triples_total", (("result", "duplicate"),))]
            == 1
        )
        assert samples[("gqbe_delta_edges", ())] == len(BURSTS[0])
        assert (
            samples[
                (
                    "gqbe_http_requests_total",
                    (("code", "200"), ("path", "/admin/ingest")),
                )
            ]
            == 1
        )

    def test_ingest_counts_against_admission_gate(self, figure1_graph, tmp_path):
        """An in-flight ingest holds a gate slot and shows on /metrics.

        Ingest shares the executor with queries, so it must consume an
        admission slot: with ``high_water=1`` a stalled ingest causes a
        concurrent ingest to be shed with 429, and the
        ``gqbe_ingest_inflight`` gauge reports it while it runs.
        """
        path = _snapshot(figure1_graph, tmp_path)
        server = AsyncGQBEServer(
            GQBE.from_snapshot(path), snapshot_path=path, port=0, high_water=1
        ).start()
        release = threading.Event()
        original = server.handle_ingest

        def slow_ingest(payload):
            release.wait(timeout=30)
            return original(payload)

        server.handle_ingest = slow_ingest
        result = {}

        def do_ingest():
            result["first"] = _post(server, "/admin/ingest", {"triples": BURSTS[0]})

        thread = threading.Thread(target=do_ingest)
        try:
            thread.start()
            deadline = time.monotonic() + 30
            while server._gate.depth < 1 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server._gate.depth == 1

            _status, text = _get(server, "/metrics")
            samples = parse_prometheus_text(text)
            assert samples[("gqbe_ingest_inflight", ())] == 1
            assert samples[("gqbe_queue_depth", ())] == 1

            status, body = _post(server, "/admin/ingest", {"triples": BURSTS[1]})
            assert status == 429
            assert "capacity" in body["error"]
        finally:
            release.set()
            thread.join(timeout=30)
            server.handle_ingest = original

        try:
            status, body = result["first"]
            assert status == 200 and body["applied"] == len(BURSTS[0])
            _status, text = _get(server, "/metrics")
            samples = parse_prometheus_text(text)
            assert samples[("gqbe_ingest_inflight", ())] == 0
            assert samples[("gqbe_queue_depth", ())] == 0
            assert (
                samples[("gqbe_http_shed_total", (("reason", "queue_full"),))] == 1
            )
            # The freed slot admits the next ingest.
            status, body = _post(server, "/admin/ingest", {"triples": BURSTS[1]})
            assert status == 200 and body["applied"] == len(BURSTS[1])
        finally:
            server.stop()

    def test_ingest_requires_api_key_when_configured(
        self, figure1_graph, tmp_path
    ):
        path = _snapshot(figure1_graph, tmp_path)
        server = AsyncGQBEServer(
            GQBE.from_snapshot(path),
            snapshot_path=path,
            port=0,
            api_keys=["sesame"],
        ).start()
        try:
            status, body = _post(server, "/admin/ingest", {"triples": BURSTS[0]})
            assert status == 401
            status, body = _post(server, "/admin/compact")
            assert status == 401
            status, body = _post(
                server,
                "/admin/ingest",
                {"triples": BURSTS[0]},
                headers={"Authorization": "Bearer sesame"},
            )
            assert status == 200 and body["applied"] == len(BURSTS[0])
        finally:
            server.stop()

    def test_compact_threshold_triggers_background_fold(
        self, figure1_graph, tmp_path
    ):
        path = _snapshot(figure1_graph, tmp_path)
        threshold = len(BURSTS[0])
        server = AsyncGQBEServer(
            GQBE.from_snapshot(path),
            snapshot_path=path,
            port=0,
            compact_threshold=threshold,
        ).start()
        try:
            status, body = _post(server, "/admin/ingest", {"triples": BURSTS[0]})
            assert status == 200
            assert body["compacting"]
            deadline = time.monotonic() + 30
            target = generation_path(path, 1)
            while time.monotonic() < deadline:
                _status, health = _get(server, "/healthz")
                if health["snapshot"] == str(target):
                    break
                time.sleep(0.05)
            else:
                pytest.fail("background compaction never swapped in gen1")
            assert health["delta_edges"] == 0
            _status, text = _get(server, "/metrics")
            samples = parse_prometheus_text(text)
            assert samples[("gqbe_compactions_total", ())] == 1
            status, fresh = _post(server, "/query", {"tuple": QUERY, "k": 10})
            assert status == 200
            assert _answer_entities(fresh) == _expected_entities(
                _merged(figure1_graph, BURSTS[0])
            )
        finally:
            server.stop()

    def test_compaction_is_counted_no_later_than_its_generation_is_visible(
        self, figure1_graph, tmp_path, monkeypatch
    ):
        """``/healthz`` reads the snapshot path without a lock.  Hold the
        compaction right after its swap (pruning old generations comes
        next): a reader that sees the new generation must see it counted."""
        from repro.serving import server as server_module

        path = _snapshot(figure1_graph, tmp_path)
        swapped, release = threading.Event(), threading.Event()

        def held_prune(*args, **kwargs):
            swapped.set()
            assert release.wait(30)
            return prune_generations(*args, **kwargs)

        monkeypatch.setattr(server_module, "prune_generations", held_prune)
        server = AsyncGQBEServer(
            GQBE.from_snapshot(path), snapshot_path=path, port=0
        ).start()
        compaction = threading.Thread(target=server.compact)
        try:
            status, _body = _post(server, "/admin/ingest", {"triples": BURSTS[0]})
            assert status == 200
            compaction.start()
            assert swapped.wait(30)
            _status, health = _get(server, "/healthz")
            assert health["snapshot"] == str(generation_path(path, 1))
            _status, text = _get(server, "/metrics")
            assert parse_prometheus_text(text)[("gqbe_compactions_total", ())] == 1
            _status, stats = _get(server, "/stats")
            assert stats["ingest"]["compactions"] == 1
        finally:
            release.set()
            compaction.join(30)
            server.stop()

    def test_threshold_config_field_validates(self):
        # The threshold is a server setting (`gqbe serve
        # --compact-threshold`), validated by the constructor.
        with pytest.raises(ValueError, match="compact_threshold"):
            AsyncGQBEServer(
                GQBE(_merged(figure1_excerpt()), config=GQBEConfig(mqg_size=10)),
                port=0,
                compact_threshold=0,
            )


class TestConfigSurvivesReload:
    def test_compaction_and_reload_keep_the_running_config(
        self, figure1_graph, tmp_path
    ):
        """A reload swaps the snapshot, not the operator's engine config."""
        path = _snapshot(figure1_graph, tmp_path)
        config = GQBEConfig(mqg_size=6, k_prime=7, node_budget=40, max_join_rows=5_000)
        core = ServingCore(
            GQBE.from_snapshot(path, config), snapshot_path=path,
        )
        try:
            status, _ = core.handle_ingest({"triples": BURSTS[0]})
            assert status == 200
            status, before = core.handle_query({"tuple": QUERY, "k": 10})
            assert status == 200
            # The config shows in the result: the default one discovers a
            # larger MQG for this query.
            merged = _merged(figure1_graph, BURSTS[0])
            assert before["mqg_edges"] == GQBE(merged, config).query(tuple(QUERY)).mqg.num_edges
            assert before["mqg_edges"] < GQBE(merged).query(tuple(QUERY)).mqg.num_edges

            status, compacted = core.handle_compact()
            assert status == 200
            assert core.system.config == config
            status, after = core.handle_query({"tuple": QUERY, "k": 10})
            assert status == 200 and not after["cached"]
            assert (after["answers"], after["mqg_edges"]) == (
                before["answers"],
                before["mqg_edges"],
            )

            core.load_snapshot(compacted["snapshot"])
            assert core.system.config == config
            status, reloaded = core.handle_query({"tuple": QUERY, "k": 10})
            assert status == 200 and reloaded["answers"] == before["answers"]
            assert reloaded["mqg_edges"] == before["mqg_edges"]
        finally:
            core.close_engine()


# ----------------------------------------------------------------------
# concurrency: queries racing ingest + compaction
# ----------------------------------------------------------------------
class TestConcurrentMutation:
    def test_queries_always_see_a_consistent_stage(self, figure1_graph, tmp_path):
        """Hammer /query while ingest bursts and a compaction land.

        Every successful response must equal one of the cumulative
        ground-truth stages — never a torn state, never a pre-mutation
        answer served from cache after the mutation's ack.
        """
        path = _snapshot(figure1_graph, tmp_path)
        stages = [
            _expected_entities(_merged(figure1_graph)),
            _expected_entities(_merged(figure1_graph, BURSTS[0])),
            _expected_entities(_merged(figure1_graph, BURSTS[0], BURSTS[1])),
        ]
        # The bursts must actually change the answers, or consistency
        # would be vacuous.
        assert stages[0] != stages[1] != stages[2]

        server = AsyncGQBEServer.from_snapshot(path, port=0, cache_size=64).start()
        failures: list[str] = []
        stop = threading.Event()

        def hammer():
            while not stop.is_set():
                try:
                    status, body = _post(
                        server, "/query", {"tuple": QUERY, "k": 10}
                    )
                except (ConnectionError, OSError):  # server stopping
                    return
                if status != 200:
                    failures.append(f"HTTP {status}: {body}")
                    return
                entities = _answer_entities(body)
                if entities not in stages:
                    failures.append(f"torn answer: {entities}")
                    return

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        try:
            for thread in threads:
                thread.start()
            for burst in BURSTS:
                status, body = _post(server, "/admin/ingest", {"triples": burst})
                assert status == 200 and body["applied"] == len(burst)
                time.sleep(0.05)
            status, body = _post(server, "/admin/compact")
            assert status == 200
            time.sleep(0.1)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
            final_status, final = _post(server, "/query", {"tuple": QUERY, "k": 10})
            server.stop()
        assert not failures, failures[0]
        # After the dust settles the served answer is the fully merged
        # state, now read from the compacted generation.
        assert final_status == 200
        assert _answer_entities(final) == stages[-1]


# ----------------------------------------------------------------------
# crash safety
# ----------------------------------------------------------------------
class TestCrashSafety:
    def test_failed_compaction_leaves_server_live_and_no_wreckage(
        self, figure1_graph, tmp_path, monkeypatch
    ):
        path = _snapshot(figure1_graph, tmp_path)
        server = AsyncGQBEServer.from_snapshot(path, port=0).start()
        try:
            _post(server, "/admin/ingest", {"triples": BURSTS[0]})

            def explode(*args, **kwargs):
                raise SnapshotError("disk full mid-shard")

            monkeypatch.setattr(
                "repro.storage.build.write_table_shard", explode
            )
            status, body = _post(server, "/admin/compact")
            assert status == 400
            # The half-written tmp dir was cleaned up; no generation
            # appeared.
            assert orphan_tmp_paths(path) == []
            assert [number for number, _ in list_generations(path)] == [0]

            # The server still answers from the live delta.
            monkeypatch.undo()
            status, fresh = _post(server, "/query", {"tuple": QUERY, "k": 10})
            assert status == 200
            assert _answer_entities(fresh) == _expected_entities(
                _merged(figure1_graph, BURSTS[0])
            )
            status, health = _get(server, "/healthz")
            assert health["delta_edges"] == len(BURSTS[0])

            # And a retry succeeds once the disk recovers.
            status, body = _post(server, "/admin/compact")
            assert status == 200 and generation_number(body["snapshot"]) == 1
        finally:
            server.stop()

    def test_restart_resolves_newest_valid_generation(
        self, figure1_graph, tmp_path
    ):
        """Simulated crash-restart: a torn generation and tmp wreckage
        must not stop the server family from loading the last good
        state."""
        path = _snapshot(figure1_graph, tmp_path)
        server = AsyncGQBEServer.from_snapshot(path, port=0).start()
        try:
            _post(server, "/admin/ingest", {"triples": BURSTS[0]})
            status, body = _post(server, "/admin/compact")
            assert status == 200
        finally:
            server.stop()
        # Crash leftovers: a manifest-less gen2 and a .tmp dir.
        generation_path(path, 2).mkdir()
        (tmp_path / (path.name + ".gen3.tmp")).mkdir()

        resolved = resolve_latest_generation(path)
        assert resolved == generation_path(path, 1)
        assert orphan_tmp_paths(path) == []
        restarted = GQBE.from_snapshot(resolved)
        result = restarted.query(tuple(QUERY), k=10)
        assert [tuple(a.entities) for a in result.answers] == _expected_entities(
            _merged(figure1_graph, BURSTS[0])
        )
