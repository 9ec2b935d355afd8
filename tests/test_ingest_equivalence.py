"""Differential tests for live ingest (delta overlay + compaction).

The write path's core promise: a system serving (base snapshot + ingested
delta) answers **byte-identically** to a system built from scratch over
the merged edge set.  These tests split seeded random triple streams into
(base, delta) at varying ratios and pin that promise across:

* the mapped base (the delta kept beside the CSR view, in the same graph),
* the base of a cold build (built in memory into the same mapped arrays),
* pooled serving (``ServingCore(workers=2)``: snapshot-backed workers
  reopen the snapshot and replay the delta, fork-inherited workers are
  forked from the ingested system, and a reload rebuilds the pool),
* the compacted generation (the overlay folded back to disk and reloaded).

Duplicate triples — re-sent base edges and re-sent delta edges — must be
counted and dropped without perturbing any state (vocabulary ids, adjacency
order, statistics), which the byte-identity assertions would expose.
"""

from __future__ import annotations

import multiprocessing
import random

import pytest

from repro.core.config import GQBEConfig
from repro.core.gqbe import GQBE
from repro.datasets.synthetic import FreebaseLikeGenerator
from repro.exceptions import GraphError
from repro.graph.knowledge_graph import KnowledgeGraph
from repro.graph.mapped import MappedKnowledgeGraph
from repro.serving.server import ServingCore
from repro.storage.snapshot import GraphStore


@pytest.fixture(scope="module")
def dataset():
    return FreebaseLikeGenerator(seed=11, scale=0.15).generate()


@pytest.fixture(scope="module")
def config():
    return GQBEConfig(mqg_size=8, k_prime=25, max_join_rows=100_000)


def _answer_key(result):
    return [
        (a.rank, a.entities, a.score, a.structure_score, a.content_score)
        for a in result.answers
    ]


def _split_stream(dataset, ratio: float, seed: int):
    """Split the dataset's edges into (base, delta, duplicates).

    The delta keeps stream order (ingest order matters for adjacency
    append order); duplicates are seeded re-draws from both halves plus
    a few brand-new triples touching fresh entities and labels.
    """
    edges = list(dataset.graph.edges)
    cut = max(1, int(len(edges) * ratio))
    base = edges[:cut]
    delta = [(e.subject, e.label, e.object) for e in edges[cut:]]
    rng = random.Random(seed)
    duplicates = [
        (e.subject, e.label, e.object)
        for e in rng.sample(base, k=min(5, len(base)))
    ]
    if delta:
        duplicates.extend(rng.sample(delta, k=min(5, len(delta))))
    fresh = [
        ("IngestedFounder_A", "founded", base[0].subject),
        (base[0].object, "acquired", "IngestedCompany_B"),
        ("IngestedFounder_A", "born_in", "IngestedCity_C"),
    ]
    return base, delta + fresh, duplicates


def _query_tuples(dataset, union_graph, count=2):
    tuples = []
    for table_name in dataset.table_names():
        candidate = tuple(dataset.table(table_name)[0])
        if all(union_graph.has_node(entity) for entity in candidate):
            tuples.append(candidate)
        if len(tuples) == count:
            break
    assert tuples, "no usable query tuples in the dataset"
    return tuples


def _merged_reference(config, base, delta):
    merged = KnowledgeGraph(base)
    for subject, label, obj in delta:
        merged.add_edge(subject, label, obj)
    return GQBE(merged, config=config)


class TestOverlayEquivalence:
    @pytest.mark.parametrize("ratio", [0.25, 0.5, 0.9])
    def test_v3_overlay_matches_merged_build(
        self, dataset, config, tmp_path, ratio
    ):
        base, delta, duplicates = _split_stream(dataset, ratio, seed=ratio)
        directory = tmp_path / "base.snapdir3"
        GraphStore.build(KnowledgeGraph(base)).save(directory)

        overlay = GQBE(config=config, graph_store=GraphStore.load(directory))
        graph = overlay.graph
        result = overlay.ingest(delta + duplicates)
        assert result["applied"] == len(delta)
        assert result["duplicates"] == len(duplicates)
        assert result["delta_edges"] == len(delta)
        # The delta lands in the mapped graph itself: nothing is swapped.
        assert overlay.graph is graph and isinstance(graph, MappedKnowledgeGraph)

        reference = _merged_reference(config, base, delta)
        assert overlay.graph.num_edges == reference.graph.num_edges
        assert overlay.graph.num_nodes == reference.graph.num_nodes
        for query_tuple in _query_tuples(dataset, reference.graph):
            assert _answer_key(overlay.query(query_tuple, k=10)) == _answer_key(
                reference.query(query_tuple, k=10)
            )

    def test_owned_base_matches_merged_build(self, dataset, config):
        base, delta, duplicates = _split_stream(dataset, 0.5, seed=99)
        overlay = GQBE(KnowledgeGraph(base), config=config)
        graph = overlay.graph
        result = overlay.ingest(delta + duplicates)
        assert result["applied"] == len(delta)
        assert result["duplicates"] == len(duplicates)
        # A cold build holds the same mapped arrays a snapshot does, and
        # the delta lands beside them in the same graph.
        assert overlay.graph is graph and isinstance(graph, MappedKnowledgeGraph)

        reference = _merged_reference(config, base, delta)
        for query_tuple in _query_tuples(dataset, reference.graph):
            assert _answer_key(overlay.query(query_tuple, k=10)) == _answer_key(
                reference.query(query_tuple, k=10)
            )

    def test_repeat_ingest_is_idempotent(self, dataset, config, tmp_path):
        base, delta, _ = _split_stream(dataset, 0.5, seed=3)
        directory = tmp_path / "base.snapdir3"
        GraphStore.build(KnowledgeGraph(base)).save(directory)
        overlay = GQBE(config=config, graph_store=GraphStore.load(directory))
        first = overlay.ingest(delta)
        again = overlay.ingest(delta)
        assert first["applied"] == len(delta)
        assert again["applied"] == 0
        assert again["duplicates"] == len(delta)
        assert again["delta_edges"] == len(delta)
        assert overlay.pending_delta == [tuple(t) for t in delta]

    def test_malformed_triples_are_rejected_atomically(
        self, dataset, config, tmp_path
    ):
        base, delta, _ = _split_stream(dataset, 0.5, seed=4)
        directory = tmp_path / "base.snapdir3"
        GraphStore.build(KnowledgeGraph(base)).save(directory)
        overlay = GQBE(config=config, graph_store=GraphStore.load(directory))
        with pytest.raises(GraphError):
            overlay.ingest([delta[0], ("subject", "", "object")])
        # Validation happens before any mutation: nothing was applied.
        assert overlay.pending_delta == []


def _served_key(body):
    return [
        (
            a["rank"],
            tuple(a["entities"]),
            a["score"],
            a["structure_score"],
            a["content_score"],
        )
        for a in body["answers"]
    ]


class TestPooledEquivalence:
    """``ServingCore(workers=2)`` owns the only worker pool and rebuilds
    it after every ingest and reload; pooled answers must equal an inline
    system over the same edges."""

    @staticmethod
    def _assert_serves(core, reference, tuples):
        for query_tuple in tuples:
            status, body = core.handle_query({"tuple": list(query_tuple), "k": 10})
            assert status == 200, body
            assert _served_key(body) == _answer_key(reference.query(query_tuple, k=10))

    @staticmethod
    def _ingest(core, triples):
        status, body = core.handle_ingest({"triples": [list(t) for t in triples]})
        assert status == 200 and body["applied"] == len(triples), body

    def test_pooled_workers_replay_the_delta(self, dataset, config, tmp_path):
        base, delta, _ = _split_stream(dataset, 0.5, seed=21)
        directory = tmp_path / "base.snapdir3"
        GraphStore.build(KnowledgeGraph(base)).save(directory)
        core = ServingCore(
            GQBE.from_snapshot(directory, config=config),
            snapshot_path=directory,
            cache_size=0,
            workers=2,
        )
        try:
            self._ingest(core, delta)
            pool = core.stats()["pool"]
            assert pool["snapshot_backed"]
            assert pool["delta_replayed"] == len(delta)
            reference = _merged_reference(config, base, delta)
            self._assert_serves(
                core, reference, _query_tuples(dataset, reference.graph)
            )
            assert core.stats()["batcher"]["pooled_batches"] > 0
        finally:
            core.close_engine()

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="fork start method unavailable",
    )
    def test_fork_pool_inherits_the_delta(self, dataset, config):
        base, delta, _ = _split_stream(dataset, 0.5, seed=22)
        core = ServingCore(
            GQBE(KnowledgeGraph(base), config=config), cache_size=0, workers=2
        )
        try:
            self._ingest(core, delta)
            pool = core.stats()["pool"]
            assert not pool["snapshot_backed"]
            assert pool["delta_replayed"] == 0  # the forked image holds it
            reference = _merged_reference(config, base, delta)
            self._assert_serves(
                core, reference, _query_tuples(dataset, reference.graph)
            )
            assert core.stats()["batcher"]["pooled_batches"] > 0
        finally:
            core.close_engine()

    def test_pooled_reload_drops_the_delta(self, dataset, config, tmp_path):
        base, delta, _ = _split_stream(dataset, 0.5, seed=23)
        base_dir = tmp_path / "base.snapdir3"
        GraphStore.build(KnowledgeGraph(base)).save(base_dir)
        reference = _merged_reference(config, base, delta)
        merged_dir = tmp_path / "merged.snapdir3"
        reference.graph_store.save(merged_dir)
        core = ServingCore(
            GQBE.from_snapshot(base_dir, config=config),
            snapshot_path=base_dir,
            cache_size=0,
            workers=2,
        )
        try:
            self._ingest(core, delta[:3])
            assert core.stats()["pool"]["delta_replayed"] == 3
            core.load_snapshot(merged_dir)
            pool = core.stats()["pool"]
            assert pool["snapshot_backed"] and pool["delta_replayed"] == 0
            self._assert_serves(
                core, reference, _query_tuples(dataset, reference.graph)
            )
        finally:
            core.close_engine()


class TestCompactedEquivalence:
    def test_compacted_generation_matches_merged_build(
        self, dataset, config, tmp_path
    ):
        base, delta, _ = _split_stream(dataset, 0.5, seed=42)
        directory = tmp_path / "base.snapdir3"
        GraphStore.build(KnowledgeGraph(base)).save(directory)
        overlay = GQBE(config=config, graph_store=GraphStore.load(directory))
        overlay.ingest(delta)

        compacted_path = tmp_path / "compacted"
        overlay.graph_store.save(compacted_path)
        compacted = GQBE(
            config=config, graph_store=GraphStore.load(compacted_path)
        )
        # The fold is complete: the reloaded generation carries no delta.
        assert compacted.pending_delta == []

        reference = _merged_reference(config, base, delta)
        assert compacted.graph.num_edges == reference.graph.num_edges
        for query_tuple in _query_tuples(dataset, reference.graph):
            assert _answer_key(compacted.query(query_tuple, k=10)) == _answer_key(
                reference.query(query_tuple, k=10)
            )
        # Ids do not move, so the compacted generation is the snapshot a
        # build of base ++ applied delta writes, byte for byte.
        applied = overlay.graph_store.delta_triples
        GraphStore.build(KnowledgeGraph(base + applied)).save(tmp_path / "merged")
        assert (compacted_path / "MANIFEST.json").read_bytes() == (
            tmp_path / "merged" / "MANIFEST.json"
        ).read_bytes()
