"""Differential tests for live ingest (delta overlay + compaction).

The write path's core promise: a system serving (base snapshot + ingested
delta) answers **byte-identically** to a system built from scratch over
the merged edge set.  These tests split seeded random triple streams into
(base, delta) at varying ratios and pin that promise across:

* the mapped base (``DeltaKnowledgeGraph`` overlay over the CSR view),
* the base of a cold build (built in memory into the same mapped arrays),
* pooled execution (workers reopen the snapshot and replay the delta),
* the compacted generation (the overlay folded back to disk and reloaded).

Duplicate triples — re-sent base edges and re-sent delta edges — must be
counted and dropped without perturbing any state (vocabulary ids, adjacency
order, statistics), which the byte-identity assertions would expose.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.core.config import GQBEConfig
from repro.core.gqbe import GQBE
from repro.datasets.synthetic import FreebaseLikeGenerator
from repro.exceptions import GraphError
from repro.graph.delta import DeltaKnowledgeGraph
from repro.graph.knowledge_graph import KnowledgeGraph
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
        result = overlay.ingest(delta + duplicates)
        assert result["applied"] == len(delta)
        assert result["duplicates"] == len(duplicates)
        assert result["delta_edges"] == len(delta)
        assert isinstance(overlay.graph, DeltaKnowledgeGraph)

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
        result = overlay.ingest(delta + duplicates)
        assert result["applied"] == len(delta)
        assert result["duplicates"] == len(duplicates)
        # A cold build holds the same mapped arrays a snapshot does: the
        # delta stacks an overlay on them.
        assert isinstance(overlay.graph, DeltaKnowledgeGraph)

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


class TestPooledEquivalence:
    def test_pooled_workers_replay_the_delta(self, dataset, config, tmp_path):
        base, delta, _ = _split_stream(dataset, 0.5, seed=21)
        directory = tmp_path / "base.snapdir3"
        GraphStore.build(KnowledgeGraph(base)).save(directory)
        pooled_config = replace(config, execution="pool", pool_workers=2)
        pooled = GQBE.from_snapshot(directory, config=pooled_config)
        try:
            pooled.ingest(delta)
            reference = _merged_reference(config, base, delta)
            tuples = _query_tuples(dataset, reference.graph)
            results = pooled.query_batch([list(t) for t in tuples], k=10)
            for query_tuple, result in zip(tuples, results):
                assert _answer_key(result) == _answer_key(
                    reference.query(query_tuple, k=10)
                )
        finally:
            pooled.close()


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
