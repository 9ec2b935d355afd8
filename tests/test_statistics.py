"""Unit tests for the offline graph statistics (ief, participation degree)."""

from __future__ import annotations

import math

import pytest

from oracles import eq2_weight

from repro.exceptions import GraphError
from repro.graph.knowledge_graph import Edge, KnowledgeGraph
from repro.graph.statistics import GraphStatistics
from repro.storage.shards import MANIFEST_NAME
from repro.storage.snapshot import GraphStore


def _statistics(graph: KnowledgeGraph) -> GraphStatistics:
    """The statistics of ``graph``'s offline build, in memory."""
    return GraphStore.build(graph).statistics


@pytest.fixture()
def stats_graph() -> KnowledgeGraph:
    """10 edges: 'common' appears 6 times, 'rare' twice, 'unique' once, 'solo' once."""
    graph = KnowledgeGraph()
    for i in range(6):
        graph.add_edge(f"p{i}", "common", "hub")
    graph.add_edge("p0", "rare", "x")
    graph.add_edge("p1", "rare", "y")
    graph.add_edge("p2", "unique", "z")
    graph.add_edge("a", "solo", "b")
    return graph


class TestInverseEdgeLabelFrequency:
    def test_exact_value(self, stats_graph):
        stats = _statistics(stats_graph)
        assert stats.ief("common") == pytest.approx(math.log(10 / 6))
        assert stats.ief("rare") == pytest.approx(math.log(10 / 2))
        assert stats.ief("unique") == pytest.approx(math.log(10 / 1))

    def test_rarer_labels_weigh_more(self, stats_graph):
        stats = _statistics(stats_graph)
        assert stats.ief("unique") > stats.ief("rare") > stats.ief("common")

    def test_accepts_edge_or_label(self, stats_graph):
        stats = _statistics(stats_graph)
        edge = Edge("p0", "rare", "x")
        assert stats.ief(edge) == stats.ief("rare")

    def test_unknown_label_treated_as_rarest(self, stats_graph):
        stats = _statistics(stats_graph)
        assert stats.ief("never_seen") == pytest.approx(math.log(10))

    def test_label_frequency(self, stats_graph):
        stats = _statistics(stats_graph)
        assert stats.label_frequency("common") == 6
        assert stats.label_frequency("never_seen") == 0


class TestParticipationDegree:
    def test_hub_object_increases_participation(self, stats_graph):
        stats = _statistics(stats_graph)
        # All six 'common' edges share the object 'hub'.
        assert stats.p(Edge("p0", "common", "hub")) == 6

    def test_isolated_edge_has_degree_one(self, stats_graph):
        stats = _statistics(stats_graph)
        assert stats.p(Edge("a", "solo", "b")) == 1

    def test_counts_same_subject_same_label(self):
        graph = KnowledgeGraph()
        graph.add_edge("company", "employment", "alice")
        graph.add_edge("company", "employment", "bob")
        graph.add_edge("company", "board_member", "carol")
        stats = _statistics(graph)
        assert stats.p(Edge("company", "employment", "alice")) == 2
        assert stats.p(Edge("company", "board_member", "carol")) == 1

    def test_subject_and_object_sides_summed_without_double_count(self):
        graph = KnowledgeGraph()
        graph.add_edge("a", "r", "b")
        graph.add_edge("a", "r", "c")   # shares subject
        graph.add_edge("d", "r", "b")   # shares object
        stats = _statistics(graph)
        # edges sharing subject a: 2; sharing object b: 2; (a,r,b) itself counted once
        assert stats.p(Edge("a", "r", "b")) == 3

    def test_unknown_edge_has_floor_of_one(self, stats_graph):
        stats = _statistics(stats_graph)
        assert stats.p(Edge("nope", "never_seen", "nada")) == 1


class TestBaseWeight:
    def test_weight_is_ief_over_p(self, stats_graph):
        stats = _statistics(stats_graph)
        edge = Edge("p0", "common", "hub")
        assert stats.base_edge_weight(edge) == pytest.approx(stats.ief(edge) / stats.p(edge))

    def test_board_member_beats_employment_locally(self):
        # The paper's motivating example: board_member edges are more
        # significant than employment edges at the same company.
        graph = KnowledgeGraph()
        for i in range(20):
            graph.add_edge("company", "employment", f"employee{i}")
        graph.add_edge("company", "board_member", "director")
        graph.add_edge("other", "board_member", "director2")
        stats = _statistics(graph)
        employment = stats.base_edge_weight(Edge("company", "employment", "employee0"))
        board = stats.base_edge_weight(Edge("company", "board_member", "director"))
        assert board > employment

    def test_weights_for_returns_all_edges(self, stats_graph):
        stats = _statistics(stats_graph)
        weights = stats.weights_for(stats_graph.edges)
        assert len(weights) == stats_graph.num_edges
        assert all(weight > 0 for weight in weights.values())

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError):
            _statistics(KnowledgeGraph())

    def test_total_edges_property(self, stats_graph):
        assert _statistics(stats_graph).total_edges == 10


class TestMappedStatistics:
    """A snapshot's statistics: counts probed from the mapped label tables."""

    #: ``z`` is seen first and sorts last, so first-seen and sorted label
    #: order differ.  ``b`` is the node after ``a`` and has three out-edges
    #: (one a self-loop) under the label that sorts first.
    TRIPLES = [
        ("a", "z", "b"), ("b", "e", "c"), ("b", "e", "a"), ("b", "e", "b"), ("c", "q", "a"),
    ]

    @pytest.fixture
    def loaded(self, tmp_path):
        from repro.storage.snapshot import GraphStore

        GraphStore.build(KnowledgeGraph(self.TRIPLES)).save(tmp_path / "snap")
        return GraphStore.load(tmp_path / "snap")

    def test_per_edge_methods_equal_the_dict_statistics(self, loaded):
        spec = KnowledgeGraph(self.TRIPLES)
        for triple in self.TRIPLES + [("a", "e", "c"), ("nobody", "e", "c"), ("a", "nothing", "b")]:
            edge = Edge(*triple)
            assert loaded.statistics.base_edge_weight(edge) == eq2_weight(spec, edge)

    def test_ingested_counts_are_laid_over_the_base_counts(self, loaded, tmp_path):
        delta = [("b", "e", "new"), ("new", "fresh_label", "a"), ("c", "z", "b")]
        loaded.ingest(delta)
        spec = KnowledgeGraph(self.TRIPLES + delta)
        statistics = loaded.statistics
        # Every (subject, label, object) over the merged graph's terms, edge
        # or not: both terms of Eq. 4 counted on the spec's edges.
        for subject in spec.nodes:
            for label in spec.labels:
                edges = list(spec.edges_with_label(label))
                same_subject = sum(edge.subject == subject for edge in edges)
                for obj in spec.nodes:
                    same_object = sum(edge.object == obj for edge in edges)
                    overlap = int(spec.has_edge(subject, label, obj))
                    assert statistics.participation_degree(Edge(subject, label, obj)) == max(
                        same_subject + same_object - overlap, 1
                    )
        for edge in spec.edges:
            assert statistics.base_edge_weight(edge) == eq2_weight(spec, edge)
        # A resave writes the tables a build of the merged stream writes,
        # byte for byte (the manifest hashes every shard).
        loaded.save(tmp_path / "resaved")
        GraphStore.build(spec).save(tmp_path / "merged")
        assert (tmp_path / "resaved" / MANIFEST_NAME).read_bytes() == (
            tmp_path / "merged" / MANIFEST_NAME
        ).read_bytes()

    def test_a_label_the_statistics_never_saw_counts_nothing(self, loaded):
        # An edge put into the graph's delta behind the store's back: its
        # label has no table, so both terms of Eq. 4 count nothing.
        from repro.graph.neighborhood import neighborhood_graph

        graph = loaded.graph
        graph.add_delta_edge("a", "unseen", "c")
        graph.finish_mutation()
        neighborhood = neighborhood_graph(graph, ("a",), d=1)
        edges = neighborhood.columns.decode()
        assert Edge("a", "unseen", "c") in edges
        assert loaded.statistics.column_weights(neighborhood.columns).tolist() == [
            loaded.statistics.base_edge_weight(edge) for edge in edges
        ]

