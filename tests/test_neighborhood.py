"""Unit tests for neighborhood graph extraction (Definition 1)."""

from __future__ import annotations

import random

import pytest
from graph_backings import ordered_view, random_multigraph, row_order, three_backings
from oracles import bfs_distances, definition1, walk_closure

from repro.exceptions import QueryError, UnknownEntityError
from repro.graph.knowledge_graph import KnowledgeGraph
from repro.graph.neighborhood import (
    neighborhood_graph,
    query_entity_distances,
)
from repro.storage.snapshot import GraphStore


class TestValidation:
    def test_unknown_entity_raises(self, figure1_mapped):
        with pytest.raises(UnknownEntityError):
            neighborhood_graph(figure1_mapped, ("Jerry Yang", "Nobody"), d=2)

    def test_empty_tuple_raises(self, figure1_mapped):
        with pytest.raises(QueryError):
            neighborhood_graph(figure1_mapped, (), d=2)

    def test_duplicate_entities_raise(self, figure1_mapped):
        with pytest.raises(QueryError):
            neighborhood_graph(figure1_mapped, ("Yahoo!", "Yahoo!"), d=2)

    def test_non_positive_d_raises(self, figure1_mapped):
        with pytest.raises(QueryError):
            neighborhood_graph(figure1_mapped, ("Yahoo!",), d=0)


class TestDistances:
    def test_multi_source_distances(self, figure1_mapped):
        distances = query_entity_distances(figure1_mapped, ("Jerry Yang", "Yahoo!"))
        assert distances["Jerry Yang"] == 0
        assert distances["Yahoo!"] == 0
        assert distances["Sunnyvale"] == 1
        assert distances["California"] == 2

    def test_cutoff_limits_radius(self, figure1_mapped):
        distances = query_entity_distances(figure1_mapped, ("Jerry Yang",), cutoff=1)
        assert "California" not in distances
        assert distances["Stanford"] == 1


class TestNeighborhoodGraph:
    def test_contains_query_entities(self, figure1_mapped):
        neighborhood = neighborhood_graph(figure1_mapped, ("Jerry Yang", "Yahoo!"), d=2)
        assert neighborhood.contains_query_entities()
        assert neighborhood.graph.has_node("Jerry Yang")
        assert neighborhood.graph.has_node("Yahoo!")

    def test_nodes_within_d_hops_only(self, figure1_mapped):
        neighborhood = neighborhood_graph(figure1_mapped, ("Jerry Yang", "Yahoo!"), d=1)
        # Distance-2 nodes such as California must be excluded at d=1.
        assert not neighborhood.graph.has_node("California")
        assert neighborhood.graph.has_node("Sunnyvale")

    def test_every_node_has_a_distance_within_d(self, figure1_mapped):
        d = 2
        neighborhood = neighborhood_graph(figure1_mapped, ("Jerry Yang", "Yahoo!"), d=d)
        assert set(neighborhood.distances) == set(neighborhood.graph.nodes)
        assert all(dist <= d for dist in neighborhood.distances.values())

    def test_edges_lie_on_short_paths(self, figure1_mapped):
        d = 2
        neighborhood = neighborhood_graph(figure1_mapped, ("Jerry Yang", "Yahoo!"), d=d)
        for edge in neighborhood.graph.edges:
            assert min(
                neighborhood.distances[edge.subject],
                neighborhood.distances[edge.object],
            ) <= d - 1

    def test_neighborhood_is_subgraph_of_data_graph(self, figure1_mapped, figure1_graph):
        neighborhood = neighborhood_graph(figure1_mapped, ("Jerry Yang", "Yahoo!"), d=2)
        for edge in neighborhood.graph.edges:
            assert figure1_graph.has_edge(*edge)

    def test_larger_d_grows_the_neighborhood(self, figure1_mapped):
        small = neighborhood_graph(figure1_mapped, ("Jerry Yang",), d=1)
        large = neighborhood_graph(figure1_mapped, ("Jerry Yang",), d=3)
        assert small.num_nodes < large.num_nodes
        assert small.num_edges < large.num_edges

    def test_single_entity_neighborhood(self, figure1_mapped):
        neighborhood = neighborhood_graph(figure1_mapped, ("Stanford",), d=1)
        # Stanford's direct neighbours are the people educated there.
        assert neighborhood.graph.has_node("Jerry Yang")
        assert neighborhood.graph.has_node("Sergey Brin")
        assert not neighborhood.graph.has_node("Yahoo!")

    def test_distance_accessor(self, figure1_mapped):
        neighborhood = neighborhood_graph(figure1_mapped, ("Jerry Yang",), d=2)
        assert neighborhood.distance("Jerry Yang") == 0
        with pytest.raises(KeyError):
            neighborhood.distance("Not In Graph")

    def test_disconnected_entities_produce_disconnected_neighborhood(self):
        graph = GraphStore.build(KnowledgeGraph([("a", "r", "b"), ("c", "r", "d")])).graph
        neighborhood = neighborhood_graph(graph, ("a", "c"), d=2)
        assert not neighborhood.graph.is_weakly_connected()


def _check_lazy_neighborhood(spec, candidate):
    """``candidate`` answers sizes off its columns and decodes to ``spec``."""
    assert candidate.columns is not None
    assert (candidate.num_nodes, candidate.num_edges) == (spec.num_nodes, spec.num_edges)
    assert candidate._graph is None and candidate._distances is None
    assert ordered_view(candidate) == ordered_view(spec)


class TestIdSpaceNeighborhood:
    """Mapped and delta-overlay graphs extract ``H_t`` as id columns; decoded
    on demand it is Definition 1's ``H_t`` (``oracles.definition1``), every
    order included (in the row order each backing reads, ``row_order``)."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_domains_match_owned_graph(self, domain_backings, d):
        tuples, owned, mapped, overlay = domain_backings
        for graph in (mapped.graph, overlay.graph):
            spec_graph = row_order(owned, graph)
            for query_tuple in tuples:
                spec = definition1(spec_graph, query_tuple, d)
                _check_lazy_neighborhood(spec, neighborhood_graph(graph, query_tuple, d=d))

    @pytest.mark.parametrize("seed", range(25))
    def test_random_multigraphs_match_owned_graph(self, seed):
        """Hubs whose BFS frontiers run to dozens of nodes, parallel edges,
        self-loops, and query entities that share neighbors (two hubs with
        common leaves, two leaves of one hub)."""
        base, delta, nodes = random_multigraph(seed, hub_leaves=24)
        rng = random.Random(seed)
        tuples = [tuple(rng.sample(nodes, arity)) for arity in (1, 2, 3)]
        tuples += [("h0",), ("h0", "h1"), ("leaf0", "leaf1", "n1")]
        with three_backings(base, delta) as (owned, mapped, overlay):
            for graph in (mapped, overlay):
                spec_graph = row_order(owned, graph)
                for query_tuple in tuples:
                    for d in (1, 2, 3):
                        _check_lazy_neighborhood(
                            definition1(spec_graph, query_tuple, d),
                            neighborhood_graph(graph, query_tuple, d=d),
                        )

    def test_distances_match_across_backings(self, domain_backings):
        tuples, owned, mapped, overlay = domain_backings
        for graph in (mapped.graph, overlay.graph):
            spec_graph = row_order(owned, graph)
            for query_tuple in tuples[:4]:
                spec = list(bfs_distances(spec_graph, query_tuple, cutoff=2).items())
                assert list(query_entity_distances(graph, query_tuple, cutoff=2).items()) == spec

    def test_isolated_query_entity(self):
        # A delta-only node whose only edge is a self-loop, and a tuple
        # whose near nodes have no base slice at all.
        with three_backings([("a", "r", "b")], [("c", "r", "c")]) as backings:
            owned, mapped, overlay = backings
            for query_tuple in (("c",), ("a", "c")):
                for graph in (mapped, overlay):
                    spec = definition1(row_order(owned, graph), query_tuple, 2)
                    _check_lazy_neighborhood(spec, neighborhood_graph(graph, query_tuple, d=2))


def test_walk_closure_is_the_distance_rule():
    """The brute-force Definition 1 keeps a node within ``d`` hops and an
    edge with an end within ``d - 1``; a self-loop counts as a walk step."""
    graph = KnowledgeGraph(
        [("a", "r", "b"), ("b", "r", "c"), ("c", "r", "d"), ("c", "s", "c"), ("e", "r", "d")]
    )
    nodes, edges = walk_closure(graph, ("a",), 2)
    assert nodes == {"a", "b", "c"}
    assert {tuple(edge) for edge in edges} == {("a", "r", "b"), ("b", "r", "c")}
    nodes, edges = walk_closure(graph, ("a",), 3)
    assert nodes == {"a", "b", "c", "d"}
    assert ("c", "s", "c") in {tuple(edge) for edge in edges}
    assert ("e", "r", "d") not in {tuple(edge) for edge in edges}
