"""Unit tests for query graph discovery: weights, reduction, MQG, merging."""

from __future__ import annotations

import random

import numpy as np
import pytest
from graph_backings import ordered_view, random_multigraph, three_backings

from repro.discovery.merge import merge_maximal_query_graphs, virtual_entity
from repro.discovery.mqg import (
    _component_containing,
    _trim_component,
    discover_maximal_query_graph,
    select_mqg_edges,
)
from repro.discovery.reduction import (
    _removed_edges,
    _unimportant_edges,
    reduce_neighborhood_graph,
)
from repro.discovery.weights import edge_depths, mqg_edge_weights
from repro.exceptions import DisconnectedQueryError, DiscoveryError
from repro.graph.knowledge_graph import Edge, KnowledgeGraph
from repro.graph.neighborhood import (
    NeighborhoodColumns,
    NeighborhoodGraph,
    neighborhood_graph,
)
from repro.graph.statistics import GraphStatistics


@pytest.fixture()
def figure1_neighborhood(figure1_graph):
    return neighborhood_graph(figure1_graph, ("Jerry Yang", "Yahoo!"), d=2)


class TestEdgeDepths:
    def test_edges_on_query_entities_have_depth_one(self, figure1_graph):
        depths = edge_depths(figure1_graph, ("Jerry Yang", "Yahoo!"))
        assert depths[Edge("Jerry Yang", "founded", "Yahoo!")] == 1
        assert depths[Edge("Jerry Yang", "education", "Stanford")] == 1

    def test_depth_grows_with_distance(self, figure1_graph):
        depths = edge_depths(figure1_graph, ("Jerry Yang",))
        founded = depths[Edge("Jerry Yang", "founded", "Yahoo!")]
        hq = depths[Edge("Yahoo!", "headquartered_in", "Sunnyvale")]
        in_state = depths[Edge("Sunnyvale", "in_state", "California")]
        assert founded < hq < in_state

    def test_depth_adjusted_weights_decrease_with_depth(self, figure1_graph, figure1_stats):
        base = figure1_stats.weights_for(figure1_graph.edges)
        weights = mqg_edge_weights(figure1_graph, ("Jerry Yang",), base)
        far_edge = Edge("Sunnyvale", "in_state", "California")
        near_edge = Edge("Jerry Yang", "founded", "Yahoo!")
        assert weights[near_edge] == pytest.approx(base[near_edge])
        assert weights[far_edge] < base[far_edge]


class TestReduction:
    def test_reduction_keeps_query_entities_connected(self, figure1_neighborhood):
        reduced = reduce_neighborhood_graph(figure1_neighborhood)
        assert reduced.graph.is_weakly_connected()
        assert reduced.graph.has_node("Jerry Yang")
        assert reduced.graph.has_node("Yahoo!")

    def test_reduction_never_adds_edges(self, figure1_neighborhood):
        reduced = reduce_neighborhood_graph(figure1_neighborhood)
        assert reduced.num_edges <= figure1_neighborhood.num_edges
        for edge in reduced.graph.edges:
            assert figure1_neighborhood.graph.has_edge(*edge)

    def test_unimportant_sibling_edges_removed(self):
        # Many 'education' edges into the same university; only the one from
        # the query entity is important, the others are unimportant copies.
        graph = KnowledgeGraph()
        graph.add_edge("q1", "founded", "q2")
        graph.add_edge("q1", "education", "Uni")
        for i in range(5):
            graph.add_edge(f"other{i}", "education", "Uni")
        neighborhood = neighborhood_graph(graph, ("q1", "q2"), d=2)
        reduced = reduce_neighborhood_graph(neighborhood)
        assert reduced.graph.has_edge("q1", "education", "Uni")
        assert not reduced.graph.has_edge("other0", "education", "Uni")

    def test_important_edges_on_inter_entity_paths_survive(self, figure1_neighborhood):
        reduced = reduce_neighborhood_graph(figure1_neighborhood)
        assert reduced.graph.has_edge("Jerry Yang", "founded", "Yahoo!")


def _reduction_outcome(graph, query_tuple, d):
    """The reduced neighborhood's ordered view, or the error it raises."""
    neighborhood = neighborhood_graph(graph, query_tuple, d=d)
    try:
        reduced = reduce_neighborhood_graph(neighborhood)
    except DiscoveryError as error:
        return type(error), str(error)
    if neighborhood.columns is None:
        assert reduced.columns is None
    else:
        # The reduction read the id columns; nothing decoded H_t itself,
        # and the surviving rows stay beside the edges decoded from them.
        assert neighborhood._graph is None and neighborhood._distances is None
        assert reduced.columns.decode()[0] == list(reduced.graph.edges)
    return ordered_view(reduced)


class TestIdSpaceReduction:
    """Reduction over id columns (mapped, delta overlay) against the string
    spec on the owned graph: equal reduced graphs as ordered sequences."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_domains_match_string_spec(self, domain_backings, d):
        tuples, owned, mapped, overlay = domain_backings
        for query_tuple in tuples:
            spec = _reduction_outcome(owned, query_tuple, d)
            assert _reduction_outcome(mapped, query_tuple, d) == spec
            assert _reduction_outcome(overlay, query_tuple, d) == spec

    @pytest.mark.parametrize("seed", range(25))
    def test_random_multigraphs_match_string_spec(self, seed):
        base, delta, nodes = random_multigraph(seed)
        rng = random.Random(seed)
        with three_backings(base, delta) as (owned, mapped, overlay):
            for arity in (1, 2, 3):
                query_tuple = tuple(rng.sample(nodes, arity))
                for d in (1, 2, 3):
                    spec = _reduction_outcome(owned, query_tuple, d)
                    assert _reduction_outcome(mapped, query_tuple, d) == spec
                    assert _reduction_outcome(overlay, query_tuple, d) == spec

    def test_disconnected_tuple_raises_the_same_error(self):
        triples = [("a", "r", "b"), ("c", "r", "d")]
        with three_backings(triples[:1], triples[1:]) as (owned, mapped, overlay):
            spec = _reduction_outcome(owned, ("a", "c"), 2)
            assert spec[0] is DiscoveryError
            assert _reduction_outcome(mapped, ("a", "c"), 2) == spec
            assert _reduction_outcome(overlay, ("a", "c"), 2) == spec

    def test_unreduced_ablation_discovers_the_same_mqg(self, domain_backings):
        tuples, owned, mapped, overlay = domain_backings
        stats = GraphStatistics(owned)
        for query_tuple in tuples[:6]:
            mqgs = []
            for graph in (owned, mapped, overlay):
                neighborhood = neighborhood_graph(graph, query_tuple, d=2)
                try:
                    mqg = discover_maximal_query_graph(
                        neighborhood, stats, r=8, reduce_first=False
                    )
                except DiscoveryError as error:
                    mqgs.append(type(error))
                    continue
                mqgs.append((list(mqg.graph.edges), mqg.edge_weights, mqg.core_edges))
            assert mqgs[1] == mqgs[0] and mqgs[2] == mqgs[0]

    def test_keys_do_not_overflow_on_a_large_vocabulary(self):
        # Node ids past 2**31 and 2**16 + labels: a key built as
        # id * num_labels * num_nodes would wrap int64; keys built from
        # positions in the neighborhood cannot.
        node_ids = np.array([2**62, 2**40 + 7, 2**31, 2**33 + 1, 2**50], dtype=np.int64)
        names = {int(node_id): f"e{rank}" for rank, node_id in enumerate(node_ids)}
        label_strings = [f"l{index}" for index in range(2**16 + 3)]
        rows = [  # (subject position, label id, object position), e0 is the query entity
            (0, 2**16 + 2, 1),
            (0, 5, 2),
            (3, 2**16 + 2, 1),  # far sibling of an important in-edge of e1: removed
            (2, 5, 4),
            (1, 2**16 + 1, 3),
        ]
        subjects, labels, objects = (np.array(column, dtype=np.int64) for column in zip(*rows))
        columns = NeighborhoodColumns(
            term_of=names.__getitem__,
            label_strings=label_strings,
            node_ids=node_ids,
            node_distances=np.array([0, 1, 1, 2, 2], dtype=np.int64),
            near_count=3,
            subjects=subjects,
            labels=labels,
            objects=objects,
        )
        lazy = NeighborhoodGraph(query_tuple=("e0",), d=2, columns=columns)
        spec = NeighborhoodGraph(
            graph=KnowledgeGraph(
                (f"e{s}", label_strings[label], f"e{o}") for s, label, o in rows
            ),
            query_tuple=("e0",),
            d=2,
            distances={f"e{rank}": dist for rank, dist in enumerate([0, 1, 1, 2, 2])},
        )
        assert _removed_edges(spec) == {Edge("e3", label_strings[2**16 + 2], "e1")}
        assert ordered_view(reduce_neighborhood_graph(lazy)) == ordered_view(
            reduce_neighborhood_graph(spec)
        )

    def test_two_pass_removal_matches_per_node_spec(self, domain_backings):
        tuples, owned, _mapped, _overlay = domain_backings
        for query_tuple in tuples[:4]:
            neighborhood = neighborhood_graph(owned, query_tuple, d=2)
            per_node = set()
            for node in neighborhood.graph.nodes:
                per_node |= _unimportant_edges(neighborhood, node)
            assert _removed_edges(neighborhood) == per_node


class TestMQGDiscovery:
    def test_mqg_contains_query_entities_and_is_connected(
        self, figure1_neighborhood, figure1_stats
    ):
        mqg = discover_maximal_query_graph(figure1_neighborhood, figure1_stats, r=10)
        assert mqg.graph.has_node("Jerry Yang")
        assert mqg.graph.has_node("Yahoo!")
        assert mqg.graph.is_weakly_connected()

    def test_mqg_respects_size_target_roughly(self, figure1_neighborhood, figure1_stats):
        mqg = discover_maximal_query_graph(figure1_neighborhood, figure1_stats, r=6)
        # The greedy aims at r edges overall; allow some slack above it
        # because connectivity of the core cannot be sacrificed.
        assert mqg.num_edges <= figure1_neighborhood.num_edges
        assert mqg.num_edges >= 2

    def test_mqg_is_subgraph_of_neighborhood(self, figure1_neighborhood, figure1_stats):
        mqg = discover_maximal_query_graph(figure1_neighborhood, figure1_stats, r=10)
        for edge in mqg.graph.edges:
            assert figure1_neighborhood.graph.has_edge(*edge)

    def test_weights_and_core_populated(self, figure1_neighborhood, figure1_stats):
        mqg = discover_maximal_query_graph(figure1_neighborhood, figure1_stats, r=10)
        assert set(mqg.edge_weights) == set(mqg.graph.edges)
        assert all(weight > 0 for weight in mqg.edge_weights.values())
        assert mqg.core_edges  # two-entity query: core connects them
        assert all(edge in mqg.edge_weights for edge in mqg.core_edges)

    def test_single_entity_mqg(self, figure1_graph, figure1_stats):
        neighborhood = neighborhood_graph(figure1_graph, ("Stanford",), d=2)
        mqg = discover_maximal_query_graph(neighborhood, figure1_stats, r=8)
        assert mqg.graph.has_node("Stanford")
        assert mqg.num_edges >= 1

    def test_disconnected_entities_raise(self, figure1_stats):
        graph = KnowledgeGraph([("a", "r", "b"), ("c", "r", "d")])
        stats = GraphStatistics(graph)
        neighborhood = neighborhood_graph(graph, ("a", "c"), d=2)
        with pytest.raises((DisconnectedQueryError, DiscoveryError)):
            discover_maximal_query_graph(neighborhood, stats, r=5)

    def test_select_mqg_edges_empty_tuple_raises(self, figure1_graph):
        with pytest.raises(DiscoveryError):
            select_mqg_edges(figure1_graph, (), weights={}, r=5)

    def test_total_weight_and_incident_count(self, figure1_neighborhood, figure1_stats):
        mqg = discover_maximal_query_graph(figure1_neighborhood, figure1_stats, r=10)
        assert mqg.total_weight() == pytest.approx(sum(mqg.edge_weights.values()))
        assert mqg.incident_count("Jerry Yang") >= 1


def _trim_component_reference(component, required, weights, target):
    """The original quadratic greedy — kept as the executable spec for
    :func:`_trim_component`'s union-find reimplementation."""
    if len(component) <= target:
        return component
    current = set(component)
    removable = sorted(current, key=lambda e: (weights.get(e, 0.0), e))
    for edge in removable:
        if len(current) <= target:
            break
        if edge not in current:
            continue
        candidate = current - {edge}
        trimmed, exists = _component_containing(sorted(candidate), required)
        if exists:
            current = trimmed
    return current


class TestTrimComponent:
    @staticmethod
    def _random_case(seed: int):
        """A random connected multigraph, required nodes and tie-heavy weights."""
        import random

        rng = random.Random(seed)
        n = rng.randint(4, 18)
        nodes = [f"v{i}" for i in range(n)]
        edges = set()
        # Random spanning tree keeps everything connected, then extra
        # edges create the cycles/fragments trimming feeds on.
        for i in range(1, n):
            edges.add(Edge(nodes[rng.randrange(i)], f"r{rng.randrange(3)}", nodes[i]))
        for _ in range(rng.randint(0, 2 * n)):
            a, b = rng.choice(nodes), rng.choice(nodes)
            edges.add(Edge(a, f"r{rng.randrange(3)}", b))
        # Coarse weights force plenty of sort ties.
        weights = {edge: rng.randrange(5) / 2.0 for edge in edges}
        required = set(rng.sample(nodes, rng.randint(1, min(3, n))))
        component, exists = _component_containing(sorted(edges), required)
        assert exists
        target = rng.randint(1, max(1, len(component)))
        return component, required, weights, target

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_quadratic_reference(self, seed):
        component, required, weights, target = self._random_case(seed)
        fast = _trim_component(set(component), required, weights, target)
        reference = _trim_component_reference(set(component), required, weights, target)
        assert fast == reference

    def test_untrimmed_when_small_enough(self):
        edges = {Edge("a", "r", "b"), Edge("b", "r", "c")}
        assert _trim_component(set(edges), {"a"}, {}, 5) == edges

    def test_keeps_required_bridge(self):
        # a-b is the only connection between the required nodes and has the
        # lowest weight: trimming must keep it no matter the target.
        bridge = Edge("a", "bridge", "b")
        edges = {
            bridge,
            Edge("b", "r", "c"),
            Edge("c", "r", "d"),
            Edge("d", "r", "b"),
        }
        weights = {edge: 1.0 for edge in edges}
        weights[bridge] = 0.0
        trimmed = _trim_component(set(edges), {"a", "b"}, weights, 1)
        assert bridge in trimmed


class TestMerging:
    def _mqg_for(self, system, query_tuple):
        return system.discover_query_graph(query_tuple)

    def test_virtual_entities_replace_query_entities(self, figure1_system):
        mqg1 = self._mqg_for(figure1_system, ("Jerry Yang", "Yahoo!"))
        mqg2 = self._mqg_for(figure1_system, ("Steve Wozniak", "Apple Inc."))
        merged = merge_maximal_query_graphs([mqg1, mqg2], r=10)
        assert merged.query_tuple == (virtual_entity(0), virtual_entity(1))
        assert merged.graph.has_node(virtual_entity(0))
        assert not merged.graph.has_node("Jerry Yang")

    def test_shared_edges_get_boosted_weight(self, figure1_system):
        mqg1 = self._mqg_for(figure1_system, ("Jerry Yang", "Yahoo!"))
        mqg2 = self._mqg_for(figure1_system, ("Steve Wozniak", "Apple Inc."))
        merged = merge_maximal_query_graphs([mqg1, mqg2], r=20)
        founded = Edge(virtual_entity(0), "founded", virtual_entity(1))
        assert founded in set(merged.graph.edges)
        # Both founders have the founded edge, so its merged weight is
        # 2 * max(individual weights) and strictly exceeds both.
        individual = max(
            mqg1.edge_weights[Edge("Jerry Yang", "founded", "Yahoo!")],
            mqg2.edge_weights[Edge("Steve Wozniak", "founded", "Apple Inc.")],
        )
        assert merged.edge_weights[founded] == pytest.approx(2 * individual)

    def test_merged_graph_trimmed_to_target(self, figure1_system):
        mqg1 = self._mqg_for(figure1_system, ("Jerry Yang", "Yahoo!"))
        mqg2 = self._mqg_for(figure1_system, ("Bill Gates", "Microsoft"))
        merged = merge_maximal_query_graphs([mqg1, mqg2], r=6)
        assert merged.num_edges <= max(6, mqg1.num_edges)
        assert merged.graph.is_weakly_connected()

    def test_single_mqg_merge_is_virtualized(self, figure1_system):
        mqg = self._mqg_for(figure1_system, ("Jerry Yang", "Yahoo!"))
        merged = merge_maximal_query_graphs([mqg], r=10)
        assert merged.query_tuple == (virtual_entity(0), virtual_entity(1))
        assert merged.num_edges == mqg.num_edges

    def test_mismatched_arity_raises(self, figure1_system):
        mqg1 = self._mqg_for(figure1_system, ("Jerry Yang", "Yahoo!"))
        mqg2 = self._mqg_for(figure1_system, ("Stanford",))
        with pytest.raises(DiscoveryError):
            merge_maximal_query_graphs([mqg1, mqg2])

    def test_empty_merge_raises(self):
        with pytest.raises(DiscoveryError):
            merge_maximal_query_graphs([])
