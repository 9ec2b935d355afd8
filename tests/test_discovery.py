"""Unit tests for query graph discovery: weights, reduction, MQG, merging."""

from __future__ import annotations

import random

import numpy as np
import pytest
from graph_backings import (
    ordered_view,
    random_multigraph,
    three_backings,
    three_graph_stores,
)
from oracles import (
    SpecNeighborhood,
    definition1,
    eq2_weight,
    reduced,
    removed_edges,
    unimportant_edges,
)

from repro.discovery.merge import merge_maximal_query_graphs, virtual_entity
from repro.discovery.mqg import (
    _rows_of_edges,
    _Selection,
    discover_maximal_query_graph,
    select_mqg_edges,
)
from repro.discovery.reduction import reduce_neighborhood_graph
from repro.discovery.weights import edge_depths, mqg_edge_weights
from repro.exceptions import DisconnectedQueryError, DiscoveryError
from repro.graph.knowledge_graph import Edge, KnowledgeGraph
from repro.graph.neighborhood import (
    NeighborhoodColumns,
    NeighborhoodGraph,
    neighborhood_graph,
)
from repro.storage.snapshot import GraphStore


@pytest.fixture()
def figure1_neighborhood(figure1_mapped):
    return neighborhood_graph(figure1_mapped, ("Jerry Yang", "Yahoo!"), d=2)


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
        neighborhood = neighborhood_graph(GraphStore.build(graph).graph, ("q1", "q2"), d=2)
        reduced = reduce_neighborhood_graph(neighborhood)
        assert reduced.graph.has_edge("q1", "education", "Uni")
        assert not reduced.graph.has_edge("other0", "education", "Uni")

    def test_important_edges_on_inter_entity_paths_survive(self, figure1_neighborhood):
        reduced = reduce_neighborhood_graph(figure1_neighborhood)
        assert reduced.graph.has_edge("Jerry Yang", "founded", "Yahoo!")


def _reduction_outcome(graph, query_tuple, d):
    """The reduced neighborhood's ordered view, or the error it raises.

    On a :class:`KnowledgeGraph` this is the string spec of
    ``tests/oracles.py``, on any other graph the engine's reduction.
    """
    try:
        if isinstance(graph, KnowledgeGraph):
            return ordered_view(reduced(definition1(graph, query_tuple, d)))
        neighborhood = neighborhood_graph(graph, query_tuple, d=d)
        result = reduce_neighborhood_graph(neighborhood)
    except DiscoveryError as error:
        return type(error), str(error)
    # The reduction read the id columns; nothing decoded H_t itself, and
    # the surviving rows stay beside the edges decoded from them.
    assert neighborhood._graph is None and neighborhood._distances is None
    assert result.columns.decode() == list(result.graph.edges)
    return ordered_view(result)


class TestIdSpaceReduction:
    """Reduction over id columns (mapped, delta overlay) against the string
    spec of ``tests/oracles.py``: equal reduced graphs as ordered sequences."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_domains_match_string_spec(self, domain_backings, d):
        tuples, owned, mapped, overlay = domain_backings
        for query_tuple in tuples:
            spec = _reduction_outcome(owned, query_tuple, d)
            assert _reduction_outcome(mapped.graph, query_tuple, d) == spec
            assert _reduction_outcome(overlay.graph, query_tuple, d) == spec

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
        for query_tuple in tuples[:6]:
            mqgs = []
            for bundle in (GraphStore.build(owned), mapped, overlay):
                neighborhood = neighborhood_graph(bundle.graph, query_tuple, d=2)
                try:
                    mqg = discover_maximal_query_graph(
                        neighborhood, bundle.statistics, r=8, reduce_first=False
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
        spec = SpecNeighborhood(
            query_tuple=("e0",),
            d=2,
            graph=KnowledgeGraph(
                (f"e{s}", label_strings[label], f"e{o}") for s, label, o in rows
            ),
            distances={f"e{rank}": dist for rank, dist in enumerate([0, 1, 1, 2, 2])},
        )
        assert removed_edges(spec) == {Edge("e3", label_strings[2**16 + 2], "e1")}
        assert ordered_view(reduce_neighborhood_graph(lazy)) == ordered_view(reduced(spec))

    def test_two_pass_removal_matches_per_node_spec(self, domain_backings):
        tuples, owned, _mapped, _overlay = domain_backings
        for query_tuple in tuples[:4]:
            neighborhood = definition1(owned, query_tuple, 2)
            per_node = set()
            for node in neighborhood.graph.nodes:
                per_node |= unimportant_edges(neighborhood, node)
            assert removed_edges(neighborhood) == per_node


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

    def test_single_entity_mqg(self, figure1_mapped, figure1_stats):
        neighborhood = neighborhood_graph(figure1_mapped, ("Stanford",), d=2)
        mqg = discover_maximal_query_graph(neighborhood, figure1_stats, r=8)
        assert mqg.graph.has_node("Stanford")
        assert mqg.num_edges >= 1

    def test_disconnected_entities_raise(self, figure1_stats):
        bundle = GraphStore.build(KnowledgeGraph([("a", "r", "b"), ("c", "r", "d")]))
        neighborhood = neighborhood_graph(bundle.graph, ("a", "c"), d=2)
        with pytest.raises((DisconnectedQueryError, DiscoveryError)):
            discover_maximal_query_graph(neighborhood, bundle.statistics, r=5)

    def test_select_mqg_edges_empty_tuple_raises(self, figure1_graph):
        with pytest.raises(DiscoveryError):
            select_mqg_edges(figure1_graph, (), weights={}, r=5)

    def test_total_weight_and_incident_count(self, figure1_neighborhood, figure1_stats):
        mqg = discover_maximal_query_graph(figure1_neighborhood, figure1_stats, r=10)
        assert mqg.total_weight() == pytest.approx(sum(mqg.edge_weights.values()))
        assert mqg.incident_count("Jerry Yang") >= 1


# ----------------------------------------------------------------------
# Algorithm 1 written from the paper, on strings: the oracle
# ----------------------------------------------------------------------
def _component_containing(edges, required):
    """``(edges of the weakly connected component containing every required
    node, whether there is one)``, by a traversal from scratch."""
    adjacency = {}
    for edge in edges:
        adjacency.setdefault(edge.subject, []).append(edge)
        adjacency.setdefault(edge.object, []).append(edge)
    if not all(node in adjacency for node in required):
        return set(), False
    start = min(required)
    seen, component, stack = {start}, set(), [start]
    while stack:
        node = stack.pop()
        for edge in adjacency[node]:
            component.add(edge)
            other = edge.other(node)
            if other not in seen:
                seen.add(other)
                stack.append(other)
    return (component, True) if set(required) <= seen else (set(), False)


def _trim_component_reference(component, required, weights, target):
    """The quadratic greedy: remove the lightest edge whose removal keeps
    the required nodes connected, rebuild their component, repeat."""
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


def _select_component_reference(edges, required, weights, target):
    """Rebuild the required component for every prefix of the weight order;
    exact size, else the largest below, else the smallest above, trimmed."""
    ordered = sorted(edges, key=lambda e: (-weights.get(e, 0.0), e))
    exact = below = above = None
    for length in range(1, len(ordered) + 1):
        component, exists = _component_containing(ordered[:length], required)
        if not exists:
            continue
        if len(component) == target:
            exact = exact or component
        elif len(component) < target:
            below = component
        else:
            above = above or component
    if exact or below:
        return exact or below
    return _trim_component_reference(above, required, weights, target) if above else set()


def _select_mqg_edges_reference(graph, query_tuple, weights, r):
    """Divide (core graph, one individual subgraph per entity) and conquer."""
    budget = max(r // (len(query_tuple) + 1), 1)
    parts = {entity: set() for entity in query_tuple}
    core = set()
    exclusive = {}
    for entity in query_tuple:
        # Nodes that, with `entity` gone, reach no other query entity.
        others = [other for other in query_tuple if other != entity]
        reachable, frontier = set(others), list(others)
        while frontier:
            for neighbor in graph.neighbors(frontier.pop()):
                if neighbor != entity and neighbor not in reachable:
                    reachable.add(neighbor)
                    frontier.append(neighbor)
        exclusive[entity] = set(graph.nodes) - reachable - {entity}
    for edge in graph.edges:
        owners = [e for e in query_tuple if {edge.subject, edge.object} & exclusive[e]]
        (parts[owners[0]] if owners else core).add(edge)

    core_selection = set()
    if len(query_tuple) > 1:
        core_selection = _select_component_reference(core, set(query_tuple), weights, budget)
        if not core_selection:
            raise DisconnectedQueryError(tuple(query_tuple), 0)
    selected = set(core_selection)
    for entity in query_tuple:
        selected |= _select_component_reference(parts[entity], {entity}, weights, budget)
    if not selected:
        raise DiscoveryError("nothing selected")
    return selected, core_selection


def _outcome(function, *args, **kwargs):
    """What ``function`` returns, or the type of the error it raises."""
    try:
        return function(*args, **kwargs)
    except DiscoveryError as error:
        return type(error)


def _tied_weights(graph, rng):
    """Coarse random weights: plenty of ties for the Edge order to break."""
    return {edge: rng.randrange(4) / 2.0 for edge in graph.edges}


class TestAlgorithmOneOracle:
    """The positional implementation against the oracle above."""

    @pytest.mark.parametrize("seed", range(30))
    def test_random_multigraphs_match_the_oracle(self, seed):
        # random_multigraph has a hub every node points at: with a small r
        # its component overshoots the budget and has to be trimmed.
        base, delta, nodes = random_multigraph(seed)
        graph = KnowledgeGraph(base + delta)
        rng = random.Random(seed)
        weights = _tied_weights(graph, rng)
        edge_order = list(graph.edges)
        for arity in (1, 2, 3):
            query_tuple = tuple(rng.sample(nodes, arity))
            for r in (2, 5, 9, 40):
                spec = _outcome(_select_mqg_edges_reference, graph, query_tuple, weights, r)
                got = _outcome(select_mqg_edges, graph, query_tuple, weights, r)
                if isinstance(spec, type):
                    assert got is spec
                    continue
                selected, core = got
                assert (set(selected), set(core)) == spec
                # Both come back in the graph's own edge order, each edge once.
                assert selected == [edge for edge in edge_order if edge in spec[0]]
                assert core == [edge for edge in edge_order if edge in spec[1]]

    @pytest.mark.parametrize("seed", range(30))
    def test_sparse_graphs_in_pieces_match_the_oracle(self, seed):
        # No hub: tuples fall apart (DisconnectedQueryError on both sides)
        # and pieces that hold no query entity belong to the first one.
        rng = random.Random(seed)
        nodes = [f"n{i}" for i in range(rng.randint(5, 14))]
        graph = KnowledgeGraph(
            (rng.choice(nodes), f"r{rng.randrange(3)}", rng.choice(nodes))
            for _ in range(rng.randint(4, 16))
        )
        weights = _tied_weights(graph, rng)
        present = sorted(graph.nodes)
        for arity in (1, 2, 3, 4):
            query_tuple = tuple(rng.sample(present, arity))
            for r in (3, 8):
                spec = _outcome(_select_mqg_edges_reference, graph, query_tuple, weights, r)
                got = _outcome(select_mqg_edges, graph, query_tuple, weights, r)
                if isinstance(spec, type):
                    assert got is spec
                else:
                    assert (set(got[0]), set(got[1])) == spec

    def test_scan_stops_at_the_first_prefix_that_reaches_the_budget(self, monkeypatch):
        # A star of 200 edges around the query entity, budget 3: the first
        # three edges settle the outcome and nothing past them is looked at.
        from repro.discovery import mqg as mqg_module

        graph = KnowledgeGraph((("q", "r", f"n{i:03d}") for i in range(200)))
        weights = {edge: 1.0 for edge in graph.edges}
        added = []
        original = mqg_module._Forest.grow

        def counting(self, rows, required, enough):
            grown = original(self, rows, required, enough)
            added.append(grown[0])
            return grown

        monkeypatch.setattr(mqg_module._Forest, "grow", counting)
        selected, _core = select_mqg_edges(graph, ("q",), weights, r=6)
        assert selected == sorted(graph.edges)[:3]
        assert added == [3]


def _trim(component, required, weights, target):
    """``_Selection._trim`` over a component given as strings."""
    edges = sorted(component)
    query_tuple = tuple(sorted(required))
    rows = _rows_of_edges(edges, query_tuple)
    selection = _Selection(
        rows, np.array([weights.get(edge, 0.0) for edge in edges], dtype=np.float64)
    )
    kept = selection._trim(list(range(len(edges))), range(len(query_tuple)), target)
    return set(rows.edges_at(kept))


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
        fast = _trim(set(component), required, weights, target)
        reference = _trim_component_reference(set(component), required, weights, target)
        assert fast == reference

    def test_untrimmed_when_small_enough(self):
        edges = {Edge("a", "r", "b"), Edge("b", "r", "c")}
        assert _trim(set(edges), {"a"}, {}, 5) == edges

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
        trimmed = _trim(set(edges), {"a", "b"}, weights, 1)
        assert bridge in trimmed


def _mqg_view(mqg):
    """An MQG as the four things downstream code reads, floats compared exactly."""
    return sorted(mqg.graph.edges), mqg.edge_weights, mqg.core_edges, mqg.discovery_weights


def _discover_reference(graph, query_tuple, d, r, reduce_first):
    """Discovery on strings: ``tests/oracles.py`` for ``H_t``, its reduction
    and Eq. 2, the oracle above in place of Alg. 1."""
    working = definition1(graph, query_tuple, d)
    if reduce_first:
        working = reduced(working)
    weights = {edge: eq2_weight(graph, edge) for edge in working.graph.edges}
    selected, core = _select_mqg_edges_reference(working.graph, query_tuple, weights, r)
    mqg_graph = KnowledgeGraph(selected)
    discovery_weights = {edge: weights[edge] for edge in selected}
    return (
        sorted(selected),
        mqg_edge_weights(mqg_graph, query_tuple, discovery_weights),
        frozenset(core),
        discovery_weights,
    )


class TestIdSpaceDiscovery:
    """MQG discovery over id columns (built, mapped, ingested overlay) alike,
    and against discovery on strings."""

    @pytest.mark.parametrize("seed", range(20))
    def test_three_backings_discover_the_same_mqg(self, seed):
        base, delta, nodes = random_multigraph(seed)
        rng = random.Random(seed)
        with three_graph_stores(base, delta) as (owned, merged_store, overlay_store):
            built = GraphStore.build(owned)
            backings = [
                (built.graph, built.statistics),
                (merged_store.graph, merged_store.statistics),
                (overlay_store.graph, overlay_store.statistics),
            ]
            for arity in (1, 2, 3):
                query_tuple = tuple(rng.sample(nodes, arity))
                for d, r, reduce_first in [(2, 6, True), (2, 6, False), (1, 3, True), (3, 15, False)]:
                    views = []
                    for graph, stats in backings:
                        neighborhood = neighborhood_graph(graph, query_tuple, d=d)
                        mqg = _outcome(
                            discover_maximal_query_graph,
                            neighborhood, stats, r=r, reduce_first=reduce_first,
                        )
                        views.append(mqg if isinstance(mqg, type) else _mqg_view(mqg))
                    assert views[1] == views[0] and views[2] == views[0]
                    spec = _outcome(
                        _discover_reference, owned, query_tuple, d, r, reduce_first
                    )
                    if spec is DisconnectedQueryError:
                        # The oracle has no d to report; the type is the claim.
                        assert views[0] is DisconnectedQueryError
                    else:
                        assert views[0] == spec

    @pytest.mark.parametrize("seed", range(5))
    def test_nothing_is_decoded_but_the_mqg(self, seed):
        base, delta, nodes = random_multigraph(seed)
        rng = random.Random(seed)
        with three_graph_stores(base, delta) as (_owned, merged_store, overlay_store):
            for store in (merged_store, overlay_store):
                for arity in (1, 2, 3):
                    query_tuple = tuple(rng.sample(nodes, arity))
                    neighborhood = neighborhood_graph(store.graph, query_tuple, d=2)
                    reduced = reduce_neighborhood_graph(neighborhood)
                    for working, reduce_first in ((neighborhood, True), (reduced, False)):
                        mqg = discover_maximal_query_graph(
                            working, store.statistics, r=6, reduce_first=reduce_first
                        )
                        assert mqg.num_edges
                    for lazy in (neighborhood, reduced):
                        assert lazy._graph is None and lazy._distances is None

    @pytest.mark.parametrize("seed", range(10))
    def test_three_backings_merge_the_same_mqg(self, seed):
        base, delta, nodes = random_multigraph(seed)
        rng = random.Random(seed)
        with three_graph_stores(base, delta) as (owned, merged_store, overlay_store):
            built = GraphStore.build(owned)
            backings = [
                (built.graph, built.statistics),
                (merged_store.graph, merged_store.statistics),
                (overlay_store.graph, overlay_store.statistics),
            ]
            for arity in (1, 2, 3):
                tuples = [tuple(rng.sample(nodes, arity)) for _ in range(3)]
                for r in (4, 12):
                    views = []
                    for graph, stats in backings:

                        def merged(graph=graph, stats=stats):
                            mqgs = [
                                discover_maximal_query_graph(
                                    neighborhood_graph(graph, query_tuple, d=2), stats, r=r
                                )
                                for query_tuple in tuples
                            ]
                            return _mqg_view(merge_maximal_query_graphs(mqgs, r=r))

                        views.append(_outcome(merged))
                    assert views[1] == views[0] and views[2] == views[0]


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
