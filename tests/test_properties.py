"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from graph_backings import ordered_view, three_backings

from repro.discovery.reduction import reduce_neighborhood_graph
from repro.evaluation.metrics import (
    average_precision,
    ndcg_at_k,
    pearson_correlation,
    precision_at_k,
)
from repro.exceptions import DiscoveryError
from repro.graph.knowledge_graph import Edge, KnowledgeGraph
from repro.graph.neighborhood import neighborhood_graph
from repro.graph.statistics import GraphStatistics
from repro.graph.triples import format_triple, triples_from_strings
from repro.lattice.query_graph import LatticeSpace
from repro.discovery.mqg import MaximalQueryGraph
from repro.storage.join import evaluate_query_edges
from repro.storage.store import VerticalPartitionStore

# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
_node = st.sampled_from([f"n{i}" for i in range(8)])
_label = st.sampled_from(["r1", "r2", "r3", "r4"])
_triple = st.tuples(_node, _label, _node)
_triples = st.lists(_triple, min_size=1, max_size=30)

_slow = settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@given(_triples)
@_slow
def test_graph_edge_and_label_counts_consistent(triples):
    graph = KnowledgeGraph(triples)
    assert graph.num_edges == len(set(Edge(*t) for t in triples))
    assert sum(graph.label_counts().values()) == graph.num_edges
    # Sum of out-degrees equals number of edges.
    assert sum(graph.out_degree(node) for node in graph.nodes) == graph.num_edges


@given(_triples)
@_slow
def test_graph_components_partition_nodes(triples):
    graph = KnowledgeGraph(triples)
    components = graph.weakly_connected_components()
    seen = [node for component in components for node in component]
    assert sorted(seen) == sorted(graph.nodes)


@given(_triples)
@_slow
def test_triple_roundtrip_through_both_formats(triples):
    edges = sorted(set(Edge(*t) for t in triples))
    for fmt in ("tsv", "nt"):
        text = "\n".join(format_triple(edge, fmt=fmt) for edge in edges)
        assert triples_from_strings(text, fmt=fmt) == edges


@given(_triples)
@_slow
def test_statistics_invariants(triples):
    graph = KnowledgeGraph(triples)
    stats = GraphStatistics(graph)
    for edge in graph.edges:
        assert stats.ief(edge) >= 0.0
        assert 1 <= stats.p(edge) <= graph.num_edges
        assert stats.base_edge_weight(edge) >= 0.0


@given(_triples, st.integers(min_value=1, max_value=3))
@_slow
def test_neighborhood_is_monotone_in_d(triples, d):
    graph = KnowledgeGraph(triples)
    entity = next(iter(graph.nodes))
    smaller = neighborhood_graph(graph, (entity,), d=d)
    larger = neighborhood_graph(graph, (entity,), d=d + 1)
    assert set(smaller.graph.nodes) <= set(larger.graph.nodes)
    assert set(smaller.graph.edges) <= set(larger.graph.edges)
    assert all(dist <= d for dist in smaller.distances.values())


@given(
    _triples,
    st.integers(min_value=0, max_value=30),
    st.lists(_node, min_size=1, max_size=3, unique=True),
    st.integers(min_value=1, max_value=3),
)
@_slow
def test_id_space_front_half_matches_string_spec(triples, cut, entities, d):
    """Neighborhood + reduction over the mapped graph and over a delta overlay
    (any split of the stream) equal the owned-graph spec, order included."""
    triples = list(dict.fromkeys(triples))
    cut = 1 + cut % len(triples)
    with three_backings(triples[:cut], triples[cut:]) as (owned, mapped, overlay):
        query_tuple = tuple(entity for entity in entities if owned.has_node(entity))
        if not query_tuple:
            return
        outcomes = []
        for graph in (owned, mapped, overlay):
            neighborhood = neighborhood_graph(graph, query_tuple, d=d)
            try:
                reduced = reduce_neighborhood_graph(neighborhood)
            except DiscoveryError as error:
                outcomes.append((None, str(error)))
                continue
            outcomes.append((ordered_view(neighborhood), ordered_view(reduced)))
        assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]


@given(_triples)
@_slow
def test_store_row_counts_match_graph(triples):
    graph = KnowledgeGraph(triples)
    store = VerticalPartitionStore(graph)
    assert store.num_rows == graph.num_edges
    for label in graph.labels:
        assert store.cardinality(label) == graph.label_count(label)


@given(_triples)
@_slow
def test_single_edge_join_matches_label_table(triples):
    graph = KnowledgeGraph(triples)
    store = VerticalPartitionStore(graph)
    label = next(iter(graph.labels))
    relation = evaluate_query_edges(store, [Edge("u", label, "v")], injective=False)
    expected = {(e.subject, e.object) for e in graph.edges if e.label == label}
    decoded = {store.vocabulary.decode_row(row) for row in relation.rows}
    assert decoded == expected


@given(_triples)
@_slow
def test_lattice_structure_score_monotone(triples):
    graph = KnowledgeGraph(triples)
    entity = next(iter(graph.nodes))
    incident = graph.incident_edges(entity)
    if not incident:
        return
    weights = {edge: 1.0 + i * 0.1 for i, edge in enumerate(sorted(graph.edges))}
    mqg_graph = KnowledgeGraph()
    for edge in graph.edges:
        mqg_graph.add_edge(*edge)
    mqg = MaximalQueryGraph(
        graph=mqg_graph,
        query_tuple=(entity,),
        edge_weights=weights,
        core_edges=frozenset(),
    )
    space = LatticeSpace(mqg)
    # Property 2: a supergraph always has a strictly larger structure score.
    full = space.full_mask
    for i in range(space.num_edges):
        child = full & ~(1 << i)
        if child:
            assert space.weight_of_mask(child) < space.weight_of_mask(full)


# ----------------------------------------------------------------------
# metric properties
# ----------------------------------------------------------------------
_tuples = st.lists(
    st.tuples(st.sampled_from([f"e{i}" for i in range(12)])), min_size=1, max_size=12, unique=True
)


@given(_tuples, _tuples, st.integers(min_value=1, max_value=12))
@_slow
def test_metric_ranges(results, truth, k):
    p = precision_at_k(results, truth, k)
    ap = average_precision(results, truth, k)
    ndcg = ndcg_at_k(results, truth, k)
    assert 0.0 <= p <= 1.0
    assert 0.0 <= ap <= 1.0 + 1e-9
    assert 0.0 <= ndcg <= 1.0 + 1e-9


@given(_tuples, st.integers(min_value=1, max_value=12))
@_slow
def test_perfect_results_have_perfect_precision(truth, k):
    k = min(k, len(truth))
    assert precision_at_k(truth, truth, k) == 1.0
    assert ndcg_at_k(truth, truth, k) in (0.0, 1.0) or ndcg_at_k(truth, truth, k) >= 0.99


@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=20))
@_slow
def test_pearson_correlation_symmetric_and_bounded(xs):
    ys = [x * 2 + 1 for x in xs]
    pcc = pearson_correlation(xs, ys)
    if pcc is not None:
        assert -1.0 - 1e-9 <= pcc <= 1.0 + 1e-9
        reverse = pearson_correlation(ys, xs)
        assert reverse is not None
        assert abs(pcc - reverse) < 1e-9
