"""Property-based tests (hypothesis) for core data structures and invariants."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from graph_backings import (
    ordered_view,
    random_multigraph,
    row_order,
    three_backings,
    three_graph_stores,
    three_stores,
)
from oracles import definition1, eq2_weight, extension, reduced

from repro.baselines.breadth_first import BreadthFirstExplorer
from repro.core.config import GQBEConfig
from repro.core.gqbe import GQBE
from repro.discovery.mqg import discover_maximal_query_graph
from repro.discovery.reduction import reduce_neighborhood_graph
from repro.evaluation.metrics import (
    average_precision,
    ndcg_at_k,
    pearson_correlation,
    precision_at_k,
)
from repro.exceptions import DiscoveryError, LatticeError
from repro.graph.knowledge_graph import Edge, KnowledgeGraph
from repro.graph.neighborhood import neighborhood_graph
from repro.graph.triples import format_triple, triples_from_strings
from repro.lattice.exploration import BestFirstExplorer
from repro.lattice.minimal_trees import minimal_query_trees
from repro.lattice.query_graph import LatticeSpace
from repro.discovery.mqg import MaximalQueryGraph
from repro.storage import join as join_module
from repro.storage.join import ColumnarRelation, evaluate_query_edges, extend_with_edge
from repro.storage.snapshot import GraphStore

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
    stats = GraphStore.build(graph).statistics
    for edge in graph.edges:
        assert stats.ief(edge) >= 0.0
        assert 1 <= stats.p(edge) <= graph.num_edges
        assert stats.base_edge_weight(edge) >= 0.0


@given(_triples, st.integers(min_value=1, max_value=3))
@_slow
def test_neighborhood_is_monotone_in_d(triples, d):
    graph = GraphStore.build(KnowledgeGraph(triples)).graph
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
    (any split of the stream) equal the string spec of ``tests/oracles.py``,
    order included (in the row order each backing reads, ``row_order``)."""
    triples = list(dict.fromkeys(triples))
    cut = 1 + cut % len(triples)
    with three_backings(triples[:cut], triples[cut:]) as (owned, mapped, overlay):
        query_tuple = tuple(entity for entity in entities if owned.has_node(entity))
        if not query_tuple:
            return

        def outcome(neighborhood, reduce):
            try:
                result = reduce(neighborhood)
            except DiscoveryError as error:
                return None, str(error)
            return ordered_view(neighborhood), ordered_view(result)

        for graph in (mapped, overlay):
            spec = definition1(row_order(owned, graph), query_tuple, d)
            assert outcome(
                neighborhood_graph(graph, query_tuple, d=d), reduce_neighborhood_graph
            ) == outcome(spec, reduced)


def _mqg_weights(neighborhood, statistics):
    """The Eq. 2 and Eq. 8 weights of the discovered MQG, or why there is none
    (a node whose only edge is a self-loop has an empty neighborhood)."""
    try:
        mqg = discover_maximal_query_graph(neighborhood, statistics, r=6)
    except DiscoveryError as error:
        return str(error)
    return mqg.discovery_weights, mqg.edge_weights


@given(
    _triples,
    st.sets(_node, min_size=3),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=1, max_value=2),
)
@_slow
def test_id_column_weights_equal_the_dict_statistics_bit_for_bit(triples, hub, cut, d):
    """Eq. 2 computed on the id columns of a mapped or ingested snapshot ==
    Eq. 2 counted on the strings of the same edges (``oracles.eq2_weight``),
    for every edge of every neighborhood, reduced or not — and each row of
    the columns is the edge at its place in ``graph.edges``; the MQGs
    discovered over those columns equal a from-scratch build's.

    The graphs have a hub (several nodes point at ``n0`` under one label),
    self-loops and parallel edges under different labels (eight nodes, four
    labels).  The first label seen sorts last, so first-seen and sorted
    label order differ.  The ingested part always brings a new entity, a
    new label, and a second edge onto an existing ``(subject, label)`` and
    an existing ``(object, label)`` key, so a probe of an ingested table
    counts base and new rows together.
    """
    triples = list(dict.fromkeys(
        [("n0", "z_first", "n1")] + [(node, "r1", "n0") for node in sorted(hub)] + triples
    ))
    cut = 1 + cut % len(triples)
    subject, label, obj = triples[cut - 1]
    delta = triples[cut:] + [
        (subject, label, "fresh"), ("fresh", label, obj), ("fresh", "r_new", obj),
    ]
    with three_graph_stores(triples[:cut], delta) as (owned, merged, ingested):
        built = GraphStore.build(owned)
        for bundle in (merged, ingested):
            statistics = bundle.statistics
            for node in owned.nodes:
                neighborhood = neighborhood_graph(bundle.graph, (node,), d=d)
                reduced = reduce_neighborhood_graph(neighborhood)
                for columnar in (neighborhood, reduced):
                    edges = list(columnar.graph.edges)
                    assert columnar.columns.decode() == edges
                    assert statistics.column_weights(columnar.columns).tolist() == [
                        eq2_weight(owned, edge) for edge in edges
                    ]
                assert _mqg_weights(neighborhood, statistics) == _mqg_weights(
                    neighborhood_graph(built.graph, (node,), d=d), built.statistics
                )


@given(_triples)
@_slow
def test_store_row_counts_match_graph(triples):
    graph = KnowledgeGraph(triples)
    store = GraphStore.build(graph).store
    assert store.num_rows == graph.num_edges
    for label in graph.labels:
        assert store.cardinality(label) == graph.label_count(label)


@given(_triples)
@_slow
def test_single_edge_join_matches_label_table(triples):
    graph = KnowledgeGraph(triples)
    store = GraphStore.build(graph).store
    label = next(iter(graph.labels))
    relation = evaluate_query_edges(store, [Edge("u", label, "v")], injective=False)
    expected = {(e.subject, e.object) for e in graph.edges if e.label == label}
    decoded = {store.vocabulary.decode_row(row) for row in relation.to_rows()}
    assert decoded == expected


_probe_rows = st.one_of(
    st.just([]),
    st.lists(st.tuples(_node, _node, _node), min_size=1, max_size=1),
    st.lists(st.tuples(_node, _node, _node), min_size=2, max_size=64),
)


@given(
    _triples,
    st.booleans(),
    st.integers(min_value=0, max_value=30),
    _probe_rows,
    st.integers(min_value=1, max_value=3),
    st.sampled_from(["first", "subject", "object", "both"]),
    _label,
    st.booleans(),
    st.sampled_from([1, 2, 3, 7]),
)
@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_row_cap_raises_iff_the_uncapped_join_is_larger(
    triples, hub, cut, rows, width, bound, label, injective, chunk
):
    """``extend_with_edge(..., max_rows=c)`` raises iff the uncapped result
    has more than ``c`` rows and otherwise returns it unchanged, row order
    included — over built, mapped and ingested tables, with the probe rows
    expanded whole and in slices of ``chunk`` candidates, for caps around
    the true size.  Probe relations of 0, 1 and up to 64 rows, first edges
    (self-loops included) and both-bound filters are all drawn."""
    triples = list(dict.fromkeys(triples))
    if hub:  # every node points at n0, and n0 at itself
        triples += [t for t in ((f"n{i}", label, "n0") for i in range(8)) if t not in triples]
    cut = 1 + cut % len(triples)
    variables = ("a", "b", "c")[:width]
    rows = [row[:width] for row in rows]
    if bound == "first":
        variables, rows = (), [()]
        edge = Edge("a", label, "a") if width == 1 else Edge("a", label, "b")
    elif bound == "both" and width == 1:
        edge = Edge("a", label, "a")  # a self-loop filter
    elif bound == "both":
        edge = Edge("a", label, "b")
    else:
        edge = Edge("a", label, "new") if bound == "subject" else Edge("new", label, "a")
    pairs = sorted({(s, o) for s, name, o in triples if name == label})
    expected = sorted(extension(pairs, variables, rows, edge, injective))

    def probe_relation(store):
        id_of = store.vocabulary.id_of
        ids = [tuple(id_of(node) for node in row) for row in rows]
        ids = [row for row in ids if None not in row]
        columns = [np.array([row[i] for row in ids], dtype=np.int64) for i in range(len(variables))]
        return ColumnarRelation(variables, columns)

    with three_stores(triples[:cut], triples[cut:]) as stores:
        for store in stores:
            known = set(store.vocabulary)
            expected_here = [row for row in expected if known.issuperset(row[:len(variables)])]
            relation = probe_relation(store)
            for path in (join_module._EXPANSION_CHUNK_ROWS, chunk):
                with mock.patch.object(join_module, "_EXPANSION_CHUNK_ROWS", path):
                    uncapped = extend_with_edge(store, relation, edge, injective=injective)
                    full = uncapped.to_rows()
                    decoded = sorted(store.vocabulary.decode_row(row) for row in full)
                    assert decoded == expected_here, path
                    size = len(full)
                    for cap in {0, 1, size - 1, size, size + 1, 2 * size + 3} - {-1}:
                        if size > cap:
                            with pytest.raises(LatticeError, match=f"max_rows={cap}"):
                                extend_with_edge(
                                    store, relation, edge, injective=injective, max_rows=cap
                                )
                        else:
                            capped = extend_with_edge(
                                store, relation, edge, injective=injective, max_rows=cap
                            )
                            assert capped.variables == uncapped.variables, path
                            assert capped.to_rows() == full, path


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


@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=2, max_value=10),
    st.sampled_from(["leaf0", "h0"]),
)
@_slow
def test_best_first_climbs_one_chain_when_the_mqg_has_more_than_k_prime_answers(
    seed, hub_leaves, entity
):
    """With k = k' = 1 and an MQG with more than k' answers besides the
    query tuple, best-first evaluates the smallest minimal query tree and
    then one node per level up to the MQG: |E(MQG)| - t + 1 nodes, t the
    tree's edge count.  This is never more than the Baseline's count.

    By Property 1 every node on the climb has a superset of the MQG's
    answers, so each has more than k' and its parents tie larger-first;
    no null node is met, so every bound stays weight(MQG), and Theorem 4's
    stop fires at the MQG.  The graphs have two hubs sharing leaves
    (``random_multigraph``), so a leaf or a hub often has look-alikes.
    """
    base, delta, _nodes = random_multigraph(seed, hub_leaves=hub_leaves)
    system = GQBE(KnowledgeGraph(base + delta), config=GQBEConfig(mqg_size=8))
    query_tuple = (entity,)
    space = LatticeSpace(system.discover_query_graph(query_tuple))
    store = system.store
    full = evaluate_query_edges(store, space.edges_of(space.full_mask))
    column = full.columns[full.column(entity)].tolist()
    answers = {store.vocabulary.decode_row([entity_id]) for entity_id in column}
    assume(len(answers - {query_tuple}) > 1)

    smallest_tree = min(mask.bit_count() for mask in minimal_query_trees(space))
    best_first = BestFirstExplorer(
        space, store, k=1, k_prime=1, excluded_tuples={query_tuple}
    ).run()
    baseline = BreadthFirstExplorer(space, store, k=1, excluded_tuples={query_tuple}).run()
    nodes = best_first.statistics.nodes_evaluated
    assert nodes == space.num_edges - smallest_tree + 1
    assert nodes <= baseline.statistics.nodes_evaluated
    assert best_first.statistics.null_nodes == 0


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
