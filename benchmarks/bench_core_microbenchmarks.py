"""Micro-benchmarks of GQBE's pipeline stages (not tied to one paper figure).

These time the individual components — neighborhood extraction, MQG
discovery, joins, the answer table, snapshot build/save/load — so
regressions in any stage are visible independently of the end-to-end
experiments.  Whole-query latency is not timed here: ``perfbench/`` measures
it end to end at scales where the work dominates the noise.  They also
serve as the ablation harness for the design choices called out in
DESIGN.md (e.g. running MQG discovery with and without the unimportant-edge
reduction).
"""

from __future__ import annotations

import pytest

from repro.core.config import GQBEConfig
from repro.core.gqbe import GQBE
from repro.discovery.mqg import discover_maximal_query_graph
from repro.discovery.reduction import reduce_neighborhood_graph
from repro.graph.neighborhood import neighborhood_graph
from repro.storage.snapshot import GraphStore


@pytest.fixture(scope="module")
def system(harness):
    bundle = harness._bundle("freebase")
    return bundle.gqbe, bundle.workload


def test_bench_neighborhood_extraction(system, benchmark):
    gqbe, workload = system
    query = workload.query("F18")
    result = benchmark(neighborhood_graph, gqbe.graph, query.query_tuple, 2)
    assert result.num_edges > 0


def _reduced_neighborhood(graph, query_tuple):
    """Def. 1 extraction plus the Sec. III-C reduction: the query's front half.

    The neighborhood stays id columns until the reduction has run, so
    timing ``neighborhood_graph`` alone would time little more than the
    BFS.
    """
    return reduce_neighborhood_graph(neighborhood_graph(graph, query_tuple, 2))


def test_bench_reduced_neighborhood(system, benchmark):
    """The front half over a graph built in memory (``GQBE(graph)``)."""
    gqbe, workload = system
    query = workload.query("F18")
    result = benchmark(_reduced_neighborhood, gqbe.graph, query.query_tuple)
    assert result.num_edges > 0


@pytest.fixture(scope="module")
def mapped_snapshot(system, tmp_path_factory):
    """The benchmark graph saved as a v3 snapshot directory."""
    gqbe, _workload = system
    directory = tmp_path_factory.mktemp("bench_v3") / "freebase.snapdir3"
    gqbe.graph_store.save(directory)
    return directory


@pytest.fixture(scope="module")
def mapped_graph(mapped_snapshot):
    """The benchmark graph reopened as a v3 mapped CSR view."""
    return GraphStore.load(mapped_snapshot).graph


def test_bench_mapped_neighborhood_extraction(system, mapped_graph, benchmark):
    """The front half over the mapped CSR columns — the serve path.

    Pairs with ``test_bench_reduced_neighborhood`` (the same arrays, built
    in memory): the gather and the reduction run on id columns and only
    the surviving edges are decoded.
    """
    _gqbe, workload = system
    query = workload.query("F18")
    result = benchmark(_reduced_neighborhood, mapped_graph, query.query_tuple)
    assert result.num_edges > 0


def test_bench_delta_overlay_neighborhood_extraction(
    system, mapped_snapshot, benchmark
):
    """The front half over a mapped graph with an ingested delta.

    Eight edges ingested at the query's anchor give every frontier a
    delta segment to read beside its base CSR slices; this gates the
    read amplification live ingest introduces on the hottest pipeline
    stage.
    """
    _gqbe, workload = system
    query = workload.query("F18")
    bundle = GraphStore.load(mapped_snapshot)
    anchor = query.query_tuple[0]
    bundle.ingest(
        [(anchor, "bench_delta_edge", f"DeltaNode_{index}") for index in range(8)]
    )
    result = benchmark(_reduced_neighborhood, bundle.graph, query.query_tuple)
    assert result.num_edges > 0


def test_bench_mqg_discovery_with_reduction(system, benchmark):
    gqbe, workload = system
    query = workload.query("F18")
    neighborhood = neighborhood_graph(gqbe.graph, query.query_tuple, d=2)
    mqg = benchmark(
        discover_maximal_query_graph, neighborhood, gqbe.statistics, 10, True
    )
    assert mqg.num_edges > 0


def test_bench_mqg_discovery_without_reduction(system, benchmark):
    """Ablation: skip the Sec. III-C reduction before Algorithm 1."""
    gqbe, workload = system
    query = workload.query("F18")
    neighborhood = neighborhood_graph(gqbe.graph, query.query_tuple, d=2)
    mqg = benchmark(
        discover_maximal_query_graph, neighborhood, gqbe.statistics, 10, False
    )
    assert mqg.num_edges > 0


def test_bench_bulk_fanout_join(system, benchmark):
    """Vectorized bulk join: all same-hub pairs through the densest label.

    This is the workload the columnar engine's whole-array probe path
    exists for (10x over tuple rows at scale 0.5; small lattice joins take
    its scalar tail instead and stay at parity)."""
    from repro.graph.knowledge_graph import Edge
    from repro.storage.join import evaluate_query_edges

    gqbe, _ = system
    label = max(
        gqbe.graph.label_counts().items(), key=lambda item: item[1]
    )[0]
    edges = [Edge("p", label, "hub"), Edge("q", label, "hub")]
    relation = benchmark(evaluate_query_edges, gqbe.store, edges)
    assert relation.num_rows > 0


def test_bench_overflowing_hub_join(benchmark):
    """A join that overflows a 10k-row cap: decided from the match counts.

    5 000 probe rows each bound to one of five hubs with 2 000 members:
    ten million candidate rows, none of which is expanded.  Sized by hand,
    not by ``GQBE_BENCH_SCALE`` — the cap is what is being timed.
    """
    import numpy as np

    from repro.exceptions import LatticeError
    from repro.graph.knowledge_graph import Edge, KnowledgeGraph
    from repro.storage.join import ColumnarRelation, extend_with_edge
    from repro.storage.snapshot import GraphStore

    hubs = [f"hub{j}" for j in range(5)]
    graph = KnowledgeGraph(
        [(f"member{i}", "member_of", hub) for hub in hubs for i in range(2_000)]
    )
    store = GraphStore.build(graph).store
    id_of = store.vocabulary.id_of
    rows = np.arange(5_000)
    relation = ColumnarRelation(
        ("x", "h"),
        [id_of("member0") + rows, np.array([id_of(hub) for hub in hubs])[rows % 5]],
    )

    def overflows() -> bool:
        try:
            extend_with_edge(store, relation, Edge("m", "member_of", "h"), max_rows=10_000)
        except LatticeError:
            return True
        return False

    assert benchmark(overflows)


def test_bench_record_self_matching_relation(benchmark):
    """Folding one lattice node's 10k-row relation into the answer table.

    Seven columns, ~600 distinct answers, three rows in ten binding some
    column to its own query node; half of the answers are already in the
    table from an earlier node.  Sized by hand (see above).
    """
    import numpy as np

    from repro.discovery.mqg import MaximalQueryGraph
    from repro.graph.knowledge_graph import Edge, KnowledgeGraph
    from repro.lattice.exploration import AnswerAccumulator
    from repro.lattice.query_graph import LatticeSpace
    from repro.storage.join import ColumnarRelation
    from repro.storage.snapshot import GraphStore

    variables = ("q", "a", "b", "c", "d", "e", "f")
    edges = [Edge("q", f"r{i}", node) for i, node in enumerate(variables[1:])]
    space = LatticeSpace(
        MaximalQueryGraph(
            graph=KnowledgeGraph(edges),
            query_tuple=("q",),
            edge_weights={edge: 1.0 + i / 8 for i, edge in enumerate(edges)},
            core_edges=frozenset(),
        )
    )
    others = [f"x{i}" for i in range(3_000)]
    store = GraphStore.build(
        KnowledgeGraph([(node, "exists", node) for node in (*variables, *others)])
    ).store
    id_of = store.vocabulary.id_of
    rng = np.random.default_rng(14)

    def relation(num_rows: int, answers: "np.ndarray") -> ColumnarRelation:
        columns = [answers[rng.integers(0, len(answers), num_rows)]]
        for name in variables[1:]:
            column = rng.integers(id_of(others[0]), id_of(others[-1]) + 1, num_rows)
            column[rng.random(num_rows) < 0.05] = id_of(name)  # ~30 % of rows over six columns
            columns.append(column)
        return ColumnarRelation(variables, columns)

    pool = np.array([id_of(name) for name in others[:900]])
    earlier = relation(2_000, pool[:600])
    node = relation(10_000, pool[300:])

    def fresh():
        accumulator = AnswerAccumulator(space, store, {("q",)})
        accumulator.record(space.full_mask ^ 1, earlier)
        return (accumulator,), {}

    def fold(accumulator):
        accumulator.record(space.full_mask, node)
        return len(accumulator)

    assert benchmark.pedantic(fold, setup=fresh, rounds=30) > 600


def test_bench_offline_precomputation(harness, benchmark):
    """Time to build statistics + vertical partition store for the data graph."""
    graph = harness.freebase_workload().dataset.graph
    system = benchmark(GQBE, graph, GQBEConfig(mqg_size=10))
    assert system.store.num_rows == graph.num_edges


def test_bench_cold_start_from_triples(harness, benchmark, tmp_path_factory):
    """The full cold start the snapshot replaces: parse triples, build the
    graph, the statistics and the store."""
    from repro.graph.triples import load_graph, write_triples

    graph = harness.freebase_workload().dataset.graph
    path = tmp_path_factory.mktemp("bench_cold") / "freebase.tsv"
    write_triples(sorted(graph.edges), path)
    system = benchmark(lambda: GQBE(load_graph(path), GQBEConfig(mqg_size=10)))
    assert system.store.num_rows == graph.num_edges


def test_bench_snapshot_save(harness, benchmark, tmp_path_factory):
    """Time to serialize the offline state (the build-index write path)."""
    graph = harness.freebase_workload().dataset.graph
    graph_store = GraphStore.build(graph)
    path = tmp_path_factory.mktemp("bench_snapshot") / "freebase.snap"
    size = benchmark(graph_store.save, path)
    assert size > 0


def test_bench_streaming_build(harness, benchmark, tmp_path_factory):
    """The out-of-core build, dump to committed snapshot.

    Pairs with ``test_bench_cold_start_from_triples`` +
    ``test_bench_snapshot_save``: the streaming path trades some wall
    clock (two passes over the dump, spill-run merges) for bounded peak
    memory; this gates that the trade stays a constant factor rather
    than drifting superlinear.  The tiny budget forces the external-sort
    machinery to actually engage at benchmark scale.
    """
    from repro.graph.triples import write_triples
    from repro.storage.build import build_streaming_snapshot

    graph = harness.freebase_workload().dataset.graph
    scratch = tmp_path_factory.mktemp("bench_streaming")
    dump = scratch / "freebase.tsv"
    write_triples(sorted(graph.edges), dump)
    counter = iter(range(1_000_000))

    def build():
        return build_streaming_snapshot(
            dump,
            scratch / f"out_{next(counter)}",
            memory_budget_mb=1,
        )

    report = benchmark(build)
    assert report["edges"] == graph.num_edges
