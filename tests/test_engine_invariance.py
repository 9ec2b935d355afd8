"""Answers do not depend on the join engine's free choices.

The engine has two: which code path runs a join operation (the Python
scalar tail or the numpy kernels, by relation size; the ``join_regime``
fixture forces either) and which int id the vocabulary gives an entity.
Neither may change a join's rows, their order, the ranked answers or the
work done to find them.

Join results are also checked against Definition 3 directly: a nested-loop
enumeration of the injective mappings of the query edges into the triples,
which shares no code with ``storage/join.py``.
"""

from __future__ import annotations

import random

import pytest

from repro.baselines.breadth_first import BreadthFirstExplorer
from repro.core.config import GQBEConfig
from repro.core.gqbe import GQBE
from repro.datasets.synthetic import FreebaseLikeGenerator
from repro.exceptions import LatticeError
from repro.graph.knowledge_graph import Edge, KnowledgeGraph
from repro.lattice.exploration import BestFirstExplorer
from repro.lattice.query_graph import LatticeSpace
from repro.storage.join import evaluate_query_edges, extend_with_edge
from repro.storage.snapshot import GraphStore

#: The regime each one is compared with: a forced regime against the
#: other forced one, the shipped adaptive regime against the scalar tail.
_CONTRAST = {"adaptive": "scalar", "vectorized": "scalar", "scalar": "vectorized"}

_CONFIG = {"mqg_size": 8, "k_prime": 25, "max_join_rows": 100_000}


def _definition3(graph, edges, variables, injective=True):
    """The matches of ``edges`` in ``graph`` by definition: every mapping of
    the query nodes to entities that maps each query edge onto a triple
    (and is one-to-one when ``injective``), as sorted ``variables`` rows."""
    triples = sorted((e.subject, e.label, e.object) for e in graph.edges)
    pending, ordered, bound = list(edges), [], set()
    while pending:  # connected order, so no cross product builds up
        edge = next(
            (e for e in pending if bound & {e.subject, e.object}), pending[0]
        )
        pending.remove(edge)
        ordered.append(edge)
        bound |= {edge.subject, edge.object}
    mappings = [{}]
    for edge in ordered:
        extended = []
        for mapping in mappings:
            for subject, label, obj in triples:
                if label != edge.label or (edge.subject == edge.object and subject != obj):
                    continue
                if mapping.get(edge.subject, subject) != subject:
                    continue
                if mapping.get(edge.object, obj) != obj:
                    continue
                grown = {**mapping, edge.subject: subject, edge.object: obj}
                if injective and len(set(grown.values())) != len(grown):
                    continue
                extended.append(grown)
        mappings = extended
    return sorted(tuple(mapping[v] for v in variables) for mapping in mappings)


def _decoded(store, relation):
    return sorted(store.vocabulary.decode_row(row) for row in relation.to_rows())


def _regime_independent(join_regime, compute):
    """``compute()`` under the test's regime, after checking that its
    contrast regime returns the same variables and rows in the same order."""
    relation = compute()
    join_regime.use(_CONTRAST[join_regime.name])
    contrast = compute()
    join_regime.use(join_regime.name)
    assert relation.variables == contrast.variables
    assert relation.to_rows() == contrast.to_rows()
    return relation


class TestJoinsMatchDefinition3:
    def test_single_edge_and_projection(self, figure1_graph, figure1_store, join_regime):
        edges = [Edge("q_person", "founded", "q_company")]
        relation = _regime_independent(
            join_regime, lambda: evaluate_query_edges(figure1_store, edges)
        )
        expected = _definition3(figure1_graph, edges, relation.variables)
        assert _decoded(figure1_store, relation) == expected
        decode = figure1_store.vocabulary.decode_row
        assert {decode(row) for row in relation.distinct_projection(["q_company"])} == {
            (company,) for _, company in _definition3(
                figure1_graph, edges, ("q_person", "q_company")
            )
        }

    def test_multi_edge_query_with_cycle(self, figure1_graph, figure1_store, join_regime):
        edges = [
            Edge("person", "founded", "company"),
            Edge("person", "places_lived", "city"),
            Edge("company", "headquartered_in", "hq"),
            Edge("city", "in_state", "state"),
            Edge("hq", "in_state", "state"),
        ]
        relation = _regime_independent(
            join_regime, lambda: evaluate_query_edges(figure1_store, edges)
        )
        expected = _definition3(figure1_graph, edges, relation.variables)
        assert expected and _decoded(figure1_store, relation) == expected

    @pytest.mark.parametrize(
        "base, extension",
        [
            # binds the subject of the new edge
            (Edge("person", "founded", "company"), Edge("company", "headquartered_in", "city")),
            # binds the object of the new edge
            (Edge("company", "headquartered_in", "city"), Edge("person", "founded", "company")),
        ],
        ids=["subject-side probe", "object-side probe"],
    )
    def test_extension_of_a_child_relation(
        self, figure1_graph, figure1_store, join_regime, base, extension
    ):
        relation = _regime_independent(
            join_regime,
            lambda: extend_with_edge(
                figure1_store, evaluate_query_edges(figure1_store, [base]), extension
            ),
        )
        expected = _definition3(figure1_graph, [base, extension], relation.variables)
        assert expected and _decoded(figure1_store, relation) == expected

    @pytest.mark.parametrize("injective", [True, False])
    def test_self_loops_and_injectivity(self, injective, join_regime):
        graph = KnowledgeGraph(
            [("a", "likes", "a"), ("a", "likes", "b"), ("b", "likes", "a")]
        )
        store = GraphStore.build(graph).store
        for edges in ([Edge("x", "likes", "y")], [Edge("x", "likes", "x")]):
            relation = _regime_independent(
                join_regime,
                lambda: evaluate_query_edges(store, edges, injective=injective),
            )
            expected = _definition3(graph, edges, relation.variables, injective)
            assert _decoded(store, relation) == expected

    def test_unknown_label_in_an_extension(self, figure1_store, join_regime):
        base = [Edge("person", "founded", "company")]
        relation = _regime_independent(
            join_regime,
            lambda: extend_with_edge(
                figure1_store,
                evaluate_query_edges(figure1_store, base),
                Edge("person", "never_seen_label", "thing"),
            ),
        )
        assert relation.is_empty()
        assert set(relation.variables) == {"person", "company", "thing"}

    @pytest.mark.parametrize("max_rows", [1, 2, 4, 1000])
    def test_max_rows(self, figure1_graph, figure1_store, max_rows, join_regime):
        edges = [
            Edge("person", "nationality", "country"),
            Edge("person", "founded", "company"),
        ]
        outcomes = []
        for regime in (join_regime.name, _CONTRAST[join_regime.name]):
            join_regime.use(regime)
            try:
                relation = evaluate_query_edges(figure1_store, edges, max_rows=max_rows)
                outcomes.append((relation.variables, relation.to_rows()))
            except LatticeError:
                outcomes.append("overflow")
        assert outcomes[0] == outcomes[1]
        expected = _definition3(figure1_graph, edges, ("person", "country", "company"))
        if len(expected) > max_rows:
            assert outcomes[0] == "overflow"
        if outcomes[0] != "overflow":
            variables, rows = outcomes[0]
            decode = figure1_store.vocabulary.decode_row
            assert sorted(decode(row) for row in rows) == _definition3(
                figure1_graph, edges, variables
            )

    @pytest.mark.parametrize("seed", [1, 5, 9])
    def test_maximal_query_graphs(self, seed, join_regime):
        """Every node of a discovered MQG is a query variable."""
        dataset = FreebaseLikeGenerator(seed=seed, scale=0.2).generate()
        system = GQBE(dataset.graph, config=GQBEConfig(**_CONFIG))
        for table_name in dataset.table_names()[:3]:
            mqg = system.discover_query_graph(tuple(dataset.table(table_name)[0]))
            edges = sorted(mqg.graph.edges)
            relation = _regime_independent(
                join_regime, lambda: evaluate_query_edges(system.store, edges)
            )
            expected = _definition3(dataset.graph, edges, relation.variables)
            assert expected and _decoded(system.store, relation) == expected


def _answer_key(result):
    return [
        (a.rank, a.entities, a.score, a.structure_score, a.content_score)
        for a in result.answers
    ]


def _work_key(result):
    stats = result.statistics
    return stats.nodes_evaluated, stats.null_nodes, stats.nodes_skipped


class TestAnswersDoNotDependOnTheRegime:
    def _assert_same_in_contrast(self, join_regime, run):
        result = run()
        join_regime.use(_CONTRAST[join_regime.name])
        contrast = run()
        assert result.answers and _answer_key(result) == _answer_key(contrast)
        assert _work_key(result) == _work_key(contrast)

    @pytest.mark.parametrize("seed", [1, 5, 9, 13, 42])
    def test_random_synthetic_graphs(self, seed, join_regime):
        dataset = FreebaseLikeGenerator(seed=seed, scale=0.2).generate()
        system = GQBE(dataset.graph, config=GQBEConfig(**_CONFIG))
        for table_name in dataset.table_names()[:3]:
            query_tuple = tuple(dataset.table(table_name)[0])
            self._assert_same_in_contrast(
                join_regime, lambda: system.query(query_tuple, k=10)
            )
            join_regime.use(join_regime.name)

    def test_multi_tuple_queries(self, join_regime):
        dataset = FreebaseLikeGenerator(seed=3, scale=0.2).generate()
        system = GQBE(dataset.graph, config=GQBEConfig(**_CONFIG))
        table = dataset.table(dataset.table_names()[0])
        tuples = [tuple(table[0]), tuple(table[1])]
        self._assert_same_in_contrast(
            join_regime, lambda: system.query_multi(tuples, k=10)
        )

    def test_tight_join_caps(self, join_regime):
        """A ``max_join_rows`` small enough to skip lattice nodes."""
        dataset = FreebaseLikeGenerator(seed=11, scale=0.2).generate()
        config = GQBEConfig(mqg_size=8, k_prime=20, max_join_rows=40)
        system = GQBE(dataset.graph, config=config)
        query_tuple = tuple(dataset.table(dataset.table_names()[0])[0])
        self._assert_same_in_contrast(
            join_regime, lambda: system.query(query_tuple, k=10)
        )


def _shuffled_ids_bundle(graph, seed) -> GraphStore:
    """The offline state of ``graph`` with the entities numbered in a
    shuffled order: a build of the same edges, in the same order, with
    every node added first."""
    terms = list(graph.nodes)
    random.Random(seed).shuffle(terms)
    shuffled = KnowledgeGraph()
    for term in terms:
        shuffled.add_node(term)
    shuffled.add_edges(graph.edges)
    return GraphStore.build(shuffled)


class TestAnswersDoNotDependOnIdAssignment:
    @pytest.mark.parametrize("seed", [1, 5, 9, 13, 42])
    def test_random_synthetic_graphs(self, seed):
        dataset = FreebaseLikeGenerator(seed=seed, scale=0.2).generate()
        graph = dataset.graph
        config = GQBEConfig(**_CONFIG)
        system = GQBE(graph, config=config)
        shuffled = GQBE(
            config=config,
            graph_store=_shuffled_ids_bundle(graph, seed),
        )
        assert [shuffled.store.vocabulary.id_of(n) for n in graph.nodes] != list(
            range(graph.num_nodes)
        )
        for table_name in dataset.table_names()[:3]:
            query_tuple = tuple(dataset.table(table_name)[0])
            result = system.query(query_tuple, k=10)
            reordered = shuffled.query(query_tuple, k=10)
            assert result.answers and _answer_key(result) == _answer_key(reordered)
            assert _work_key(result) == _work_key(reordered)

    def test_multi_tuple_queries(self):
        dataset = FreebaseLikeGenerator(seed=3, scale=0.2).generate()
        graph = dataset.graph
        config = GQBEConfig(**_CONFIG)
        shuffled = GQBE(
            config=config,
            graph_store=_shuffled_ids_bundle(graph, 3),
        )
        table = dataset.table(dataset.table_names()[0])
        tuples = [tuple(table[0]), tuple(table[1])]
        result = GQBE(graph, config=config).query_multi(tuples, k=10)
        assert result.answers
        assert _answer_key(result) == _answer_key(shuffled.query_multi(tuples, k=10))

    def test_figure1_explorers(self, figure1_system, figure1_graph, figure1_store):
        query_tuple = ("Jerry Yang", "Yahoo!")
        space = LatticeSpace(figure1_system.discover_query_graph(query_tuple))
        shuffled = _shuffled_ids_bundle(figure1_graph, 0).store
        for explorer_cls in (BestFirstExplorer, BreadthFirstExplorer):
            runs = [
                explorer_cls(space, store, k=10, excluded_tuples={query_tuple}).run()
                for store in (figure1_store, shuffled)
            ]
            assert runs[0].answers
            assert runs[0].answer_tuples() == runs[1].answer_tuples()
            for left, right in zip(runs[0].answers, runs[1].answers):
                assert left.score == right.score
                assert left.structure_score == right.structure_score
                assert left.content_score == right.content_score
                assert left.query_graph_mask == right.query_graph_mask
