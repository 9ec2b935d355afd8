"""Answers do not depend on the join engine's free choices.

The engine has three: how a capped one-sided probe slices its expansion
(the ``join_regime`` fixture: about one probe row per slice, slices of 64
candidates, or the shipped single pass up to the cap), which int id the
vocabulary gives an entity, and the order of the rows it reads in a
node's adjacency slice (a label table is always sorted by (subject,
object)).  None may change a join's rows,
the ranked answers or the work done to find them; the slicing may not
change the rows' order either.

Join results are also checked against Definition 3 directly: a nested-loop
enumeration of the injective mappings of the query edges into the triples,
which shares no code with ``storage/join.py``.  Whole queries run once on
the engine and once with every join of the exploration computed from the
triples by :class:`_Definition3Joins`; the answers and the work must be
the same.
"""

from __future__ import annotations

import random
from collections import defaultdict
from unittest import mock

import numpy as np
import pytest
from oracles import extension

from repro.baselines.breadth_first import BreadthFirstExplorer
from repro.core.config import GQBEConfig
from repro.core.gqbe import GQBE
from repro.datasets.synthetic import FreebaseLikeGenerator
from repro.exceptions import LatticeError
from repro.graph.knowledge_graph import Edge, KnowledgeGraph
from repro.lattice import exploration as exploration_module
from repro.lattice.exploration import BestFirstExplorer
from repro.lattice.query_graph import LatticeSpace
from repro.storage.join import ColumnarRelation, evaluate_query_edges, extend_with_edge
from repro.storage.plan import plan_join_order
from repro.storage.shards import BuiltSnapshot, graph_shards
from repro.storage.snapshot import GraphStore

#: The regime each one is compared with: a slicing regime against the
#: shipped single pass, the single pass against row-at-a-time slices.
_CONTRAST = {"adaptive": "vectorized", "scalar": "vectorized", "vectorized": "scalar"}

#: A join cap no test reaches; a capped expansion is sliced by the regime.
_NO_CAP = 1 << 30

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


def _nodes_of(edges):
    """The query nodes of ``edges``, in first-seen order."""
    return tuple(dict.fromkeys(node for e in edges for node in (e.subject, e.object)))


def _decoded(store, relation):
    return sorted(store.vocabulary.decode_row(row) for row in relation.to_rows())


def _regime_independent(join_regime, compute):
    """``compute(max_rows)`` under the test's regime with a cap no join
    reaches, so each probe expansion goes through the regime's slices,
    after checking that the uncapped join and the contrast regime return
    the same variables and rows in the same order."""
    relation = compute(_NO_CAP)
    uncapped = compute(None)
    join_regime.use(_CONTRAST[join_regime.name])
    contrast = compute(_NO_CAP)
    join_regime.use(join_regime.name)
    for other in (uncapped, contrast):
        assert relation.variables == other.variables
        assert relation.to_rows() == other.to_rows()
    return relation


class TestJoinsMatchDefinition3:
    def test_single_edge_and_projection(self, figure1_graph, figure1_store, join_regime):
        edges = [Edge("q_person", "founded", "q_company")]
        relation = _regime_independent(
            join_regime, lambda cap: evaluate_query_edges(figure1_store, edges, max_rows=cap)
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
            join_regime, lambda cap: evaluate_query_edges(figure1_store, edges, max_rows=cap)
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
            lambda cap: extend_with_edge(
                figure1_store,
                evaluate_query_edges(figure1_store, [base]),
                extension,
                max_rows=cap,
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
                lambda cap: evaluate_query_edges(
                    store, edges, injective=injective, max_rows=cap
                ),
            )
            expected = _definition3(graph, edges, relation.variables, injective)
            assert _decoded(store, relation) == expected

    def test_unknown_label_in_an_extension(self, figure1_store, join_regime):
        base = [Edge("person", "founded", "company")]
        relation = _regime_independent(
            join_regime,
            lambda cap: extend_with_edge(
                figure1_store,
                evaluate_query_edges(figure1_store, base),
                Edge("person", "never_seen_label", "thing"),
                max_rows=cap,
            ),
        )
        assert relation.is_empty()
        assert set(relation.variables) == {"person", "company", "thing"}

    @pytest.mark.parametrize("max_rows", [1, 2, 4, 1000])
    def test_max_rows(self, figure1_graph, figure1_store, max_rows, join_regime):
        """Each join step checks the cap: the evaluation raises iff some
        prefix of the plan has more than ``max_rows`` matches, whatever
        the slicing, and otherwise returns the rows of the uncapped join
        in the same order."""
        edges = [
            Edge("person", "nationality", "country"),
            Edge("person", "founded", "company"),
        ]
        plan = list(plan_join_order(edges, figure1_store))
        prefix_sizes = [
            len(_definition3(figure1_graph, plan[:end], _nodes_of(plan[:end])))
            for end in range(1, len(plan) + 1)
        ]
        if max(prefix_sizes) > max_rows:
            with pytest.raises(LatticeError, match=f"max_rows={max_rows}"):
                evaluate_query_edges(figure1_store, edges, max_rows=max_rows)
            return
        relation = evaluate_query_edges(figure1_store, edges, max_rows=max_rows)
        uncapped = evaluate_query_edges(figure1_store, edges)
        assert relation.variables == uncapped.variables
        assert relation.to_rows() == uncapped.to_rows()
        assert _decoded(figure1_store, relation) == _definition3(
            figure1_graph, edges, relation.variables
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
                join_regime,
                lambda cap: evaluate_query_edges(system.store, edges, max_rows=cap),
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


class _Definition3Joins:
    """The exploration's two join entry points, computed from the graph's
    triples instead of the label tables.

    Each step is :func:`oracles.extension` over the ids of the edge
    label's triples.  An evaluation from scratch joins the edges in the
    engine's planned order and overflows where any step has more than
    ``max_rows`` rows.  Rows may come in another order than the engine's;
    nothing the exploration computes reads it.
    """

    def __init__(self, graph, vocabulary):
        self._by_label = defaultdict(list)
        for edge in sorted(graph.edges):
            self._by_label[edge.label].append(
                (vocabulary.id_of(edge.subject), vocabulary.id_of(edge.object))
            )

    def extend(self, store, relation, edge, injective=True, max_rows=None, node_ids=None):
        variables = relation.variables
        rows = extension(
            self._by_label[edge.label],
            variables,
            relation.to_rows() if variables else [()],
            edge,
            injective,
        )
        if max_rows is not None and len(rows) > max_rows:
            raise LatticeError(f"intermediate relation exceeded max_rows={max_rows}")
        variables += tuple(node for node in _nodes_of([edge]) if node not in variables)
        columns = np.array(rows, dtype=np.int32).reshape(len(rows), len(variables)).T
        return ColumnarRelation(variables, columns)

    def evaluate(self, store, edges, injective=True, max_rows=None, node_ids=None):
        plan = list(plan_join_order(edges, store))
        relation = ColumnarRelation((), [])
        for edge in plan:
            relation = self.extend(store, relation, edge, injective, max_rows)
            if relation.is_empty():
                variables = relation.variables + tuple(
                    node for node in _nodes_of(plan) if node not in relation.variables
                )
                return ColumnarRelation(variables, np.empty((len(variables), 0), np.int32))
        return relation


class TestAnswersDoNotDependOnTheRegime:
    """Under every slicing regime, a query gives the same answers, and
    evaluates, nulls and skips the same lattice nodes, as when every join
    is computed from the triples."""

    def _assert_same_as_the_oracle(self, system, graph, run):
        result = run()
        oracle = _Definition3Joins(graph, system.store.vocabulary)
        with mock.patch.multiple(
            exploration_module,
            extend_with_edge=oracle.extend,
            evaluate_query_edges=oracle.evaluate,
        ):
            expected = run()
        assert result.answers and _answer_key(result) == _answer_key(expected)
        assert _work_key(result) == _work_key(expected)

    @pytest.mark.parametrize("seed", [1, 5, 9, 13, 42])
    def test_random_synthetic_graphs(self, seed, join_regime):
        dataset = FreebaseLikeGenerator(seed=seed, scale=0.2).generate()
        system = GQBE(dataset.graph, config=GQBEConfig(**_CONFIG))
        for table_name in dataset.table_names()[:3]:
            query_tuple = tuple(dataset.table(table_name)[0])
            self._assert_same_as_the_oracle(
                system, dataset.graph, lambda: system.query(query_tuple, k=10)
            )

    def test_multi_tuple_queries(self, join_regime):
        dataset = FreebaseLikeGenerator(seed=3, scale=0.2).generate()
        system = GQBE(dataset.graph, config=GQBEConfig(**_CONFIG))
        table = dataset.table(dataset.table_names()[0])
        tuples = [tuple(table[0]), tuple(table[1])]
        self._assert_same_as_the_oracle(
            system, dataset.graph, lambda: system.query_multi(tuples, k=10)
        )

    def test_tight_join_caps(self, join_regime):
        """A ``max_join_rows`` small enough to skip lattice nodes."""
        dataset = FreebaseLikeGenerator(seed=11, scale=0.2).generate()
        config = GQBEConfig(mqg_size=12, k_prime=20, max_join_rows=40)
        system = GQBE(dataset.graph, config=config)
        skipped = 0
        for table_name in dataset.table_names()[:3]:
            query_tuple = tuple(dataset.table(table_name)[0])
            self._assert_same_as_the_oracle(
                system, dataset.graph, lambda: system.query(query_tuple, k=10)
            )
            skipped += system.query(query_tuple, k=10).statistics.nodes_skipped
        assert skipped


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


def _permuted_rows_bundle(graph, seed) -> GraphStore:
    """The offline state of ``graph`` with each node's out- and
    in-adjacency slice of the CSR shuffled and every id kept.  The built
    arrays are permuted, not the build's input, so this stays unsorted
    data whatever order a build writes: the order a live delta presents.
    Label tables keep their rows: a table is sorted by (subject, object)
    however it came, so an unsorted one is not a state the engine meets."""
    rng = np.random.default_rng(seed)
    built = graph_shards(graph)
    files = dict(built._files)
    header, arrays = files["graph.csr"]
    arrays = dict(arrays)
    for side, others, labels in (
        ("out", "out_objects", "out_labels"),
        ("in", "in_subjects", "in_labels"),
    ):
        # Positions regrouped by node, in a random order within each node.
        owner = np.repeat(np.arange(header["nodes"]), np.diff(arrays[f"{side}_indptr"]))
        order = np.lexsort((rng.random(len(owner)), owner))
        arrays[others] = arrays[others][order]
        arrays[labels] = arrays[labels][order]
    files["graph.csr"] = (header, arrays)
    return GraphStore(BuiltSnapshot(built.manifest, files))


def _rows_read(bundle: GraphStore):
    """The adjacency rows a bundle hands the engine, in the order it hands them."""
    graph = bundle.graph
    return graph.out_objects.tolist(), graph.in_subjects.tolist()


class TestAnswersDoNotDependOnRowOrder:
    @pytest.mark.parametrize("seed", [2, 4, 6])
    def test_random_synthetic_graphs(self, seed):
        dataset = FreebaseLikeGenerator(seed=seed, scale=0.2).generate()
        config = GQBEConfig(**_CONFIG)
        built = GraphStore.build(dataset.graph)
        permuted = _permuted_rows_bundle(dataset.graph, seed)
        assert all(
            left != right
            for left, right in zip(_rows_read(built), _rows_read(permuted))
        )
        system = GQBE(config=config, graph_store=built)
        shuffled = GQBE(config=config, graph_store=permuted)
        for table_name in dataset.table_names()[:3]:
            query_tuple = tuple(dataset.table(table_name)[0])
            result = system.query(query_tuple, k=10)
            reordered = shuffled.query(query_tuple, k=10)
            assert result.answers and _answer_key(result) == _answer_key(reordered)
            assert _work_key(result) == _work_key(reordered)

    def test_multi_tuple_queries(self):
        dataset = FreebaseLikeGenerator(seed=3, scale=0.2).generate()
        config = GQBEConfig(**_CONFIG)
        table = dataset.table(dataset.table_names()[0])
        tuples = [tuple(table[0]), tuple(table[1])]
        result = GQBE(dataset.graph, config=config).query_multi(tuples, k=10)
        reordered = GQBE(
            config=config, graph_store=_permuted_rows_bundle(dataset.graph, 3)
        ).query_multi(tuples, k=10)
        assert result.answers and _answer_key(result) == _answer_key(reordered)
        assert _work_key(result) == _work_key(reordered)
