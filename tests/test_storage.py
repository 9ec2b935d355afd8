"""Unit tests for the vertical-partition store and the hash-join evaluator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import EntityIdOverflowError, GraphError, LatticeError
from repro.graph.knowledge_graph import Edge, KnowledgeGraph
from repro.storage.join import (
    ColumnarRelation,
    evaluate_query_edges,
    extend_with_edge,
)
from repro.storage.plan import plan_join_order
from repro.storage import vocabulary as vocabulary_module
from repro.storage.snapshot import GraphStore
from repro.storage.store import VerticalPartitionStore
from repro.storage.table import ColumnarEdgeTable
from repro.storage.vocabulary import MAX_ENTITY_ID, MappedVocabulary, arena_arrays


def _store(graph: KnowledgeGraph) -> VerticalPartitionStore:
    """The join store of ``graph``'s offline build, in memory."""
    return GraphStore.build(graph).store


class _Counted(list):
    """A term list that claims ``n`` entries: ids near the ceiling without
    two billion terms."""

    def __init__(self, n: int) -> None:
        super().__init__()
        self.n = n

    def __len__(self) -> int:
        return self.n

    def append(self, term) -> None:
        self.n += 1


class TestVocabulary:
    def test_intern_assigns_dense_ids(self):
        vocab = MappedVocabulary(**arena_arrays([]))
        assert vocab.intern("a") == 0
        assert vocab.intern("b") == 1
        assert vocab.intern("a") == 0
        assert len(vocab) == 2

    def test_lookup_and_decode(self):
        vocab = MappedVocabulary(**arena_arrays(["x", "y"]))
        assert vocab.id_of("x") == 0
        assert vocab.id_of("missing") is None
        assert vocab.term_of(1) == "y"
        assert vocab.decode_row((1, 0)) == ("y", "x")
        assert "x" in vocab
        assert list(vocab) == ["x", "y"]

    def test_ceiling_is_the_int32_maximum(self):
        assert MAX_ENTITY_ID == np.iinfo(np.int32).max == 2**31 - 1

    def test_arena_refuses_an_id_past_the_ceiling(self, monkeypatch):
        """A built vocabulary numbers every term; with a ceiling of 2 a
        fourth term's id, 3, is one too many."""
        monkeypatch.setattr(vocabulary_module, "MAX_ENTITY_ID", 2)
        assert len(arena_arrays(["a", "b", "c"])["sorted_ids"]) == 3
        with pytest.raises(EntityIdOverflowError) as info:
            arena_arrays(["a", "b", "c", "d"])
        assert info.value.entity_id == 3

    def test_mapped_overlay_intern_refuses_an_id_past_the_ceiling(self):
        """The overlay ids live ingest assigns continue past the mapped
        terms; they stop at the same ceiling."""
        vocab = MappedVocabulary(
            offsets=np.array([0, 1, 2], dtype=np.int64),
            sorted_ids=np.array([0, 1], dtype=np.int64),
            blob=np.frombuffer(b"ab", dtype=np.uint8),
        )
        assert vocab.intern("b") == 1 and vocab.intern("c") == 2
        vocab._extra_terms = _Counted(MAX_ENTITY_ID - 2)
        assert vocab.intern("last") == MAX_ENTITY_ID
        with pytest.raises(EntityIdOverflowError):
            vocab.intern("one too many")
        assert vocab.id_of("one too many") is None
        assert vocab.id_of("a") == 0 and vocab.intern("last") == MAX_ENTITY_ID


class TestColumnarEdgeTable:
    def test_mutation_invalidates_scalar_buckets(self):
        """Regression: buckets built before numpy columns existed went
        stale because add_row only checked the numpy cache."""
        table = ColumnarEdgeTable("r", [(1, 2)])
        assert table.subject_buckets() == {1: (2,)}
        assert table.object_buckets() == {2: (1,)}
        table.add_row(1, 3)
        assert table.subject_buckets() == {1: (2, 3)}
        assert table.object_buckets() == {2: (1,), 3: (1,)}

    def test_bucket_values_leave_the_cycle_collector(self):
        """A full collection walks every tracked container; the scalar probe
        index holds one per distinct key (~116 k on a 177 k-edge graph)."""
        import gc

        table = ColumnarEdgeTable("r", [(s, o) for s in range(50) for o in range(s % 4 + 1)])
        buckets = [table.subject_buckets(), table.object_buckets()]
        gc.collect()
        for index in buckets:
            assert index and not any(gc.is_tracked(values) for values in index.values())

    def test_mutation_invalidates_vector_indexes(self):
        table = ColumnarEdgeTable("r", [(1, 2), (1, 4), (5, 2)])
        table.build_indexes()
        assert table.contains_pairs(np.array([1]), np.array([4])).all()
        table.add_row(7, 8)
        assert list(table.subject_ids()) == [1, 1, 5, 7]
        assert table.contains_pairs(np.array([7]), np.array([8])).all()
        probe_idx, objects = table.expand_subject(*table.probe_subject(np.array([7, 1])))
        assert probe_idx.tolist() == [0, 1, 1]
        assert objects.tolist() == [8, 2, 4]

    def test_contains_pairs_widens_int32_columns_past_2_31(self):
        """Relation columns are int32 and the pair key is
        ``subject * stride + object``.  Here the stride is 2**16, so probe
        ``(65537, 5)`` has key ``2**32 + 65541``.  In int32 that wraps to
        65541, the key of the stored pair ``(1, 5)``."""
        table = ColumnarEdgeTable("r", [(1, 5), (2, 2**16 - 1)])
        subjects = np.array([65537, 1, 65537], dtype=np.int32)
        objects = np.array([5, 5, 2**16 - 1], dtype=np.int32)
        assert 65537 * 2**16 + 5 > 2**31
        assert table.contains_pairs(subjects, objects).tolist() == [False, True, False]

    def test_duplicates_ignored_and_iteration(self):
        table = ColumnarEdgeTable("r", [(0, 1), (0, 1), (2, 3)])
        assert len(table) == 2
        assert list(table) == [(0, 1), (2, 3)]
        assert table.has_row(0, 1) and not table.has_row(1, 0)
        assert table.subjects() == {0, 2}
        assert table.objects() == {1, 3}


class TestStore:
    def test_one_table_per_label(self, figure1_graph):
        store = _store(figure1_graph)
        assert store.num_tables == figure1_graph.num_labels
        assert store.num_rows == figure1_graph.num_edges

    def test_vocabulary_covers_all_nodes(self, figure1_graph):
        store = _store(figure1_graph)
        assert len(store.vocabulary) == figure1_graph.num_nodes
        for node in figure1_graph.nodes:
            entity_id = store.vocabulary.id_of(node)
            assert entity_id is not None
            assert store.vocabulary.term_of(entity_id) == node

    def test_tables_store_interned_rows(self, figure1_graph):
        store = _store(figure1_graph)
        vocab = store.vocabulary
        founded = store.table("founded")
        assert founded.has_row(vocab.id_of("Jerry Yang"), vocab.id_of("Yahoo!"))
        assert all(
            isinstance(subj, int) and isinstance(obj, int) for subj, obj in founded
        )

    def test_table_lookup(self, figure1_graph):
        store = _store(figure1_graph)
        founded = store.table("founded")
        assert store.cardinality("founded") == len(founded)

    def test_unknown_label(self, figure1_graph):
        store = _store(figure1_graph)
        with pytest.raises(GraphError):
            store.table("does_not_exist")
        assert len(store.table_or_empty("does_not_exist")) == 0
        assert store.cardinality("does_not_exist") == 0
        assert not store.has_label("does_not_exist")

    def test_table_or_empty_returns_stored_empty_table(self):
        """Regression: an *empty* stored table is falsy, and the old
        ``get(label) or ColumnarEdgeTable(label)`` replaced it with a
        throwaway."""
        graph = KnowledgeGraph([("a", "r", "b")])
        store = _store(graph)
        # Store an empty, indexed table (simulates a label whose rows were
        # all removed, e.g. by a future delete path).
        table = ColumnarEdgeTable("r")
        table.build_indexes()
        store._tables["r"] = table
        assert not table
        assert store.table_or_empty("r") is table
        # Unknown labels still yield a fresh empty table, not an error.
        assert store.table_or_empty("missing") is not table
        assert len(store.table_or_empty("missing")) == 0


class TestJoinPlanning:
    def test_plan_keeps_connectivity(self, figure1_store):
        edges = [
            Edge("Jerry Yang", "founded", "Yahoo!"),
            Edge("Yahoo!", "headquartered_in", "Sunnyvale"),
            Edge("Sunnyvale", "in_state", "California"),
        ]
        plan = plan_join_order(edges, figure1_store)
        seen_nodes = {plan.order[0].subject, plan.order[0].object}
        for edge in plan.order[1:]:
            assert edge.subject in seen_nodes or edge.object in seen_nodes
            seen_nodes.update((edge.subject, edge.object))

    def test_plan_starts_with_most_selective_edge(self, figure1_store):
        edges = [
            Edge("Jerry Yang", "education", "Stanford"),
            Edge("Jerry Yang", "founded", "Yahoo!"),
        ]
        plan = plan_join_order(edges, figure1_store)
        # 'founded' has fewer rows than 'education' in the excerpt.
        assert plan.order[0].label == "founded"

    def test_disconnected_edges_rejected(self, figure1_store):
        edges = [
            Edge("Jerry Yang", "founded", "Yahoo!"),
            Edge("Cupertino", "in_state", "California"),
        ]
        with pytest.raises(LatticeError):
            plan_join_order(edges, figure1_store)

    def test_empty_plan_rejected(self, figure1_store):
        with pytest.raises(LatticeError):
            plan_join_order([], figure1_store)


def _decoded(store, rows) -> set[tuple[str, ...]]:
    """Interned join rows as entity-string tuples."""
    return {store.vocabulary.decode_row(row) for row in rows}


class TestJoinEvaluation:
    """Join semantics on the interned Fig. 1 store, rows compared as the
    entity strings they decode to."""

    def test_single_edge_query(self, figure1_store):
        relation = evaluate_query_edges(
            figure1_store, [Edge("q_person", "founded", "q_company")]
        )
        assert relation.num_rows == 5
        assert set(relation.variables) == {"q_person", "q_company"}

    def test_single_edge_query_interned_rows_decode(self, figure1_store):
        relation = evaluate_query_edges(
            figure1_store, [Edge("q_person", "founded", "q_company")]
        )
        assert ("Jerry Yang", "Yahoo!") in _decoded(figure1_store, relation.rows)
        assert all(isinstance(v, int) for row in relation.rows for v in row)

    def test_two_edge_path_query(self, figure1_store):
        edges = [
            Edge("person", "founded", "company"),
            Edge("company", "headquartered_in", "city"),
        ]
        relation = evaluate_query_edges(figure1_store, edges)
        projected = _decoded(
            figure1_store, relation.distinct_projection(["person", "company"])
        )
        assert ("Jerry Yang", "Yahoo!") in projected
        assert ("Bill Gates", "Microsoft") in projected

    def test_cycle_closing_edge_filters(self, figure1_store):
        # person founded company, person lived in city, company HQ in city2,
        # both city and city2 in the same state.
        edges = [
            Edge("person", "founded", "company"),
            Edge("person", "places_lived", "city"),
            Edge("company", "headquartered_in", "hq"),
            Edge("city", "in_state", "state"),
            Edge("hq", "in_state", "state"),
        ]
        relation = evaluate_query_edges(figure1_store, edges)
        people = {person for (person,) in _decoded(figure1_store, relation.project(["person"]))}
        # Bill Gates lived in Medina (Washington) and Microsoft is in
        # Washington, so he qualifies too; the Californians all qualify.
        assert "Jerry Yang" in people
        assert "Steve Wozniak" in people

    def test_no_match_returns_empty_with_schema(self, figure1_store):
        # A label with no matching row, and a label the graph never had.
        for label in ("board_member", "never_seen_label"):
            edges = [
                Edge("person", "founded", "company"),
                Edge("person", label, "company2"),
            ]
            relation = evaluate_query_edges(figure1_store, edges)
            assert relation.is_empty()
            assert set(relation.variables) == {"person", "company", "company2"}

    def test_injectivity_enforced(self):
        graph = KnowledgeGraph([("a", "likes", "a"), ("a", "likes", "b")])
        store = _store(graph)
        relation = evaluate_query_edges(store, [Edge("x", "likes", "y")])
        assert _decoded(store, relation.rows) == {("a", "b")}

    def test_injectivity_can_be_disabled(self):
        graph = KnowledgeGraph([("a", "likes", "a")])
        store = _store(graph)
        relation = evaluate_query_edges(store, [Edge("x", "likes", "y")], injective=False)
        assert ("a", "a") in _decoded(store, relation.rows)

    def test_self_loop_query_edge(self):
        graph = KnowledgeGraph([("a", "likes", "a"), ("a", "likes", "b")])
        store = _store(graph)
        relation = evaluate_query_edges(store, [Edge("x", "likes", "x")])
        assert [store.vocabulary.decode_row(row) for row in relation.rows] == [("a",)]

    def test_max_rows_cap_raises(self, figure1_store):
        with pytest.raises(LatticeError):
            evaluate_query_edges(
                figure1_store,
                [Edge("person", "nationality", "country")],
                max_rows=2,
            )

    def test_max_rows_cap_applies_to_self_loop_first_edge(self):
        """Regression: the self-loop path of the first edge ``continue``d
        past the cap, so a huge self-loop table bypassed it entirely."""
        graph = KnowledgeGraph()
        for i in range(10):
            graph.add_edge(f"n{i}", "self", f"n{i}")
        store = _store(graph)
        with pytest.raises(LatticeError):
            evaluate_query_edges(
                store, [Edge("x", "self", "x")], injective=False, max_rows=3
            )
        # Under the cap the same query still evaluates fine.
        relation = evaluate_query_edges(
            store, [Edge("x", "self", "x")], injective=False, max_rows=100
        )
        assert relation.num_rows == 10

    def test_extend_with_edge_matches_from_scratch(self, figure1_store):
        base = evaluate_query_edges(
            figure1_store, [Edge("person", "founded", "company")]
        )
        extended = extend_with_edge(
            figure1_store, base, Edge("company", "headquartered_in", "city")
        )
        scratch = evaluate_query_edges(
            figure1_store,
            [
                Edge("person", "founded", "company"),
                Edge("company", "headquartered_in", "city"),
            ],
        )
        assert set(
            extended.distinct_projection(["person", "company", "city"])
        ) == set(scratch.distinct_projection(["person", "company", "city"]))

    def test_extend_requires_shared_variable(self, figure1_store):
        base = evaluate_query_edges(
            figure1_store, [Edge("person", "founded", "company")]
        )
        with pytest.raises(LatticeError):
            extend_with_edge(figure1_store, base, Edge("city", "in_state", "state"))

    def test_relation_bindings_and_projection(self, figure1_store):
        relation = evaluate_query_edges(figure1_store, [Edge("p", "founded", "c")])
        bindings = list(relation.bindings())
        assert all(set(b) == {"p", "c"} for b in bindings)
        assert relation.has_variable("p")
        assert not relation.has_variable("zzz")

    def test_empty_edge_list_returns_empty_relation(self, figure1_store):
        relation = evaluate_query_edges(figure1_store, [])
        assert relation.is_empty()
        assert relation.variables == ()


class TestJoinPastTheRowCap:
    """One-sided probes whose counts floor is within ``max_rows`` but whose
    candidates are not: they expand in slices of ``max_rows + 1``."""

    @staticmethod
    def _probe(matches):
        """1 000 probe rows ``(x_i, h_i)``, and label ``r`` from each ``h_i``
        to every entity of ``matches(i)``."""
        triples, rows = [], []
        for i in range(1_000):
            rows.append((f"x{i}", f"h{i}"))
            triples.extend((f"h{i}", "r", target) for target in matches(i))
        store = _store(KnowledgeGraph(triples + [(x, "at", h) for x, h in rows]))
        id_of = store.vocabulary.id_of
        relation = ColumnarRelation(
            ("x", "h"), [np.array([id_of(value) for value in column]) for column in zip(*rows)]
        )
        return store, relation

    @staticmethod
    def _spy_expansions(monkeypatch):
        expanded = []
        for name in ("expand_subject", "expand_object"):
            inner = getattr(ColumnarEdgeTable, name)

            def spy(self, counts, starts, _inner=inner):
                probe_idx, values = _inner(self, counts, starts)
                expanded.append(len(values))
                return probe_idx, values

            monkeypatch.setattr(ColumnarEdgeTable, name, spy)
        return expanded

    def test_overflow_raises_within_two_slices(self, monkeypatch):
        # Three matches a row, none of them already bound: 3 000 candidates
        # that all survive, against a floor of 1 000.
        store, relation = self._probe(lambda i: [f"t{i}_{j}" for j in range(3)])
        expanded = self._spy_expansions(monkeypatch)
        with pytest.raises(LatticeError):
            extend_with_edge(store, relation, Edge("h", "r", "y"), max_rows=1_000)
        assert 0 < sum(expanded) <= 2 * (1_000 + 1)

    def test_overflow_counts_the_floor_of_the_rows_left(self, monkeypatch):
        # Five matches a row, floor 3: even rows match their own x and h
        # (3 survive), odd rows five fresh targets.  The first slice keeps
        # ~2 800 rows, the other ~300 probe rows add at least 900.
        def matches(i):
            own = [f"x{i}", f"h{i}"] if i % 2 == 0 else [f"u{i}", f"v{i}"]
            return [*own, *(f"t{i}_{j}" for j in range(3))]

        store, relation = self._probe(matches)
        expanded = self._spy_expansions(monkeypatch)
        with pytest.raises(LatticeError):
            extend_with_edge(store, relation, Edge("h", "r", "y"), max_rows=3_500)
        assert len(expanded) == 1  # the first slice decides it

    def test_under_the_cap_equals_the_uncapped_join(self, monkeypatch):
        # Every row matches its own x and h (dropped as not injective) and
        # one or two fresh targets: 3 334 candidates, 1 334 survivors.
        def matches(i):
            return [f"x{i}", f"h{i}", f"t{i}", *([f"u{i}"] if i % 3 == 0 else [])]

        store, relation = self._probe(matches)
        edge = Edge("h", "r", "y")
        uncapped = extend_with_edge(store, relation, edge)
        expanded = self._spy_expansions(monkeypatch)
        capped = extend_with_edge(store, relation, edge, max_rows=1_500)
        assert len(expanded) > 1  # it took the sliced path
        assert uncapped.num_rows == 1_334
        assert capped.variables == uncapped.variables == ("x", "h", "y")
        assert np.array_equal(capped.columns, uncapped.columns)
