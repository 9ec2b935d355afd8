"""Unit tests for the lattice space, minimal query trees, scoring and the
best-first explorer's frontier and threshold bookkeeping, including the
upper-frontier antichain invariant of Algorithm 3."""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro.core.gqbe as gqbe_module

from repro.core.config import GQBEConfig
from repro.core.gqbe import GQBE
from repro.datasets.synthetic import FreebaseLikeGenerator
from repro.discovery.mqg import MaximalQueryGraph
from repro.exceptions import LatticeError
from repro.graph.knowledge_graph import Edge, KnowledgeGraph
from repro.lattice.exploration import BestFirstExplorer
from repro.lattice.minimal_trees import minimal_query_trees
from repro.lattice.query_graph import LatticeSpace
from repro.lattice.scoring import (
    answer_graph_score,
    content_score,
    match_credit,
    structure_score,
)
from repro.storage.snapshot import GraphStore


def _make_mqg() -> MaximalQueryGraph:
    """A small hand-built MQG with query entities q1, q2.

    Edges (weights in parentheses):
      q1 --founded(3.0)--> q2
      q1 --lived(1.0)--> city
      q2 --hq(2.0)--> city
      q1 --edu(0.5)--> uni
      q2 --industry(0.25)--> tech
    """
    graph = KnowledgeGraph()
    edges = {
        Edge("q1", "founded", "q2"): 3.0,
        Edge("q1", "lived", "city"): 1.0,
        Edge("q2", "hq", "city"): 2.0,
        Edge("q1", "edu", "uni"): 0.5,
        Edge("q2", "industry", "tech"): 0.25,
    }
    for edge in edges:
        graph.add_edge(*edge)
    core = frozenset(
        {
            Edge("q1", "founded", "q2"),
            Edge("q1", "lived", "city"),
            Edge("q2", "hq", "city"),
        }
    )
    return MaximalQueryGraph(
        graph=graph,
        query_tuple=("q1", "q2"),
        edge_weights=edges,
        core_edges=core,
    )


@pytest.fixture()
def space() -> LatticeSpace:
    return LatticeSpace(_make_mqg())


class TestLatticeSpace:
    def test_full_mask_covers_all_edges(self, space):
        assert space.num_edges == 5
        assert bin(space.full_mask).count("1") == 5

    def test_mask_roundtrip(self, space):
        edges = [Edge("q1", "founded", "q2"), Edge("q2", "hq", "city")]
        mask = space.mask_of(edges)
        assert set(space.edges_of(mask)) == set(edges)

    def test_mask_of_foreign_edge_raises(self, space):
        with pytest.raises(LatticeError):
            space.mask_of([Edge("a", "nope", "b")])

    def test_structure_score_is_total_weight(self, space):
        mask = space.mask_of([Edge("q1", "founded", "q2"), Edge("q2", "hq", "city")])
        assert space.weight_of_mask(mask) == pytest.approx(5.0)
        assert structure_score(space, space.full_mask) == pytest.approx(6.75)

    def test_validity_requires_query_entities_and_connectivity(self, space):
        founded = space.mask_of([Edge("q1", "founded", "q2")])
        assert space.is_valid_query_graph(founded)
        only_city = space.mask_of([Edge("q2", "hq", "city")])
        assert not space.is_valid_query_graph(only_city)  # misses q1
        disconnected = space.mask_of(
            [Edge("q1", "edu", "uni"), Edge("q2", "industry", "tech")]
        )
        assert not space.is_valid_query_graph(disconnected)
        assert not space.is_valid_query_graph(0)

    def test_parents_add_one_touching_edge(self, space):
        founded = space.mask_of([Edge("q1", "founded", "q2")])
        parents = space.parents_of(founded)
        assert all(bin(p).count("1") == 2 for p in parents)
        assert len(parents) == 4  # every other edge touches q1 or q2

    def test_children_remove_one_edge_keeping_validity(self, space):
        mask = space.mask_of(
            [
                Edge("q1", "founded", "q2"),
                Edge("q1", "lived", "city"),
                Edge("q2", "hq", "city"),
            ]
        )
        children = space.children_of(mask)
        # Removing 'founded' keeps q1-city-q2 connected; removing 'lived' or
        # 'hq' also keeps the founded edge connecting both entities.
        assert len(children) == 3

    def test_connected_component_mask(self, space):
        mask = space.mask_of(
            [Edge("q1", "founded", "q2"), Edge("q2", "industry", "tech")]
        )
        assert space.connected_component_mask(mask) == mask
        disconnected = space.mask_of(
            [Edge("q1", "edu", "uni"), Edge("q2", "industry", "tech")]
        )
        assert space.connected_component_mask(disconnected) == 0

    def test_query_graph_handle(self, space):
        qg = space.query_graph(space.full_mask)
        assert qg.num_edges == 5
        assert qg.is_valid()
        assert qg.nodes == {"q1", "q2", "city", "uni", "tech"}
        smaller = space.query_graph(space.mask_of([Edge("q1", "founded", "q2")]))
        assert qg.subsumes(smaller)
        assert not smaller.subsumes(qg)

    def test_empty_mqg_rejected(self):
        graph = KnowledgeGraph()
        graph.add_node("q1")
        mqg = MaximalQueryGraph(
            graph=graph, query_tuple=("q1",), edge_weights={}, core_edges=frozenset()
        )
        with pytest.raises(LatticeError):
            LatticeSpace(mqg)


class TestMinimalQueryTrees:
    def test_leaves_are_valid_and_minimal(self, space):
        leaves = minimal_query_trees(space)
        assert leaves
        for leaf in leaves:
            assert space.is_valid_query_graph(leaf)
            # Minimality: no child of a leaf is a valid query graph.
            assert space.children_of(leaf) == []

    def test_expected_leaves_for_two_entity_mqg(self, space):
        leaves = minimal_query_trees(space)
        founded = space.mask_of([Edge("q1", "founded", "q2")])
        via_city = space.mask_of(
            [Edge("q1", "lived", "city"), Edge("q2", "hq", "city")]
        )
        assert founded in leaves
        assert via_city in leaves
        assert len(leaves) == 2

    def test_single_entity_leaves_are_incident_edges(self):
        graph = KnowledgeGraph()
        edges = {
            Edge("q", "a", "x"): 1.0,
            Edge("q", "b", "y"): 1.0,
            Edge("y", "c", "z"): 1.0,
        }
        for edge in edges:
            graph.add_edge(*edge)
        mqg = MaximalQueryGraph(
            graph=graph,
            query_tuple=("q",),
            edge_weights=edges,
            core_edges=frozenset(),
        )
        space = LatticeSpace(mqg)
        leaves = minimal_query_trees(space)
        assert len(leaves) == 2
        for leaf in leaves:
            (edge,) = space.edges_of(leaf)
            assert edge.touches("q")


class TestScoring:
    def test_match_credit_cases(self, space):
        edge = Edge("q1", "founded", "q2")
        weight = 3.0
        # |E(q1)| = 3 and |E(q2)| = 3 in the MQG.
        assert match_credit(space, edge, True, False) == pytest.approx(weight / 3)
        assert match_credit(space, edge, False, True) == pytest.approx(weight / 3)
        assert match_credit(space, edge, True, True) == pytest.approx(weight / 3)
        assert match_credit(space, edge, False, False) == 0.0

    def test_content_score_counts_identical_nodes_only(self, space):
        edges = space.edges_of(space.full_mask)
        no_match = {"q1": "ann", "q2": "acme", "city": "paris", "uni": "mit", "tech": "ai"}
        assert content_score(space, edges, no_match) == 0.0
        city_match = dict(no_match, city="city")
        expected = 1.0 / min(3, 2) + 2.0 / min(3, 2)  # lived + hq edges, |E(city)|=2
        assert content_score(space, edges, city_match) == pytest.approx(expected)

    def test_answer_graph_score_adds_structure_and_content(self, space):
        mask = space.mask_of([Edge("q1", "founded", "q2"), Edge("q2", "hq", "city")])
        binding = {"q1": "ann", "q2": "acme", "city": "city"}
        score = answer_graph_score(space, mask, binding)
        assert score == pytest.approx(5.0 + 2.0 / 2)

    def test_structure_score_monotone_in_subsumption(self, space):
        small = space.mask_of([Edge("q1", "founded", "q2")])
        large = space.mask_of(
            [Edge("q1", "founded", "q2"), Edge("q1", "edu", "uni")]
        )
        # Property 2 of the paper.
        assert structure_score(space, small) < structure_score(space, large)


class _CrossCheckingExplorer(BestFirstExplorer):
    """Asserts the LF heap and the k'-threshold match naive scans.

    The LF pop must be the naive maximum over the lower frontier, and the
    stage-one threshold the k'-th largest of every answer's structure
    score, each time the explorer reads it.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.bound_thresholds = 0

    def _pop_best_mask(self):
        expected = None
        if self._lower_frontier:
            expected = max(
                self._lower_frontier,
                key=lambda m: (self._lower_frontier[m], -m.bit_count(), m),
            )
        popped = super()._pop_best_mask()
        assert popped == expected
        return popped

    def _stage_one_threshold(self):
        value = super()._stage_one_threshold()
        scores = sorted(self._answers.structure_scores().tolist(), reverse=True)
        if len(scores) < self.k_prime:
            assert value is None
        else:
            assert value == scores[self.k_prime - 1]
            self.bound_thresholds += 1
        return value


class TestFrontierAndThresholdBookkeeping:
    """With a k' small enough to bind."""

    def _check(self, space, store, query_tuple, k):
        checked = _CrossCheckingExplorer(
            space, store, k=k, k_prime=k, excluded_tuples={query_tuple}
        )
        result = checked.run()
        plain = BestFirstExplorer(
            space, store, k=k, k_prime=k, excluded_tuples={query_tuple}
        ).run()
        assert checked.bound_thresholds > 0
        assert result.answer_tuples() == plain.answer_tuples()
        assert result.statistics.nodes_evaluated == plain.statistics.nodes_evaluated
        return result

    def test_figure1(self, figure1_system, figure1_store):
        query_tuple = ("Jerry Yang", "Yahoo!")
        space = LatticeSpace(figure1_system.discover_query_graph(query_tuple))
        self._check(space, figure1_store, query_tuple, k=3)

    def test_synthetic_run_stopped_by_the_threshold(self):
        dataset = FreebaseLikeGenerator(seed=7, scale=0.2).generate()
        system = GQBE(dataset.graph, config=GQBEConfig(mqg_size=15, max_join_rows=100_000))
        query_tuple = tuple(dataset.table("club_owners")[0])
        space = LatticeSpace(system.discover_query_graph(query_tuple))
        result = self._check(space, system.store, query_tuple, k=3)
        assert result.statistics.terminated_early


class _AntichainCheckingExplorer(BestFirstExplorer):
    """Asserts the UF is an antichain after every Algorithm 3 recompute."""

    recomputations = 0

    def _recompute_upper_frontier(self, null_mask):
        super()._recompute_upper_frontier(null_mask)
        type(self).recomputations += 1
        frontier = list(self._upper_frontier)
        for i, a in enumerate(frontier):
            for b in frontier[i + 1:]:
                assert (a | b) != a and (a | b) != b, (
                    f"UF not an antichain: {a:b} and {b:b} are nested"
                )


class TestUpperFrontierAntichain:
    def test_recompute_evicts_subsumed_members(self):
        """Regression: a candidate that subsumes a retained UF member must
        evict it, otherwise the non-maximal member survives forever."""
        graph = KnowledgeGraph(
            [("a", "r1", "b"), ("b", "r2", "c"), ("c", "r3", "d")]
        )
        weights = {edge: 1.0 for edge in graph.edges}
        mqg = MaximalQueryGraph(
            graph=graph,
            query_tuple=("a",),
            edge_weights=weights,
            core_edges=frozenset(),
        )
        space = LatticeSpace(mqg)
        explorer = BestFirstExplorer(space, GraphStore.build(graph).store, k=1)
        mask_ab = space.mask_of([Edge("a", "r1", "b")])
        mask_cd = space.mask_of([Edge("c", "r3", "d")])
        candidate = space.mask_of([Edge("a", "r1", "b"), Edge("b", "r2", "c")])
        # Seed a (hypothetically corrupted) non-antichain-prone state: the
        # full mask will be pruned and replaced by `candidate`, which
        # strictly subsumes the retained member `mask_ab`.
        explorer._upper_frontier = {space.full_mask, mask_ab}
        explorer._null_masks.append(mask_cd)
        explorer._recompute_upper_frontier(mask_cd)
        assert explorer._upper_frontier == {candidate}

    def test_antichain_invariant_holds_during_runs(self, tiny_dataset):
        _AntichainCheckingExplorer.recomputations = 0
        system = GQBE(
            tiny_dataset.graph,
            config=GQBEConfig(mqg_size=8, k_prime=20, max_join_rows=100_000),
        )
        for table_name in tiny_dataset.table_names()[:4]:
            query_tuple = tuple(tiny_dataset.table(table_name)[0])
            mqg = system.discover_query_graph(query_tuple)
            space = LatticeSpace(mqg)
            _AntichainCheckingExplorer(
                space, system.store, k=10, excluded_tuples={query_tuple}
            ).run()
        # The invariant check is only meaningful if pruning happened.
        assert _AntichainCheckingExplorer.recomputations > 0


class TestRetainedRelations:
    """The match relations a node keeps for its parents are int32."""

    def test_club_owners_r15_keeps_int32_relations_and_golden_answers(self, monkeypatch):
        from test_answer_accumulator import (
            GENERATED_CONFIG,
            GOLDEN,
            _check_against_golden,
            _ranked_rows,
        )

        explorers = []

        class Capturing(BestFirstExplorer):
            def run(self):
                explorers.append(self)
                return super().run()

        monkeypatch.setattr(gqbe_module, "BestFirstExplorer", Capturing)
        dataset = FreebaseLikeGenerator(seed=3, scale=0.2).generate()
        query_tuple = tuple(dataset.table("club_owners")[0])
        key = "|".join(query_tuple)
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["freebase_like"]
        # The fixture's own configuration (r=8) and the Fig. 14 one (r=15).
        for mqg_size in (GENERATED_CONFIG.mqg_size, 15):
            config = GQBEConfig(
                mqg_size=mqg_size,
                k_prime=GENERATED_CONFIG.k_prime,
                max_join_rows=GENERATED_CONFIG.max_join_rows,
            )
            system = GQBE(dataset.graph, config=config)
            rows = _ranked_rows(system, [key])
            if mqg_size == GENERATED_CONFIG.mqg_size:
                _check_against_golden(rows, {key: golden[key]})
            assert rows[key]
            evaluated = explorers[-1]._evaluated
            assert len(evaluated) > 1
            for relation in evaluated.values():
                matrix = relation.columns
                assert matrix.dtype == np.int32
                assert matrix.nbytes == 4 * len(relation.variables) * relation.num_rows
