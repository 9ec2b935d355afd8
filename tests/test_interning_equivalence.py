"""Equivalence of the interned int engine and the string reference engine.

The interning layer (``storage/vocabulary.py``) must be a pure performance
change: a store built with the identity vocabulary runs the exact same join
and exploration code on raw entity strings (the pre-interning engine), so
every query must return byte-identical ranked answers on both paths.

This module also pins the upper-frontier antichain invariant of
:class:`BestFirstExplorer` (Algorithm 3).
"""

from __future__ import annotations

import pytest

from repro.baselines.breadth_first import BreadthFirstExplorer
from repro.core.config import GQBEConfig
from repro.core.gqbe import GQBE
from repro.datasets.synthetic import FreebaseLikeGenerator
from repro.discovery.mqg import MaximalQueryGraph
from repro.graph.knowledge_graph import Edge, KnowledgeGraph
from repro.lattice.exploration import BestFirstExplorer
from repro.lattice.query_graph import LatticeSpace
from repro.storage.store import VerticalPartitionStore
from repro.storage.vocabulary import IdentityVocabulary


def _engine_pair(graph) -> tuple[GQBE, GQBE]:
    config = GQBEConfig(mqg_size=8, k_prime=25, max_join_rows=100_000)
    reference_config = GQBEConfig(
        mqg_size=8, k_prime=25, max_join_rows=100_000, intern_entities=False
    )
    return GQBE(graph, config=config), GQBE(graph, config=reference_config)


def _assert_same_answers(interned_result, reference_result):
    assert [a.entities for a in interned_result.answers] == [
        a.entities for a in reference_result.answers
    ]
    for left, right in zip(interned_result.answers, reference_result.answers):
        assert left.rank == right.rank
        assert left.score == pytest.approx(right.score, abs=1e-9)
        assert left.structure_score == pytest.approx(right.structure_score, abs=1e-9)
        assert left.content_score == pytest.approx(right.content_score, abs=1e-9)


class TestInternedEngineMatchesStringReference:
    @pytest.mark.parametrize("seed", [1, 5, 9, 13, 42])
    def test_random_synthetic_graphs(self, seed):
        """Property: on random synthetic graphs, both engines agree exactly."""
        dataset = FreebaseLikeGenerator(seed=seed, scale=0.2).generate()
        interned, reference = _engine_pair(dataset.graph)
        assert isinstance(reference.store.vocabulary, IdentityVocabulary)
        for table_name in dataset.table_names()[:3]:
            query_tuple = tuple(dataset.table(table_name)[0])
            interned_result = interned.query(query_tuple, k=10)
            reference_result = reference.query(query_tuple, k=10)
            _assert_same_answers(interned_result, reference_result)
            # The engines must also do identical work, not just agree on
            # the output: interning may not change the exploration order.
            assert (
                interned_result.statistics.nodes_evaluated
                == reference_result.statistics.nodes_evaluated
            )
            assert (
                interned_result.statistics.null_nodes
                == reference_result.statistics.null_nodes
            )

    def test_multi_tuple_queries_agree(self):
        dataset = FreebaseLikeGenerator(seed=3, scale=0.2).generate()
        interned, reference = _engine_pair(dataset.graph)
        table = dataset.table(dataset.table_names()[0])
        tuples = [tuple(table[0]), tuple(table[1])]
        _assert_same_answers(
            interned.query_multi(tuples, k=10), reference.query_multi(tuples, k=10)
        )

    def test_figure1_explorers_agree(self, figure1_system, figure1_graph):
        mqg = figure1_system.discover_query_graph(("Jerry Yang", "Yahoo!"))
        space = LatticeSpace(mqg)
        excluded = {("Jerry Yang", "Yahoo!")}
        interned_store = VerticalPartitionStore(figure1_graph)
        string_store = VerticalPartitionStore(
            figure1_graph, vocabulary=IdentityVocabulary()
        )
        for explorer_cls in (BestFirstExplorer, BreadthFirstExplorer):
            interned_run = explorer_cls(
                space, interned_store, k=10, excluded_tuples=excluded
            ).run()
            string_run = explorer_cls(
                space, string_store, k=10, excluded_tuples=excluded
            ).run()
            assert interned_run.answer_tuples() == string_run.answer_tuples()
            for left, right in zip(interned_run.answers, string_run.answers):
                assert left.score == right.score
                assert left.structure_score == right.structure_score
                assert left.content_score == right.content_score
                assert left.query_graph_mask == right.query_graph_mask


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
        explorer = BestFirstExplorer(space, VerticalPartitionStore(graph), k=1)
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
