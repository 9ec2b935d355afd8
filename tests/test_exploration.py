"""Tests for the best-first lattice exploration and the breadth-first baseline."""

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.lattice.exploration as exploration_module
from graph_backings import random_multigraph
from repro.baselines.breadth_first import BreadthFirstExplorer
from repro.core.config import GQBEConfig
from repro.core.gqbe import GQBE
from repro.exceptions import DiscoveryError, LatticeError
from repro.graph.knowledge_graph import KnowledgeGraph
from repro.lattice.exploration import BestFirstExplorer
from repro.lattice.query_graph import LatticeSpace


@pytest.fixture(scope="module")
def jerry_space(figure1_system):
    mqg = figure1_system.discover_query_graph(("Jerry Yang", "Yahoo!"))
    return LatticeSpace(mqg)


class TestBestFirstExplorer:
    def test_finds_expected_founders(self, jerry_space, figure1_store, figure1_truth):
        explorer = BestFirstExplorer(
            jerry_space,
            figure1_store,
            k=5,
            excluded_tuples={("Jerry Yang", "Yahoo!")},
        )
        result = explorer.run()
        answers = result.answer_tuples()
        for expected in figure1_truth:
            assert expected in answers

    def test_query_tuple_itself_is_excluded(self, jerry_space, figure1_store):
        explorer = BestFirstExplorer(
            jerry_space,
            figure1_store,
            k=10,
            excluded_tuples={("Jerry Yang", "Yahoo!")},
        )
        result = explorer.run()
        assert ("Jerry Yang", "Yahoo!") not in result.answer_tuples()

    def test_scores_are_monotone_in_rank(self, jerry_space, figure1_store):
        result = BestFirstExplorer(jerry_space, figure1_store, k=10).run()
        scores = [answer.score for answer in result.answers]
        assert scores == sorted(scores, reverse=True)

    def test_answer_scores_bounded_by_full_mqg(self, jerry_space, figure1_store):
        result = BestFirstExplorer(jerry_space, figure1_store, k=10).run()
        max_possible = jerry_space.weight_of_mask(jerry_space.full_mask)
        for answer in result.answers:
            assert answer.structure_score <= max_possible + 1e-9
            assert answer.score >= answer.structure_score

    def test_statistics_populated(self, jerry_space, figure1_store):
        result = BestFirstExplorer(jerry_space, figure1_store, k=5).run()
        stats = result.statistics
        assert stats.nodes_evaluated > 0
        assert stats.answers_found >= len(result.answers)
        assert stats.elapsed_seconds >= 0.0

    def test_k_limits_result_size(self, jerry_space, figure1_store):
        result = BestFirstExplorer(jerry_space, figure1_store, k=2).run()
        assert len(result.answers) <= 2

    def test_invalid_k_rejected(self, jerry_space, figure1_store):
        with pytest.raises(LatticeError):
            BestFirstExplorer(jerry_space, figure1_store, k=0)

    def test_node_budget_respected(self, jerry_space, figure1_store):
        result = BestFirstExplorer(
            jerry_space, figure1_store, k=5, node_budget=3
        ).run()
        assert result.statistics.nodes_evaluated <= 3
        assert result.statistics.node_budget_exhausted

    def test_content_score_rewards_identical_nodes(self, jerry_space, figure1_store):
        result = BestFirstExplorer(
            jerry_space, figure1_store, k=10, excluded_tuples={("Jerry Yang", "Yahoo!")}
        ).run()
        by_tuple = {answer.entities: answer for answer in result.answers}
        # David Filo shares Stanford, Palo Alto-like context and the company
        # Yahoo! itself with the query tuple, so his content score must be
        # strictly positive and his full score the highest.
        filo = by_tuple.get(("David Filo", "Yahoo!"))
        assert filo is not None
        assert filo.content_score > 0
        assert result.answers[0].entities == ("David Filo", "Yahoo!")


class TestAgainstBreadthFirstBaseline:
    def test_same_answer_set_as_baseline(self, jerry_space, figure1_store):
        """Best-first pruning must not lose answers the baseline finds."""
        best_first = BestFirstExplorer(
            jerry_space, figure1_store, k=10, excluded_tuples={("Jerry Yang", "Yahoo!")}
        ).run()
        baseline = BreadthFirstExplorer(
            jerry_space, figure1_store, k=10, excluded_tuples={("Jerry Yang", "Yahoo!")}
        ).run()
        assert set(best_first.answer_tuples()) == set(baseline.answer_tuples())

    def test_structure_scores_agree_with_baseline(self, jerry_space, figure1_store):
        best_first = BestFirstExplorer(jerry_space, figure1_store, k=10).run()
        baseline = BreadthFirstExplorer(jerry_space, figure1_store, k=10).run()
        best_by_tuple = {a.entities: a.structure_score for a in best_first.answers}
        base_by_tuple = {a.entities: a.structure_score for a in baseline.answers}
        for entities in set(best_by_tuple) & set(base_by_tuple):
            assert best_by_tuple[entities] == pytest.approx(base_by_tuple[entities])

    def test_best_first_never_evaluates_more_nodes(self, jerry_space, figure1_store):
        best_first = BestFirstExplorer(jerry_space, figure1_store, k=5).run()
        baseline = BreadthFirstExplorer(jerry_space, figure1_store, k=5).run()
        assert (
            best_first.statistics.nodes_evaluated
            <= baseline.statistics.nodes_evaluated
        )

    def test_baseline_statistics(self, jerry_space, figure1_store):
        baseline = BreadthFirstExplorer(jerry_space, figure1_store, k=5).run()
        assert baseline.statistics.nodes_evaluated > 0
        assert baseline.statistics.answers_found > 0

    def test_baseline_invalid_k_rejected(self, jerry_space, figure1_store):
        with pytest.raises(LatticeError):
            BreadthFirstExplorer(jerry_space, figure1_store, k=0)

    def test_baseline_node_budget(self, jerry_space, figure1_store):
        result = BreadthFirstExplorer(
            jerry_space, figure1_store, k=5, node_budget=2
        ).run()
        assert result.statistics.nodes_evaluated <= 2
        assert result.statistics.node_budget_exhausted


# ----------------------------------------------------------------------
# relation release: a node's matches go once no parent can read them
# ----------------------------------------------------------------------
class _Recording:
    """Logs every ``_evaluate_mask`` call and the child mask whose held
    relation its extension probes (``None`` for a from-scratch join)."""

    def run(self):
        self.log = []
        return super().run()

    def _evaluate_mask(self, mask):
        self.log.append([mask, None])
        _EXTENDING.append(self)
        try:
            return super()._evaluate_mask(mask)
        finally:
            _EXTENDING.pop()


class _NeverReleasing:
    """Holds every kept relation to the end of the run."""

    def _release(self, mask):
        pass


_EXTENDING: list = []
_extend_with_edge = exploration_module.extend_with_edge


def _recording_extend(store, relation, edge, **options):
    explorer = _EXTENDING[-1]
    (child,) = [
        mask for mask, held in explorer._evaluated.items() if held is relation
    ]
    explorer.log[-1][1] = child
    return _extend_with_edge(store, relation, edge, **options)


_EXPLORERS = {
    name: (
        type(f"Releasing{name}", (_Recording, explorer), {}),
        type(f"Holding{name}", (_NeverReleasing, _Recording, explorer), {}),
    )
    for name, explorer in (
        ("BestFirst", BestFirstExplorer),
        ("BreadthFirst", BreadthFirstExplorer),
    )
}


class TestRelationRelease:
    """Releasing a relation once its last parent has left the frontier
    changes no join: every parent is extended from the same child as
    when every relation is held to the end."""

    @given(
        seed=st.integers(0, 10_000),
        hub_leaves=st.sampled_from([0, 6, 20]),
        mqg_size=st.sampled_from([6, 10, 15]),
        arity=st.integers(1, 2),
        max_rows=st.sampled_from([1, 10, None]),
        explorer=st.sampled_from(sorted(_EXPLORERS)),
    )
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_same_joins_and_answers_as_holding_every_relation(
        self, seed, hub_leaves, mqg_size, arity, max_rows, explorer
    ):
        base, delta, nodes = random_multigraph(seed, hub_leaves=hub_leaves)
        system = GQBE(KnowledgeGraph(base + delta), config=GQBEConfig(mqg_size=mqg_size))
        query_tuple = tuple(random.Random(seed).sample(nodes, arity))
        try:
            space = LatticeSpace(system.discover_query_graph(query_tuple))
        except DiscoveryError:
            return
        runs = []
        with mock.patch.object(exploration_module, "extend_with_edge", _recording_extend):
            for cls in _EXPLORERS[explorer]:
                instance = cls(
                    space,
                    system.store,
                    k=5,
                    excluded_tuples={query_tuple},
                    max_rows=max_rows,
                )
                runs.append((instance, instance.run()))
        (releasing, released), (holding, held) = runs
        masks = [mask for mask, _ in releasing.log]
        assert len(masks) == len(set(masks))
        assert releasing.log == holding.log
        assert released.answers == held.answers
        counts = [
            (s.nodes_evaluated, s.null_nodes, s.nodes_skipped)
            for s in (released.statistics, held.statistics)
        ]
        assert counts[0] == counts[1]
        assert released.statistics.peak_retained_rows <= held.statistics.peak_retained_rows


class TestEachMaskJoinedOnce:
    """An overflow-skipped mask is marked evaluated, so no exploration
    order can queue and join it again: under a join cap that skips many
    nodes, no mask reaches ``_evaluate_mask`` twice, in either explorer."""

    @given(
        seed=st.integers(0, 10_000),
        hub_leaves=st.sampled_from([6, 20]),
        mqg_size=st.sampled_from([10, 15]),
        arity=st.integers(1, 2),
        max_rows=st.sampled_from([1, 10]),
        explorer=st.sampled_from([BestFirstExplorer, BreadthFirstExplorer]),
    )
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_no_mask_is_evaluated_twice(
        self, seed, hub_leaves, mqg_size, arity, max_rows, explorer
    ):
        base, delta, nodes = random_multigraph(seed, hub_leaves=hub_leaves)
        system = GQBE(KnowledgeGraph(base + delta), config=GQBEConfig(mqg_size=mqg_size))
        query_tuple = tuple(random.Random(seed).sample(nodes, arity))
        try:
            space = LatticeSpace(system.discover_query_graph(query_tuple))
        except DiscoveryError:
            return

        class Counting(explorer):
            def _evaluate_mask(self, mask):
                self.evaluated.append(mask)
                return super()._evaluate_mask(mask)

        instance = Counting(
            space, system.store, k=5, excluded_tuples={query_tuple}, max_rows=max_rows
        )
        instance.evaluated = []
        statistics = instance.run().statistics
        assert len(instance.evaluated) == len(set(instance.evaluated))
        assert len(instance.evaluated) == statistics.nodes_evaluated


class TestPeakRetainedRows:
    """``peak_retained_rows`` is the most rows held at once."""

    @pytest.mark.parametrize("explorer", [BestFirstExplorer, BreadthFirstExplorer])
    @pytest.mark.parametrize("max_rows", [None, 5])
    def test_matches_the_rows_held_after_every_step(
        self, jerry_space, figure1_store, explorer, max_rows
    ):
        class Summing(explorer):
            def run(self):
                self.kept = self.most = 0
                return super().run()

            def _held(self):
                held = sum(
                    r.num_rows for r in self._evaluated.values() if r is not None
                )
                self.most = max(self.most, held)

            def _hold(self, mask, relation, readers):
                super()._hold(mask, relation, readers)
                self.kept += relation.num_rows
                self._held()

            def _retire(self, mask):
                super()._retire(mask)
                self._held()

        instance = Summing(
            jerry_space,
            figure1_store,
            k=5,
            excluded_tuples={("Jerry Yang", "Yahoo!")},
            max_rows=max_rows,
        )
        peak = instance.run().statistics.peak_retained_rows
        assert peak == instance.most
        assert 0 < peak < instance.kept
