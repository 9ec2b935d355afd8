"""`query_batch` must be byte-identical to sequential `query()` calls.

A batch runs each distinct tuple once through ``query()`` and fans the
result out to its duplicates, so the ranked answers — entities, scores,
ranks — and the exploration statistics must match exactly, for every
batch size and every way a capped join slices its probe expansion (the
``join_regime`` fixture: about one probe row per slice, slices of 64
candidates, or the shipped single pass up to the cap).  These tests pin
that contract on the Fig. 14-style synthetic workload (batch sizes 1, 2
and the full 20-query workload) and on the Fig. 1 running example, and
that queries of one batch share no join state: no match relation of one
query outlives it.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core.config import GQBEConfig
from repro.core.gqbe import GQBE
from repro.datasets.workloads import build_freebase_workload
from repro.exceptions import QueryError
from repro.lattice.exploration import LatticeNodeEvaluator


@pytest.fixture(scope="module")
def workload():
    return build_freebase_workload(seed=7, scale=0.25)


@pytest.fixture(scope="module")
def system(workload):
    config = GQBEConfig(mqg_size=8, k_prime=20, node_budget=500, max_join_rows=50_000)
    return GQBE(workload.dataset.graph, config=config)


def answer_key(result):
    """Everything observable about a result's ranked answers."""
    return [
        (
            answer.rank,
            answer.entities,
            answer.score,
            answer.structure_score,
            answer.content_score,
        )
        for answer in result.answers
    ]


def stats_key(result):
    stats = result.statistics
    return (
        stats.nodes_evaluated,
        stats.null_nodes,
        stats.nodes_skipped,
        stats.answers_found,
        stats.terminated_early,
        stats.node_budget_exhausted,
    )


@pytest.mark.parametrize("batch_size", [1, 2, 20])
def test_batch_matches_sequential(system, workload, join_regime, batch_size):
    tuples = [query.query_tuple for query in workload.queries][:batch_size]
    assert len(tuples) == batch_size

    sequential = [system.query(t, k=5) for t in tuples]
    batched = system.query_batch(tuples, k=5)

    assert len(batched) == batch_size
    for seq, bat, query_tuple in zip(sequential, batched, tuples):
        assert bat.query_tuples == (query_tuple,)
        assert answer_key(seq) == answer_key(bat)
        assert stats_key(seq) == stats_key(bat)


def test_batch_matches_sequential_with_k_prime_override(system, workload, join_regime):
    """The Fig. 14 efficiency protocol (k' = k) must stay identical too."""
    tuples = [query.query_tuple for query in workload.queries]
    sequential = [system.query(t, k=5, k_prime=5) for t in tuples]
    batched = system.query_batch(tuples, k=5, k_prime=5)
    for seq, bat in zip(sequential, batched):
        assert answer_key(seq) == answer_key(bat)
        assert stats_key(seq) == stats_key(bat)


def test_duplicate_queries_collapse_and_fan_out(system, workload):
    """Duplicates are evaluated once but every caller gets full answers."""
    base = workload.queries[0].query_tuple
    other = workload.queries[1].query_tuple
    batch = [base, other, base, base, other]
    results = system.query_batch(batch, k=5)
    assert len(results) == len(batch)
    reference = {
        base: system.query(base, k=5),
        other: system.query(other, k=5),
    }
    for query_tuple, result in zip(batch, results):
        assert answer_key(result) == answer_key(reference[query_tuple])
    # Fan-out results are independent objects sharing no mutable state.
    assert results[0].answers is not results[2].answers
    assert results[0].statistics is not results[2].statistics


def test_no_relation_of_one_query_outlives_it(workload, monkeypatch):
    """When the next query of a batch starts, every match relation the
    earlier ones held is garbage: a batch holds one query's joins at a
    time, whatever their size."""
    # At r = 15 the first query holds a 234-row relation.
    system = GQBE(
        workload.dataset.graph,
        config=GQBEConfig(k_prime=20, node_budget=500, max_join_rows=50_000),
    )
    tuples = [workload.queries[i].query_tuple for i in (6, 0, 1)]
    started: list[tuple[str, ...]] = []
    #: (index of the query that held it, rows, weakref to its matrix)
    held: list[tuple[int, int, weakref.ref]] = []
    hold = LatticeNodeEvaluator._hold
    discover = GQBE.discover_query_graph

    def spy_hold(self, mask, relation, readers):
        matrix = weakref.ref(relation.columns)
        held.append((len(started) - 1, relation.num_rows, matrix))
        hold(self, mask, relation, readers)

    def spy_discover(self, query_tuple):
        gc.collect()
        alive = [(query, rows) for query, rows, ref in held if ref() is not None]
        assert alive == [], f"relations outlived their query: {alive}"
        started.append(tuple(query_tuple))
        return discover(self, query_tuple)

    monkeypatch.setattr(LatticeNodeEvaluator, "_hold", spy_hold)
    monkeypatch.setattr(GQBE, "discover_query_graph", spy_discover)
    system.query_batch(tuples, k=5)
    assert started == tuples
    # The first query held a relation past the scalar tail's 64 rows.
    assert max(rows for query, rows, _ref in held if query == 0) > 64


def test_batch_arena_is_discarded_between_calls(system, workload):
    """No state leaks between calls: two identical batch calls return
    identical answers and statistics."""
    tuples = [query.query_tuple for query in workload.queries][:6]
    first = system.query_batch(tuples, k=5)
    second = system.query_batch(tuples, k=5)
    for a, b in zip(first, second):
        assert answer_key(a) == answer_key(b)
        assert stats_key(a) == stats_key(b)


def test_empty_batch_and_bad_tuples():
    from repro.datasets.example_graph import figure1_excerpt

    system = GQBE(figure1_excerpt(), config=GQBEConfig(mqg_size=8))
    assert system.query_batch([]) == []
    with pytest.raises(QueryError):
        system.query_batch([("Jerry Yang",), ()])


def test_figure1_batch_answers(figure1_system, figure1_truth):
    """Running example: batch answers still contain the ground truth."""
    result = figure1_system.query_batch([("Jerry Yang", "Yahoo!")], k=5)[0]
    answers = result.answer_tuples()
    for expected in figure1_truth:
        assert expected in answers
