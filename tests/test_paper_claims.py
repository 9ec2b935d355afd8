"""The paper's evaluation claims (Sec. VI), asserted on the harness's rows.

One ``ExperimentHarness(HarnessConfig(scale=0.5))`` runs every experiment
once; that is ``gqbe experiment``'s default config, so
``gqbe experiment <name>`` prints the rows these tests check.  Table IV
(a crowdsourced user study) is not reproduced: its crowd cannot be
simulated offline.

Margins at scale 0.5 (seeds 7 and 11; timings are the range over five
runs on a 2-vCPU Xeon VM), each against the bound its test asserts:

* Fig. 13: GQBE beats NESS on P@k, MAP and nDCG at every k; P@10 reads
  0.925 against NESS's 0.74 (bound: GQBE >= NESS, P@10 >= 0.6).
* Table II: all 9 case-study answers are in their query's ground truth
  (bound: half).
* Table III: mean P@10 is 0.775 and D2 / D4 reach 1.0 (bounds: 0.5 and
  one query at 0.99).
* Table V: Combined(1,2) averages P@25 0.673 against 0.660 for the single
  tuples (bound: single mean - 0.1).
* Table VI: merging takes 1.5-2.3 ms against 11-16 ms of discovery
  (bound: merge <= discovery).

Known deviations from the paper, each asserted only as loosely as the
bound says:

* Fig. 14: at scale 0.5 GQBE is no faster than the breadth-first
  Baseline: over the 20 queries GQBE takes 0.059-0.078 s and the
  Baseline 0.058-0.071 s, GQBE / Baseline 0.89-1.10 (1.06-1.23 with
  smaller-first ties alone, runs alternated).  At scale 5, where more
  MQGs have more than k' answers (Fig. 15 below), GQBE is faster:
  0.085-0.117 s against 0.121-0.184 s, ratio 0.56-0.79 (0.95-1.15
  before).  Every query takes milliseconds, so the test asserts only
  that GQBE stays within 5x of the Baseline.
* Fig. 15: the paper's gap (>= 2x fewer nodes on 11 of 20 queries)
  shows where the MQG has more than k' answers.  Until a null node turns
  up every lower-frontier bound is weight(MQG), so the tie order decides
  the walk: a parent of a node with more than k' answers goes first,
  larger first, and any other node smaller first (level by level, the
  Baseline's order).  Nodes evaluated, GQBE / Baseline, k = k' = 10:

  =====  ==========  ===========
  query  scale 0.5   scale 5
  =====  ==========  ===========
  F1     4 / 4       4 / 4
  F2     6 / 18      6 / 18
  F3     23 / 23     20 / 20
  F4     4 / 4       1 / 1
  F5     4 / 4       16 / 16
  F6     49 / 49     128 / 128
  F7     5 / 10      5 / 10
  F8     64 / 64     6 / 32
  F9     10 / 10     5 / 12
  F10    40 / 40     6 / 20
  F11    9 / 9       16 / 16
  F12    3 / 3       4 / 8
  F13    16 / 16     4 / 8
  F14    4 / 8       4 / 8
  F15    3 / 3       8 / 45
  F16    18 / 18     20 / 20
  F17    31 / 31     16 / 16
  F18    87 / 87     57 / 57
  F19    8 / 8       1 / 1
  F20    17 / 19     5 / 21
  total  405 / 428   332 / 461
  =====  ==========  ===========

  At scale 0.5 GQBE evaluates strictly fewer on 4 queries, >= 2x fewer
  on 3; at scale 5 strictly fewer on 10, all of them >= 2x.  With
  smaller-first ties alone the totals were 426 / 428 and 461 / 461.  The
  full MQG has more than k' answers on F2, F7, F14 and F15 at scale 0.5
  (on 11 queries at scale 5); there best-first climbs one chain from the
  smallest minimal query tree to the MQG, |E(MQG)| - t + 1 nodes (F2 6,
  F7 5, F14 4, F15 3), and Theorem 4 stops it at the MQG.  Elsewhere the
  MQG has at most k' answers, no climb reaches k' exact matches, and
  the order is mostly the Baseline's.  The test asserts GQBE <= Baseline
  per query, that neither explorer stopped at ``node_budget`` (two
  explorers cut off at the same cap would compare equal whatever their
  order), and the chain count on every query whose MQG has more than k'
  answers.
* Fig. 16: the merged 2-tuple query is *slower* than evaluating the two
  tuples separately: 0.062-0.073 s against 0.052-0.061 s over 8 queries,
  merged / separate 1.16-1.24.  The merged MQG has more edges and the
  separate lattices are already tiny.  The test asserts only that it
  stays within 10x.
"""

from __future__ import annotations

import pytest

from repro.evaluation.harness import (
    CASE_STUDY_QUERY_IDS,
    ExperimentHarness,
    HarnessConfig,
)
from repro.lattice.minimal_trees import minimal_query_trees
from repro.lattice.query_graph import LatticeSpace
from repro.storage.join import evaluate_query_edges

#: The multi-tuple queries of Table V.
TABLE5_QUERY_IDS = ("F2", "F4", "F6", "F8", "F9", "F17")

#: The 2-tuple queries of Table VI / Fig. 16.
TABLE6_QUERY_IDS = ("F2", "F8", "F10", "F12", "F14", "F16", "F18", "F19")

#: k of the Fig. 14/15 runs, which also set k' = k.
FIG15_K = 10


@pytest.fixture(scope="module")
def harness() -> ExperimentHarness:
    return ExperimentHarness(HarnessConfig(scale=0.5))


@pytest.fixture(scope="module")
def efficiency_rows(harness) -> list[dict]:
    """Figs. 14 and 15 come from the same runs."""
    return harness.figure14_15_efficiency(FIG15_K)


def _climb_lengths(harness) -> dict[str, int]:
    """``|E(MQG)| - t + 1`` per query whose full MQG has more than k'
    answers besides its own tuple, ``t`` the edge count of its smallest
    minimal query tree: the nodes best-first evaluates on its way up."""
    store = harness._bundle("freebase").gqbe.store
    lengths = {}
    for query in harness.freebase_workload().queries:
        space = LatticeSpace(harness._mqg("freebase", query.query_tuple))
        matches = evaluate_query_edges(store, space.edges_of(space.full_mask))
        columns = [matches.columns[matches.column(entity)] for entity in query.query_tuple]
        answers = set(zip(*(column.tolist() for column in columns)))
        answers.discard(tuple(map(store.vocabulary.id_of, query.query_tuple)))
        if len(answers) > FIG15_K:
            smallest = min(mask.bit_count() for mask in minimal_query_trees(space))
            lengths[query.query_id] = space.num_edges - smallest + 1
    return lengths


@pytest.fixture(scope="module")
def multi_tuple_rows(harness) -> list[dict]:
    """Table VI and Fig. 16 come from the same runs."""
    return harness.table6_fig16_multituple_efficiency(TABLE6_QUERY_IDS, 10)


def test_table1_lists_every_query_with_a_ground_truth(harness):
    rows = harness.table1_workload_summary()
    assert len(rows) == 28
    assert all(row["table_size"] >= 1 for row in rows)


def test_table2_case_study_answers_come_from_the_ground_truth(harness):
    results = harness.table2_case_study()
    assert set(results) == set(CASE_STUDY_QUERY_IDS)
    workload = harness.freebase_workload()
    hits = total = 0
    for query_id, answers in results.items():
        assert 1 <= len(answers) <= 3
        truth = set(map(tuple, workload.query(query_id).ground_truth))
        total += len(answers)
        hits += sum(1 for answer in answers if answer in truth)
    assert hits >= total / 2


def test_fig13_gqbe_beats_ness_on_every_metric_at_every_k(harness):
    rows = harness.figure13_accuracy((10, 15, 20, 25))
    for row in rows:
        assert row["gqbe_p_at_k"] >= row["ness_p_at_k"], row
        assert row["gqbe_map"] >= row["ness_map"], row
        assert row["gqbe_ndcg"] >= row["ness_ndcg"], row
    # The paper reports P@25 > 0.8.
    assert rows[0]["k"] == 10
    assert rows[0]["gqbe_p_at_k"] >= 0.6


def test_table3_dbpedia_accuracy_is_high(harness):
    rows = harness.table3_dbpedia_accuracy(10)
    assert [row["query"] for row in rows] == [f"D{i}" for i in range(1, 9)]
    assert sum(row["p_at_k"] for row in rows) / len(rows) >= 0.5
    assert any(row["p_at_k"] >= 0.99 for row in rows)


def test_table5_merged_mqgs_do_not_hurt_accuracy(harness):
    rows = harness.table5_multi_tuple(TABLE5_QUERY_IDS, 25)
    assert [row["query"] for row in rows] == list(TABLE5_QUERY_IDS)
    for row in rows:
        for column, value in row.items():
            if column != "query":
                assert 0.0 <= value <= 1.0, (column, row)
    single = sum((row["tuple1_p_at_k"] + row["tuple2_p_at_k"]) / 2 for row in rows)
    combined = sum(row["combined12_p_at_k"] for row in rows)
    # The paper: merged MQGs help in most cases.  The synthetic tables are
    # tiny, so allow a small tolerance on the mean.
    assert combined / len(rows) >= single / len(rows) - 0.1


def test_table6_merging_mqgs_costs_less_than_discovering_them(multi_tuple_rows):
    assert len(multi_tuple_rows) == len(TABLE6_QUERY_IDS)
    discovery = sum(row["mqg1_seconds"] + row["mqg2_seconds"] for row in multi_tuple_rows)
    merge = sum(row["merge_seconds"] for row in multi_tuple_rows)
    assert merge <= discovery


def test_fig14_gqbe_time_stays_within_5x_of_the_baseline(efficiency_rows):
    assert len(efficiency_rows) == 20
    for row in efficiency_rows:
        assert row["gqbe_nodes_evaluated"] >= 1, row
        assert row["baseline_nodes_evaluated"] >= 1, row
    gqbe = sum(row["gqbe_seconds"] for row in efficiency_rows)
    baseline = sum(row["baseline_seconds"] for row in efficiency_rows)
    assert gqbe <= max(baseline, 0.01) * 5


def test_fig15_gqbe_evaluates_no_more_lattice_nodes_than_the_baseline(
    harness, efficiency_rows
):
    assert len(efficiency_rows) == 20
    for row in efficiency_rows:
        assert not row["gqbe_budget_exhausted"], row
        assert not row["baseline_budget_exhausted"], row
        assert row["gqbe_nodes_evaluated"] <= row["baseline_nodes_evaluated"], row
    # Where the full MQG has more than k' answers, every node on the way
    # up has them too (Property 1): best-first climbs one chain from the
    # smallest minimal query tree to the MQG and stops there (Theorem 4).
    climbs = _climb_lengths(harness)
    assert climbs, "no query's MQG has more than k' answers"
    nodes = {row["query"]: row["gqbe_nodes_evaluated"] for row in efficiency_rows}
    assert {query: nodes[query] for query in climbs} == climbs


def test_fig16_merged_query_time_stays_within_10x_of_separate(multi_tuple_rows):
    combined = sum(row["combined_processing_seconds"] for row in multi_tuple_rows)
    separate = sum(row["separate_processing_seconds"] for row in multi_tuple_rows)
    assert combined <= max(separate, 0.01) * 10


def test_unknown_dataset_is_rejected(harness):
    with pytest.raises(ValueError):
        harness.run_gqbe("wikidata", "F1")
