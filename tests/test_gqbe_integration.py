"""End-to-end integration tests for the GQBE facade."""

from __future__ import annotations

import pytest

from repro.core.config import GQBEConfig
from repro.core.gqbe import GQBE
from repro.exceptions import EvaluationError, QueryError, UnknownEntityError


class TestFigure1RunningExample:
    def test_top_answers_match_the_paper(self, figure1_system, figure1_truth):
        result = figure1_system.query(("Jerry Yang", "Yahoo!"), k=5)
        answers = result.answer_tuples()
        for expected in figure1_truth:
            assert expected in answers

    def test_query_tuple_not_returned(self, figure1_system):
        result = figure1_system.query(("Jerry Yang", "Yahoo!"), k=10)
        assert ("Jerry Yang", "Yahoo!") not in result.answer_tuples()

    def test_ranks_are_sequential(self, figure1_system):
        result = figure1_system.query(("Jerry Yang", "Yahoo!"), k=5)
        assert [answer.rank for answer in result.answers] == list(
            range(1, len(result.answers) + 1)
        )

    def test_result_metadata(self, figure1_system):
        result = figure1_system.query(("Jerry Yang", "Yahoo!"), k=5)
        assert result.query_tuples == (("Jerry Yang", "Yahoo!"),)
        assert result.mqg.num_edges > 0
        assert result.discovery_seconds >= 0
        assert result.processing_seconds >= 0
        assert result.total_seconds == pytest.approx(
            result.discovery_seconds + result.processing_seconds
        )
        assert result.statistics.nodes_evaluated > 0
        assert result.top(2) == result.answers[:2]

    def test_answers_have_same_arity_as_query(self, figure1_system):
        result = figure1_system.query(("Jerry Yang", "Yahoo!"), k=10)
        assert all(len(answer) == 2 for answer in result.answers)

    def test_single_entity_query(self, figure1_system):
        result = figure1_system.query(("Stanford",), k=5)
        assert all(len(answer) == 1 for answer in result.answers)
        assert ("Stanford",) not in result.answer_tuples()

    def test_three_entity_query(self, figure1_system):
        result = figure1_system.query(("Jerry Yang", "Yahoo!", "Sunnyvale"), k=5)
        assert all(len(answer) == 3 for answer in result.answers)
        answers = result.answer_tuples()
        assert ("Steve Wozniak", "Apple Inc.", "Cupertino") in answers


class TestMultiTupleQueries:
    def test_merged_query_finds_remaining_founders(self, figure1_system):
        result = figure1_system.query_multi(
            [("Jerry Yang", "Yahoo!"), ("Steve Wozniak", "Apple Inc.")], k=5
        )
        answers = result.answer_tuples()
        assert ("Sergey Brin", "Google") in answers
        assert ("Bill Gates", "Microsoft") in answers

    def test_input_tuples_excluded_from_answers(self, figure1_system):
        result = figure1_system.query_multi(
            [("Jerry Yang", "Yahoo!"), ("Steve Wozniak", "Apple Inc.")], k=10
        )
        answers = result.answer_tuples()
        assert ("Jerry Yang", "Yahoo!") not in answers
        assert ("Steve Wozniak", "Apple Inc.") not in answers

    def test_multi_tuple_metadata(self, figure1_system):
        result = figure1_system.query_multi(
            [("Jerry Yang", "Yahoo!"), ("Steve Wozniak", "Apple Inc.")], k=5
        )
        assert len(result.per_tuple_discovery_seconds) == 2
        assert result.merge_seconds >= 0
        assert result.mqg.query_tuple == ("__w1", "__w2")

    def test_single_tuple_multi_query_falls_back(self, figure1_system):
        single = figure1_system.query(("Jerry Yang", "Yahoo!"), k=5)
        multi = figure1_system.query_multi([("Jerry Yang", "Yahoo!")], k=5)
        assert multi.answer_tuples() == single.answer_tuples()

    def test_mismatched_arity_rejected(self, figure1_system):
        with pytest.raises(QueryError):
            figure1_system.query_multi([("Jerry Yang", "Yahoo!"), ("Stanford",)], k=5)

    def test_empty_multi_query_rejected(self, figure1_system):
        with pytest.raises(QueryError):
            figure1_system.query_multi([], k=5)


class TestValidationAndConfig:
    def test_unknown_entity_raises(self, figure1_system):
        with pytest.raises(UnknownEntityError):
            figure1_system.query(("Jerry Yang", "No Such Company"), k=5)

    def test_empty_tuple_raises(self, figure1_system):
        with pytest.raises(QueryError):
            figure1_system.query((), k=5)

    def test_invalid_config_rejected(self):
        with pytest.raises(EvaluationError):
            GQBEConfig(d=0)
        with pytest.raises(EvaluationError):
            GQBEConfig(mqg_size=0)
        with pytest.raises(EvaluationError, match="mqg_size"):
            GQBEConfig(mqg_size=63)  # a 63-edge query graph can span 64 nodes
        with pytest.raises(EvaluationError):
            GQBEConfig(k_prime=0)
        with pytest.raises(EvaluationError):
            GQBEConfig(max_join_rows=0)
        with pytest.raises(EvaluationError):
            GQBEConfig(node_budget=0)
        with pytest.raises(TypeError):  # one kernel backend: nothing chooses it
            GQBEConfig(native_kernels="auto")
        with pytest.raises(TypeError):  # a query always reduces its neighborhood
            GQBEConfig(reduce_neighborhood=False)

    def test_k_prime_below_k_still_returns_k_answers(self, figure1_graph):
        """Stage one oversamples (k' >= k, Sec. V-B): a k' below k, passed
        to the call or configured, counts as k."""
        query_tuple = ("Jerry Yang", "Yahoo!")
        system = GQBE(figure1_graph, config=GQBEConfig(mqg_size=10))
        expected = system.query(query_tuple, k=4, k_prime=4).answer_tuples()
        assert len(expected) == 4
        assert system.query(query_tuple, k=4, k_prime=2).answer_tuples() == expected
        configured = GQBE(figure1_graph, config=GQBEConfig(mqg_size=10, k_prime=2))
        assert configured.query(query_tuple, k=4).answer_tuples() == expected

    def test_default_config_used_when_omitted(self, figure1_graph):
        system = GQBE(figure1_graph)
        assert system.config.d == 2
        assert system.config.mqg_size == 15


class TestSyntheticIntegration:
    def test_founders_query_on_synthetic_graph(self, tiny_system, tiny_dataset):
        table = tiny_dataset.table("tech_founders")
        query_tuple = table[0]
        truth = set(map(tuple, table[1:]))
        result = tiny_system.query(query_tuple, k=10)
        answers = result.answer_tuples()
        assert answers, "expected at least one answer on the synthetic graph"
        hits = sum(1 for answer in answers if answer in truth)
        assert hits >= len(answers) // 2

    def test_multi_tuple_on_synthetic_graph(self, tiny_system, tiny_dataset):
        table = tiny_dataset.table("tech_founders")
        result = tiny_system.query_multi([table[0], table[1]], k=10)
        truth = set(map(tuple, table[2:]))
        answers = result.answer_tuples()
        assert answers
        assert any(answer in truth for answer in answers)


def test_importing_the_engine_leaves_out_what_a_restart_never_runs(fresh_python):
    """A serving process that restarts pays for its imports before its first
    answer.  The triple readers' ``csv`` / ``gzip`` and the package metadata
    machinery behind ``repro.__version__`` (``importlib.metadata`` pulls in
    ``email`` and ``zipfile``) load when used, not with the engine."""
    script = (
        "import sys\n"
        "try:\n"
        "    import numpy\n"
        "except ImportError:\n"
        "    pass\n"
        "before = set(sys.modules)\n"
        "from repro.core.gqbe import GQBE\n"
        "added = set(sys.modules) - before\n"
        "late = {'importlib.metadata', 'email', 'zipfile', 'csv', 'gzip'}\n"
        "assert not late & added, sorted(late & added)\n"
        "import repro\n"
        "assert repro.__version__ and isinstance(repro.__version__, str)\n"
        "assert 'importlib.metadata' in sys.modules\n"
        "from repro import __version__\n"
        "print(__version__)\n"
    )
    assert fresh_python(script).strip()


def test_kernel_backend_is_pure_and_a_native_request_is_refused(fresh_python):
    """``repro._kernels`` names the one backend perfbench records, and an
    import under ``GQBE_NATIVE_KERNELS=on`` (a backend that does not
    exist) raises ``EvaluationError``."""
    script = (
        "import os, sys\n"
        "os.environ.pop('GQBE_NATIVE_KERNELS', None)\n"
        "if sys.argv[1:]:\n"
        "    os.environ['GQBE_NATIVE_KERNELS'] = sys.argv[1]\n"
        "from repro.exceptions import EvaluationError\n"
        "try:\n"
        "    from repro import _kernels\n"
        "except EvaluationError as error:\n"
        "    print('refused', error)\n"
        "else:\n"
        "    print(_kernels.resolve_backend(), _kernels.native_available())\n"
    )
    assert fresh_python(script, "on").startswith("refused GQBE_NATIVE_KERNELS=on")
    assert fresh_python(script).split() == ["pure", "False"]
