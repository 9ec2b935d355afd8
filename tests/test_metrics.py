"""Tests for the accuracy metrics."""

from __future__ import annotations

import math

import pytest

from repro.evaluation.metrics import (
    average_precision,
    correlation_strength,
    dcg_at_k,
    mean_average_precision,
    ndcg_at_k,
    pearson_correlation,
    precision_at_k,
)

RESULTS = [("a",), ("b",), ("c",), ("d",)]
TRUTH = [("a",), ("c",), ("x",)]


class TestPrecisionAtK:
    def test_basic(self):
        assert precision_at_k(RESULTS, TRUTH, 2) == 0.5
        assert precision_at_k(RESULTS, TRUTH, 4) == 0.5

    def test_perfect_and_zero(self):
        assert precision_at_k([("a",), ("c",)], TRUTH, 2) == 1.0
        assert precision_at_k([("z",), ("y",)], TRUTH, 2) == 0.0

    def test_fewer_results_than_k_penalized(self):
        assert precision_at_k([("a",)], TRUTH, 10) == pytest.approx(0.1)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            precision_at_k(RESULTS, TRUTH, 0)


class TestAveragePrecision:
    def test_paper_normalization_by_ground_truth_size(self):
        # Hits at ranks 1 and 3: (1/1 + 2/3) / |truth| = (1 + 0.667) / 3
        expected = (1.0 + 2.0 / 3.0) / 3
        assert average_precision(RESULTS, TRUTH, 4) == pytest.approx(expected)

    def test_empty_ground_truth_gives_zero(self):
        assert average_precision(RESULTS, [], 4) == 0.0

    def test_map_is_mean(self):
        runs = [(RESULTS, TRUTH), ([("z",)], TRUTH)]
        expected = (average_precision(RESULTS, TRUTH, 4) + 0.0) / 2
        assert mean_average_precision(runs, 4) == pytest.approx(expected)
        assert mean_average_precision([], 4) == 0.0


class TestNDCG:
    def test_dcg_formula(self):
        assert dcg_at_k([1, 1, 0], 3) == pytest.approx(1 + 1 / math.log2(2))
        assert dcg_at_k([], 3) == 0.0

    def test_perfect_ranking_scores_one(self):
        assert ndcg_at_k([("a",), ("c",), ("z",)], TRUTH, 3) == pytest.approx(1.0)

    def test_bad_ranking_below_one(self):
        value = ndcg_at_k([("z",), ("y",), ("a",)], TRUTH, 3)
        assert 0.0 < value < 1.0

    def test_no_relevant_results(self):
        assert ndcg_at_k([("z",), ("y",)], TRUTH, 2) == 0.0

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            ndcg_at_k(RESULTS, TRUTH, 0)


class TestPearson:
    def test_perfect_positive_and_negative(self):
        assert pearson_correlation([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)
        assert pearson_correlation([1, 2, 3], [6, 4, 2]) == pytest.approx(-1.0)

    def test_undefined_for_constant_lists(self):
        assert pearson_correlation([1, 1, 1], [1, 2, 3]) is None
        assert pearson_correlation([], []) is None

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            pearson_correlation([1, 2], [1])

    def test_strength_bands(self):
        assert correlation_strength(0.8) == "strong"
        assert correlation_strength(0.4) == "medium"
        assert correlation_strength(0.2) == "small"
        assert correlation_strength(0.05) == "none"
        assert correlation_strength(None) == "undefined"
