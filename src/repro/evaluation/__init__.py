"""Evaluation: accuracy metrics and the experiment harness.

* :mod:`repro.evaluation.metrics` — P@k, average precision / MAP, nDCG and
  the Pearson correlation coefficient, as defined in Sec. VI.
* :mod:`repro.evaluation.harness` — runs GQBE / NESS / Baseline over the
  workloads and regenerates the tables and figures of the evaluation;
  ``tests/test_paper_claims.py`` asserts the paper's claims on its rows.
  Table IV, a crowdsourced user study, is not reproduced offline.
* :mod:`repro.evaluation.reporting` — plain-text rendering of the tables.
"""

from repro.evaluation.metrics import (
    average_precision,
    mean_average_precision,
    ndcg_at_k,
    pearson_correlation,
    precision_at_k,
)
from repro.evaluation.harness import ExperimentHarness

__all__ = [
    "precision_at_k",
    "average_precision",
    "mean_average_precision",
    "ndcg_at_k",
    "pearson_correlation",
    "ExperimentHarness",
]
