"""Shared fixtures for the benchmark suite.

The session ``harness`` fixture below is the experiment harness over the
synthetic Freebase-like workload; the benchmarks time its queries' stages.
The paper's evaluation claims are asserted by ``tests/test_paper_claims.py``
in the tier-1 suite, not here.

The harness runs at a reduced scale by default; set the environment
variable ``GQBE_BENCH_SCALE`` to run larger graphs (CI runs the
micro-benchmarks at 2).
"""

from __future__ import annotations

import os

import pytest

from repro.evaluation.harness import ExperimentHarness, HarnessConfig

#: Scale factor of the synthetic datasets used by the benchmarks.
BENCH_SCALE = float(os.environ.get("GQBE_BENCH_SCALE", "0.5"))


@pytest.fixture(scope="session")
def harness() -> ExperimentHarness:
    """One experiment harness shared by every benchmark."""
    return ExperimentHarness(
        HarnessConfig(
            scale=BENCH_SCALE,
            mqg_size=10,
            k_prime=25,
            node_budget=1000,
            max_join_rows=100_000,
        )
    )
