"""Configuration of the GQBE system.

All tunables referenced in the paper are collected in one immutable
dataclass so experiments can be described declaratively and compared in
ablation benchmarks.  Only what the engine reads lives here: the process
pool and the admission, cache and compaction settings of the serving tier
are constructor arguments of :class:`~repro.serving.server.ServingCore`
and :class:`~repro.serving.async_server.AsyncGQBEServer`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import EvaluationError


@dataclass(frozen=True)
class GQBEConfig:
    """Tunable parameters of GQBE.

    Attributes
    ----------
    d:
        Path-length threshold of the neighborhood graph (Definition 1).
        The paper uses ``d = 2``.
    mqg_size:
        Target number of edges ``r`` of the maximal query graph
        (Sec. III-A); the paper uses an empirically chosen ``r = 15``.
        At most 62: a query graph's self-match signature holds one bit
        per node in an int64.
    k_prime:
        Stage-one oversampling for the two-stage ranking (Sec. V-B).
        ``None`` lets the explorer pick ``max(100, 4·k)``; a value below
        a query's ``k`` counts as ``k``.
    max_join_rows:
        Optional cap on the size of intermediate join relations; ``None``
        disables the cap.
    node_budget:
        Optional cap on the number of lattice nodes evaluated per query;
        ``None`` disables the cap.
    """

    d: int = 2
    mqg_size: int = 15
    k_prime: int | None = None
    max_join_rows: int | None = None
    node_budget: int | None = None

    def __post_init__(self) -> None:
        if self.d < 1:
            raise EvaluationError(f"d must be >= 1, got {self.d}")
        if not 1 <= self.mqg_size <= 62:
            raise EvaluationError(f"mqg_size must be in [1, 62], got {self.mqg_size}")
        if self.k_prime is not None and self.k_prime < 1:
            raise EvaluationError(f"k_prime must be >= 1, got {self.k_prime}")
        if self.max_join_rows is not None and self.max_join_rows < 1:
            raise EvaluationError(
                f"max_join_rows must be >= 1, got {self.max_join_rows}"
            )
        if self.node_budget is not None and self.node_budget < 1:
            raise EvaluationError(f"node_budget must be >= 1, got {self.node_budget}")
