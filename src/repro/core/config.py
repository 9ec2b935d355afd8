"""Configuration of the GQBE system.

All tunables referenced in the paper are collected in one immutable
dataclass so experiments can be described declaratively and compared in
ablation benchmarks.
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
    reduce_neighborhood:
        Apply the unimportant-edge reduction of Sec. III-C before MQG
        discovery.  Disabling it is only useful for ablation studies.
    max_join_rows:
        Optional cap on the size of intermediate join relations; ``None``
        disables the cap.
    node_budget:
        Optional cap on the number of lattice nodes evaluated per query;
        ``None`` disables the cap.
    batch_join_memo:
        Share join work across the queries of one
        :meth:`~repro.core.gqbe.GQBE.query_batch` call through a
        batch-scoped :class:`~repro.storage.batch.JoinMemoArena`
        (memoized join plans, plan-prefix relations and first-edge
        scans).  Answers are byte-identical either way; disabling it
        makes ``query_batch`` a plain loop over ``query`` (useful to
        measure the batching win, or to bound memory on huge graphs).
    batch_memo_max_rows:
        Per-relation cap on what the batch arena may cache: intermediate
        relations with more rows are recomputed instead of memoized, so
        a single hub-heavy prefix cannot pin an arbitrarily large array
        for the lifetime of the batch.  ``None`` caches everything.
    native_kernels:
        Backend for the engine's innermost scalar loops (CSR frontier
        expansion, the scalar join-probe tail).  ``"auto"`` (the
        default) uses the compiled extension
        (``repro._kernels._native``) when it imported and falls back to
        the pure-Python kernels otherwise; ``"on"`` requires the
        extension (raising if it is unavailable); ``"off"`` forces the
        pure-Python kernels.  Answers are byte-identical either way
        (the native-parity equivalence tests pin this).  Environment
        overrides: ``GQBE_NATIVE_KERNELS`` decides what ``"auto"``
        means, and ``GQBE_FORCE_PURE=1`` forces the pure kernels
        unconditionally — even over ``"on"``.
    execution:
        Where :meth:`~repro.core.gqbe.GQBE.query_batch` runs.
        ``"inline"`` (the default) evaluates the batch on the calling
        thread.  ``"pool"`` shards the batch across a process pool
        (:class:`~repro.serving.pool.WorkerPool`) of ``pool_workers``
        workers — each worker opens the same snapshot (zero-copy shared
        pages of the mapped snapshot), bypassing the GIL for
        CPU-bound explorations.  Ranked answers are byte-identical
        either way; single queries and multi-tuple queries always run
        inline.
    pool_workers:
        Number of worker processes for ``execution="pool"``.  ``None``
        picks ``os.cpu_count()`` (capped at 8).
    serve_high_water:
        Admission high-water mark of the serving frontend
        (:class:`~repro.serving.async_server.AsyncGQBEServer`): the
        maximum number of admitted in-flight requests.  Past it, new
        queries are shed with ``429`` + ``Retry-After`` instead of
        queueing unboundedly.  Only read by the serving tier (``gqbe
        serve --high-water``); the engine itself ignores it.
    serve_deadline_ms:
        Per-request engine deadline of the serving frontend, in
        milliseconds.  A request whose engine work has not finished
        inside the deadline is answered ``504`` and its batcher slot
        abandoned.  ``None`` disables deadlines (the serving
        ``request_timeout`` still caps batcher waits with ``503``).
    serve_rate_limit_rps:
        Per-client sustained rate limit of the serving frontend, in
        requests/second (token bucket keyed by API key).  ``None``
        disables rate limiting.
    serve_rate_limit_burst:
        Token-bucket burst capacity per client — how many requests a
        previously idle client may issue back-to-back before the
        sustained ``serve_rate_limit_rps`` applies.
    serve_cache_ttl_seconds:
        Time-to-live for answer-cache entries of the serving frontend: an
        entry older than this is treated as a miss and evicted on
        access.  ``None`` keeps pure LRU (entries live until evicted or
        invalidated by ``/admin/reload``).
    serve_compact_threshold:
        Delta size (edges ingested via ``/admin/ingest``) past which a
        snapshot-backed server starts a background compaction, folding
        base + delta into a fresh on-disk generation.  ``None`` leaves
        compaction to explicit ``/admin/compact`` calls.
    """

    d: int = 2
    mqg_size: int = 15
    k_prime: int | None = None
    reduce_neighborhood: bool = True
    max_join_rows: int | None = None
    node_budget: int | None = None
    batch_join_memo: bool = True
    batch_memo_max_rows: int | None = 1_000_000
    native_kernels: str = "auto"
    execution: str = "inline"
    pool_workers: int | None = None
    serve_high_water: int = 64
    serve_deadline_ms: int | None = None
    serve_rate_limit_rps: float | None = None
    serve_rate_limit_burst: int = 32
    serve_cache_ttl_seconds: float | None = None
    serve_compact_threshold: int | None = None

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
        if self.batch_memo_max_rows is not None and self.batch_memo_max_rows < 0:
            raise EvaluationError(
                f"batch_memo_max_rows must be >= 0, got {self.batch_memo_max_rows}"
            )
        if self.native_kernels not in ("auto", "on", "off"):
            raise EvaluationError(
                'native_kernels must be "auto", "on" or "off", '
                f"got {self.native_kernels!r}"
            )
        if self.execution not in ("inline", "pool"):
            raise EvaluationError(
                f'execution must be "inline" or "pool", got {self.execution!r}'
            )
        if self.pool_workers is not None and self.pool_workers < 1:
            raise EvaluationError(
                f"pool_workers must be >= 1, got {self.pool_workers}"
            )
        if self.serve_high_water < 1:
            raise EvaluationError(
                f"serve_high_water must be >= 1, got {self.serve_high_water}"
            )
        if self.serve_deadline_ms is not None and self.serve_deadline_ms < 1:
            raise EvaluationError(
                f"serve_deadline_ms must be >= 1, got {self.serve_deadline_ms}"
            )
        if self.serve_rate_limit_rps is not None and self.serve_rate_limit_rps <= 0:
            raise EvaluationError(
                f"serve_rate_limit_rps must be > 0, got {self.serve_rate_limit_rps}"
            )
        if self.serve_rate_limit_burst < 1:
            raise EvaluationError(
                f"serve_rate_limit_burst must be >= 1, got {self.serve_rate_limit_burst}"
            )
        if (
            self.serve_cache_ttl_seconds is not None
            and self.serve_cache_ttl_seconds <= 0
        ):
            raise EvaluationError(
                "serve_cache_ttl_seconds must be > 0, "
                f"got {self.serve_cache_ttl_seconds}"
            )
        if (
            self.serve_compact_threshold is not None
            and self.serve_compact_threshold < 1
        ):
            raise EvaluationError(
                "serve_compact_threshold must be >= 1, "
                f"got {self.serve_compact_threshold}"
            )
