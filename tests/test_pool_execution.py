"""Process-pool execution must be byte-identical to inline execution.

The acceptance contract of the pooled backend (``serving/pool.py``):
ranked answers — entities, scores, ranks — and their order are identical
across **cold-built inline**, **snapshot-mapped inline** and **pooled**
execution, for batch sizes 1, 2 and the full 20-query Fig. 14-style
workload (mirroring
``tests/test_batch_equivalence.py``).  Also covers duplicate fan-out
through the pool, the serve layer's pooled dispatch, error handling
(including a worker dying inside the fork-pool initializer, which must
fail fast with a clean ``GQBEError`` instead of hanging on the startup
barrier), and the config surface.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import time

import pytest

from repro.core.config import GQBEConfig
from repro.core.gqbe import GQBE
from repro.datasets.workloads import build_freebase_workload
from repro.exceptions import EvaluationError, GQBEError
from repro.serving.pool import WorkerPool, _chunk
from repro.storage.snapshot import GraphStore

#: Small pool for CI friendliness; the bench uses >= 4.
POOL_WORKERS = 2

_CONFIG = dict(mqg_size=8, k_prime=20, node_budget=500, max_join_rows=50_000)


@pytest.fixture(scope="module")
def workload():
    return build_freebase_workload(seed=7, scale=0.25)


@pytest.fixture(scope="module")
def tuples(workload):
    return [query.query_tuple for query in workload.queries]


@pytest.fixture(scope="module")
def snapshot(workload, tmp_path_factory):
    path = tmp_path_factory.mktemp("pool") / "workload.snapdir"
    GraphStore.build(workload.dataset.graph).save(path)
    return path


@pytest.fixture(scope="module")
def systems(workload, snapshot):
    """The execution variants of the acceptance criterion."""
    inline_config = GQBEConfig(**_CONFIG)
    pooled_config = GQBEConfig(
        **_CONFIG, execution="pool", pool_workers=POOL_WORKERS
    )
    built = {
        "inline": GQBE(workload.dataset.graph, config=inline_config),
        "mapped": GQBE.from_snapshot(snapshot, config=inline_config),
        "pooled": GQBE.from_snapshot(snapshot, config=pooled_config),
    }
    yield built
    built["pooled"].close()


def answer_key(result):
    return [
        (a.rank, a.entities, a.score, a.structure_score, a.content_score)
        for a in result.answers
    ]


@pytest.mark.parametrize("batch_size", [1, 2, 20])
def test_format_and_execution_equivalence(systems, tuples, batch_size):
    """Cold-built / snapshot-mapped × inline / pooled rank byte-identically."""
    batch = tuples[:batch_size]
    assert len(batch) == batch_size
    reference = [answer_key(r) for r in systems["inline"].query_batch(batch, k=5)]
    for name in ("mapped", "pooled"):
        results = systems[name].query_batch(batch, k=5)
        assert [answer_key(r) for r in results] == reference, name


def test_pooled_duplicates_collapse_and_fan_out(systems, tuples):
    pooled = systems["pooled"]
    batch = [tuples[0], tuples[1], tuples[0], tuples[2], tuples[0]]
    results = pooled.query_batch(batch, k=5)
    assert len(results) == len(batch)
    reference = {
        t: answer_key(systems["inline"].query(t, k=5)) for t in set(batch)
    }
    for query_tuple, result in zip(batch, results):
        assert result.query_tuples == (query_tuple,)
        assert answer_key(result) == reference[query_tuple]
    # Fan-out duplicates share no mutable state.
    assert results[0].answers is not results[2].answers
    assert results[0].statistics is not results[2].statistics


def test_fork_inherited_pool_matches(systems, workload, tuples):
    """A pool without a snapshot (fork-inherited system) is identical too."""
    system = GQBE(
        workload.dataset.graph,
        config=GQBEConfig(**_CONFIG, execution="pool", pool_workers=POOL_WORKERS),
    )
    try:
        results = system.query_batch(tuples[:4], k=5)
        reference = systems["inline"].query_batch(tuples[:4], k=5)
        assert [answer_key(r) for r in results] == [
            answer_key(r) for r in reference
        ]
    finally:
        system.close()


def test_single_query_stays_inline(snapshot, tuples):
    """One-element batches take the inline path — no pool is created
    just for them."""
    fresh = GQBE.from_snapshot(
        snapshot,
        config=GQBEConfig(**_CONFIG, execution="pool", pool_workers=POOL_WORKERS),
    )
    try:
        fresh.query_batch([tuples[0]], k=2)
        fresh.query(tuples[0], k=2)
        assert fresh._pool is None
    finally:
        fresh.close()


def test_pool_propagates_engine_errors(systems, snapshot):
    pooled = GQBE.from_snapshot(
        snapshot,
        config=GQBEConfig(**_CONFIG, execution="pool", pool_workers=POOL_WORKERS),
    )
    try:
        with pytest.raises(GQBEError):
            pooled.query_batch(
                [("F0", "C0"), ("no-such-entity", "nowhere")], k=3
            )
    finally:
        pooled.close()


def test_worker_pool_requires_source():
    with pytest.raises(GQBEError, match="snapshot_path or a system"):
        WorkerPool(workers=2)


def _exit_first_worker(flag) -> None:
    """Init hook killing exactly one worker mid-initialization."""
    with flag.get_lock():
        first = flag.value == 0
        if first:
            flag.value = 1
    if first:
        os._exit(1)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)
def test_dying_worker_in_initializer_fails_fast(workload):
    """Satellite: a worker dying inside ``_init_worker`` must not leave
    its siblings blocked on the startup barrier for the 120s timeout —
    the constructor detects the death, tears the pool down and raises a
    clean GQBEError within seconds."""
    context = multiprocessing.get_context("fork")
    flag = context.Value("i", 0)
    system = GQBE(workload.dataset.graph, config=GQBEConfig(**_CONFIG))
    started = time.monotonic()
    with pytest.raises(GQBEError, match="pool failed during initialization"):
        WorkerPool(
            workers=2,
            system=system,
            _init_hook=functools.partial(_exit_first_worker, flag),
        )
    # Far below the barrier timeout: the failure was detected, not waited out.
    assert time.monotonic() - started < 30


def test_executor_breaking_between_fork_submits_fails_clean(workload, monkeypatch):
    """The same death, one step earlier: a worker that exits before the
    last fork-fleet submit breaks the executor, and ``submit`` itself
    raises — that must surface as the same clean GQBEError."""
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    original = ProcessPoolExecutor.submit
    submitted = []

    def submit(self, *args, **kwargs):
        if submitted:
            raise BrokenProcessPool("a child process terminated abruptly")
        submitted.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", submit)
    system = GQBE(workload.dataset.graph, config=GQBEConfig(**_CONFIG))
    with pytest.raises(GQBEError, match="pool failed during initialization"):
        WorkerPool(workers=2, system=system)


def test_chunk_balancing():
    assert _chunk(list(range(5)), 2) == [[0, 1, 2], [3, 4]]
    assert _chunk(list(range(2)), 8) == [[0], [1]]
    assert _chunk(list(range(4)), 4) == [[0], [1], [2], [3]]


def test_config_validation():
    with pytest.raises(EvaluationError, match="execution"):
        GQBEConfig(execution="threads")
    with pytest.raises(EvaluationError, match="pool_workers"):
        GQBEConfig(pool_workers=0)
    assert GQBEConfig(execution="pool", pool_workers=4).pool_workers == 4


def test_pool_rss_reporting(systems, tuples):
    """Worker PIDs and RSS are observable (Linux procfs)."""
    pooled = systems["pooled"]
    pooled.query_batch(tuples[:4], k=5)  # ensure workers are spawned
    pool = pooled.worker_pool()
    pids = pool.worker_pids()
    assert len(pids) == POOL_WORKERS
    stats = pool.stats()
    assert stats["workers"] == POOL_WORKERS and stats["snapshot_backed"]
    rss = pool.worker_rss_bytes()
    assert all(size > 0 for size in rss)


class TestServingPoolDispatch:
    def test_server_with_workers_answers_identically(
        self, systems, snapshot, tuples
    ):
        from repro.serving.server import ServingCore

        config = GQBEConfig(**_CONFIG)
        server = ServingCore(
            GQBE.from_snapshot(snapshot, config=config),
            snapshot_path=snapshot,
            cache_size=0,
            workers=POOL_WORKERS,
        )
        try:
            reference = systems["inline"].query(tuples[0], k=5)
            status, body = server.handle_query(
                {"tuple": list(tuples[0]), "k": 5}
            )
            assert status == 200
            assert [tuple(a["entities"]) for a in body["answers"]] == [
                a.entities for a in reference.answers
            ]
            assert [a["score"] for a in body["answers"]] == [
                a.score for a in reference.answers
            ]
            stats = server.stats()
            assert stats["pool"]["workers"] == POOL_WORKERS
            memory = server.memory_stats()
            assert memory["workers"] == POOL_WORKERS
        finally:
            server.close_engine()

    def test_batcher_pool_failure_falls_back(self, systems, tuples):
        """A broken pool degrades to the inline runner, not to errors."""
        from concurrent.futures import ThreadPoolExecutor

        from repro.serving.batching import QueryBatcher

        inline = systems["inline"]
        pool_calls = []
        runner_calls = []

        class _ExplodingPool:
            workers = 2

            def query_batch(self, batch, **kwargs):
                pool_calls.append(list(batch))
                raise RuntimeError("pool is broken")

        def runner(batch, k, k_prime):
            runner_calls.append(list(batch))
            return inline.query_batch(list(batch), k=k, k_prime=k_prime)

        batcher = QueryBatcher(runner, max_batch=8, pool=_ExplodingPool())
        try:
            with ThreadPoolExecutor(max_workers=3) as executor:
                futures = {
                    t: executor.submit(batcher.submit, t, 5, None, 30)
                    for t in tuples[:3]
                }
                results = {t: f.result(timeout=30) for t, f in futures.items()}
            # Every batch, lone queries included, went to the pool first.
            assert sorted(pool_calls) == sorted(runner_calls)
            assert sorted(t for batch in pool_calls for t in batch) == sorted(tuples[:3])
            for t, result in results.items():
                assert answer_key(result) == answer_key(inline.query(t, k=5))
        finally:
            batcher.close()
