"""Process-pool execution must be byte-identical to inline execution.

The acceptance contract of the pooled backend (``serving/pool.py``):
ranked answers — entities, scores, ranks — and their order are identical
across **cold-built inline**, **snapshot-mapped inline** and both kinds of
:class:`WorkerPool` — **snapshot-backed** (workers reopen the snapshot)
and **fork-inherited** (workers inherit a built system) — for batch
sizes 1, 2 and the full 20-query Fig. 14-style workload (mirroring
``tests/test_batch_equivalence.py``).  Also covers duplicate fan-out
through the pool, the serve layer's pooled dispatch, error handling
(including a worker dying inside the fork-pool initializer, which must
fail fast with a clean ``GQBEError`` instead of hanging on the startup
barrier), and the constructor surface.
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
from repro.exceptions import GQBEError
from repro.serving.pool import WorkerPool, _chunk
from repro.storage.snapshot import GraphStore

#: Small pool for CI friendliness; the bench uses >= 4.
POOL_WORKERS = 2

_CONFIG = dict(mqg_size=8, k_prime=20, node_budget=500, max_join_rows=50_000)

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)


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
    """The inline execution variants: cold-built and snapshot-mapped."""
    config = GQBEConfig(**_CONFIG)
    return {
        "inline": GQBE(workload.dataset.graph, config=config),
        "mapped": GQBE.from_snapshot(snapshot, config=config),
    }


@pytest.fixture(scope="module")
def pools(systems, snapshot):
    """Both pool kinds: snapshot-backed, and fork-inherited (where fork
    exists) from the cold-built system."""
    built = {
        "snapshot": WorkerPool(
            workers=POOL_WORKERS,
            snapshot_path=snapshot,
            config=GQBEConfig(**_CONFIG),
        )
    }
    if "fork" in multiprocessing.get_all_start_methods():
        built["fork"] = WorkerPool(workers=POOL_WORKERS, system=systems["inline"])
    yield built
    for pool in built.values():
        pool.close()


def answer_key(result):
    return [
        (a.rank, a.entities, a.score, a.structure_score, a.content_score)
        for a in result.answers
    ]


@pytest.mark.parametrize("batch_size", [1, 2, 20])
def test_format_and_execution_equivalence(systems, pools, tuples, batch_size):
    """Cold-built / snapshot-mapped inline and both pool kinds rank
    byte-identically."""
    batch = tuples[:batch_size]
    assert len(batch) == batch_size
    reference = [answer_key(r) for r in systems["inline"].query_batch(batch, k=5)]
    results = {"mapped": systems["mapped"].query_batch(batch, k=5)}
    for kind, pool in pools.items():
        results[f"{kind} pool"] = pool.query_batch(batch, k=5)
    for name, got in results.items():
        assert [answer_key(r) for r in got] == reference, name


def test_pooled_duplicates_collapse_and_fan_out(systems, pools, tuples):
    batch = [tuples[0], tuples[1], tuples[0], tuples[2], tuples[0]]
    results = pools["snapshot"].query_batch(batch, k=5)
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


@needs_fork
def test_fork_inherited_pool_matches(systems, pools, tuples):
    """A pool without a snapshot inherits the system through fork: it
    replays nothing and answers like the system it forked from."""
    pool = pools["fork"]
    stats = pool.stats()
    assert not stats["snapshot_backed"] and stats["delta_replayed"] == 0
    assert len(pool.worker_pids()) == POOL_WORKERS  # forked eagerly
    results = pool.query_batch(tuples[:4], k=5)
    reference = systems["inline"].query_batch(tuples[:4], k=5)
    assert [answer_key(r) for r in results] == [answer_key(r) for r in reference]


def test_pool_propagates_engine_errors(pools):
    with pytest.raises(GQBEError):
        pools["snapshot"].query_batch(
            [("F0", "C0"), ("no-such-entity", "nowhere")], k=3
        )


def test_worker_pool_requires_source():
    with pytest.raises(GQBEError, match="snapshot_path or a system"):
        WorkerPool(workers=2)


def test_worker_pool_requires_a_worker_count(snapshot):
    """The width is the owner's decision: there is no default to fall
    back on, and it must be positive."""
    with pytest.raises(TypeError):
        WorkerPool(snapshot_path=snapshot)
    with pytest.raises(GQBEError, match="workers must be >= 1"):
        WorkerPool(workers=0, snapshot_path=snapshot)


def _exit_first_worker(flag) -> None:
    """Init hook killing exactly one worker mid-initialization."""
    with flag.get_lock():
        first = flag.value == 0
        if first:
            flag.value = 1
    if first:
        os._exit(1)


@needs_fork
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


def test_pool_rss_reporting(pools, tuples):
    """Worker PIDs and RSS are observable (Linux procfs)."""
    pool = pools["snapshot"]
    pool.query_batch(tuples[:4], k=5)  # ensure workers are spawned
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
