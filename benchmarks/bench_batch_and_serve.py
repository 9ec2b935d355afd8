"""Warm starts, the pooled batch and the serve layer (Fig. 14 workload).

* the **snapshot warm start** pair: a manifest-only open (no shard
  maps) and a cold open through the first
  answered query, which maps the vocabulary (string arena), the graph
  (CSR) and the participation statistics and runs its front half on id
  columns;
* the **pooled batch**: the 20 queries of the Fig. 14 workload sharded
  across a snapshot-backed process pool.  The pooled numbers are
  core-count-bound: on a single-core runner the pool pays IPC for no
  parallelism; with N cores the batch parallelizes up to
  min(N, workers)×;
* one steady-state **serve-layer load pass** over HTTP (asyncio
  frontend: admission control + metrics on the request path, engine
  executor, answer cache).  The absolute serve-throughput artifact for CI comes
  from ``gqbe bench-serve`` (see ``.github/workflows/ci.yml``).

Inline sequential / batched query latency is not timed here:
``perfbench/`` measures it end to end (``single_r15``, ``multi_large``,
``serve_mixed``) at scales where the work dominates the noise.
"""

from __future__ import annotations

import pytest

from repro.core.config import GQBEConfig
from repro.core.gqbe import GQBE

#: Process-pool width for the pooled benchmarks.
POOL_WORKERS = 4


@pytest.fixture(scope="module")
def batch_system(harness):
    """A dedicated system + the Fig. 14 query tuples (harness scale)."""
    workload = harness.freebase_workload()
    config = GQBEConfig(
        mqg_size=10, k_prime=25, node_budget=1000, max_join_rows=100_000
    )
    system = GQBE(workload.dataset.graph, config=config)
    tuples = [query.query_tuple for query in workload.queries]
    # Warm the table-level lazy indexes so the serve-layer passes measure
    # steady-state query work, not first-touch index builds.
    for query_tuple in tuples:
        system.query(query_tuple, k=10)
    return system, tuples


@pytest.fixture(scope="module")
def v3_snapshot(batch_system, tmp_path_factory):
    """The Fig. 14 workload graph saved as a snapshot."""
    system, _tuples = batch_system
    directory = tmp_path_factory.mktemp("snapv3") / "workload.snapdir"
    system.graph_store.save(directory)
    return directory


def test_bench_v3_warm_start(v3_snapshot, benchmark):
    """Opening a snapshot: manifest read + system wiring, nothing else.

    The contract being timed: no shard maps, no vocabulary/graph arena
    until a query needs them, and nothing unpickled at all.
    """

    def warm_start():
        system = GQBE.from_snapshot(v3_snapshot)
        return system.graph_store.lazy_report()

    report = benchmark(warm_start)
    assert report["format"] == "v7"
    assert report["tables_opened"] == 0
    assert report["sections_loaded"] == []


def test_bench_v3_warm_start_first_query(v3_snapshot, batch_system, benchmark):
    """Cold open through the first answered query (partial shard load:
    the query's plan probes a few labels, not all 60+)."""
    _system, tuples = batch_system
    config = GQBEConfig(
        mqg_size=10, k_prime=25, node_budget=1000, max_join_rows=100_000
    )

    def open_and_query():
        system = GQBE.from_snapshot(v3_snapshot, config=config)
        result = system.query(tuples[0], k=10)
        return system.graph_store.lazy_report(), result

    report, result = benchmark(open_and_query)
    assert result.answers
    assert 0 < report["tables_opened"] < report["tables_total"]
    assert "vocabulary" in report["sections_loaded"]
    assert "graph" in report["sections_loaded"]


@pytest.fixture(scope="module")
def worker_pool(v3_snapshot, batch_system):
    """A warm snapshot-backed process pool (spawn + shard maps prepaid)."""
    from repro.serving.pool import WorkerPool

    _system, tuples = batch_system
    config = GQBEConfig(
        mqg_size=10, k_prime=25, node_budget=1000, max_join_rows=100_000
    )
    pool = WorkerPool(
        workers=POOL_WORKERS, snapshot_path=v3_snapshot, config=config
    )
    pool.query_batch(tuples, k=10)  # fork workers, map shards, fault pages in
    yield pool
    pool.close()


def test_bench_fig14_pooled_query_batch(worker_pool, batch_system, benchmark):
    """The Fig. 14 batch sharded across the process pool.

    Against the same batch run inline the delta is IPC + result pickling
    vs min(cores, workers)× parallel lattice exploration.
    """
    _system, tuples = batch_system
    results = benchmark(worker_pool.query_batch, tuples, 10)
    assert len(results) == 20 and all(r.answers for r in results)


def test_bench_async_serve_layer_load_pass(batch_system, benchmark):
    """One steady-state, cache-hot HTTP load pass: event loop, admission
    control (gate, metrics, per-stage timers), engine executor, answer
    cache."""
    from repro.serving.async_server import AsyncGQBEServer
    from repro.serving.loadgen import run_load

    system, tuples = batch_system
    server = AsyncGQBEServer(system, port=0, cache_size=256).start()
    try:
        # Warm pass fills the answer cache; the measured pass is the
        # cache-hot serving hot path.
        run_load(server.host, server.port, tuples, k=10, requests=20, concurrency=4)
        report = benchmark(
            run_load,
            server.host,
            server.port,
            tuples,
            10,
            40,
            4,
        )
        assert report["errors"] == 0 and report["completed"] == 40
    finally:
        server.stop()
