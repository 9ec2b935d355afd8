"""Batched multi-query execution and the HTTP serving frontend.

Demonstrates the two layers this repo adds on top of the paper's
single-query engine:

1. :meth:`GQBE.query_batch` — answer many queries in one call, running
   each distinct tuple once (byte-identical to sequential ``query`` calls);
2. :class:`~repro.serving.async_server.AsyncGQBEServer` — the asyncio
   HTTP server with request micro-batching and an LRU answer cache,
   queried here over real sockets.

Run with::

    python examples/batch_and_serve.py
"""

from __future__ import annotations

import http.client
import json
import time

from repro import GQBE, GQBEConfig
from repro.datasets.workloads import build_freebase_workload
from repro.serving.async_server import AsyncGQBEServer


def main() -> None:
    workload = build_freebase_workload(seed=7, scale=0.5)
    graph = workload.dataset.graph
    print(f"Data graph: {graph.num_nodes} nodes, {graph.num_edges} edges")

    config = GQBEConfig(mqg_size=10, k_prime=25, max_join_rows=100_000)
    system = GQBE(graph, config=config)
    tuples = [query.query_tuple for query in workload.queries]

    # --- batched vs sequential (a serving burst: 3 concurrent users) ---
    burst = tuples * 3
    started = time.perf_counter()
    sequential = [system.query(t, k=10) for t in burst]
    sequential_seconds = time.perf_counter() - started

    started = time.perf_counter()
    batched = system.query_batch(burst, k=10)
    batch_seconds = time.perf_counter() - started

    identical = all(
        [a.entities for a in seq.answers] == [a.entities for a in bat.answers]
        for seq, bat in zip(sequential, batched)
    )
    print(
        f"\n{len(burst)} queries: sequential {sequential_seconds * 1000:.1f} ms, "
        f"query_batch {batch_seconds * 1000:.1f} ms "
        f"({sequential_seconds / batch_seconds:.1f}x) — "
        f"answers identical: {identical}"
    )

    # --- the serving frontend over real HTTP ---------------------------
    server = AsyncGQBEServer(system, port=0, cache_size=256).start()
    print(f"\nServing on http://{server.host}:{server.port}")
    connection = http.client.HTTPConnection(server.host, server.port, timeout=30)
    try:
        body = json.dumps({"tuple": list(tuples[0]), "k": 5}).encode()
        for attempt in ("cold", "cached"):
            started = time.perf_counter()
            connection.request(
                "POST",
                "/query",
                body=body,
                headers={"Content-Type": "application/json"},
            )
            response = json.loads(connection.getresponse().read())
            elapsed = (time.perf_counter() - started) * 1000
            top = response["answers"][0]
            print(
                f"  {attempt:6s} request: {elapsed:6.2f} ms  "
                f"cached={response['cached']}  "
                f"top answer: {tuple(top['entities'])} (score {top['score']:.2f})"
            )
        connection.request("GET", "/stats")
        stats = json.loads(connection.getresponse().read())
        print(
            f"  server stats: {stats['requests_served']} served, "
            f"cache hits {stats['cache']['hits']}, "
            f"batches {stats['batcher']['batches_run']}"
        )
    finally:
        connection.close()
        server.stop()


if __name__ == "__main__":
    main()
