"""Long-lived serving frontend: one warm snapshot, many concurrent queries.

The paper's system answers one query at a time from a Python process; the
north star is serving heavy traffic.  This package adds the missing layer:

* :class:`~repro.serving.cache.AnswerCache` — a thread-safe LRU of
  serialized answers keyed on the canonicalized query, with
  generation-based invalidation so a snapshot reload can never serve a
  stale answer, and an optional per-entry time-to-live;
* :class:`~repro.serving.server.ServingCore` — the transport-agnostic
  engine (cache + engine executor + pool + reload + ingest +
  compaction): every ``/query`` engine call is one task on its engine
  executor, one thread inline or one per pool worker up to the CPU
  count;
* :class:`~repro.serving.async_server.AsyncGQBEServer` — the asyncio
  HTTP frontend over it: admission control (bounded in-flight queue,
  per-client token-bucket rate limits, request deadlines) and a
  Prometheus-text ``GET /metrics`` endpoint on top of the core's
  ``POST /query``, ``GET /healthz``, ``GET /stats`` and
  ``POST /admin/reload``;
* :class:`~repro.serving.pool.WorkerPool` — a process pool of N workers,
  each holding the same memory-mapped snapshot open, that answers
  single-tuple queries (or shards a ``query_batch`` across them)
  bypassing the GIL for CPU-bound explorations; the core builds it for
  ``gqbe serve --workers N`` and is its only owner;
* :mod:`~repro.serving.loadgen` — the ``gqbe bench-serve`` load driver
  (closed-loop capacity and open-loop overload arrivals) that measures
  serve throughput, latency percentiles and shed behavior.

Start a server from the CLI (``gqbe serve --snapshot data.snap``) or
programmatically::

    from repro.serving.async_server import AsyncGQBEServer

    server = AsyncGQBEServer.from_snapshot("data.snap", port=0)
    server.start()
    print("listening on", server.port)
    ...
    server.stop()
"""

from repro.serving.cache import AnswerCache
from repro.serving.pool import WorkerPool
from repro.serving.server import ServingCore

__all__ = [
    "AnswerCache",
    "ServingCore",
    "WorkerPool",
]
