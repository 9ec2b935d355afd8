"""The serving engine behind the HTTP frontend: cache, engine, pool, reload.

:class:`ServingCore` owns everything about serving GQBE queries from one
warm snapshot that is not a socket: every ``/query`` engine call, single-
or multi-tuple, is one task on the core's engine executor (a thread pool
of one thread inline, one per pool worker up to the CPU count), a
generation-guarded :class:`~repro.serving.cache.AnswerCache` short-cuts
repeat queries entirely, and snapshot reloads, live ingest and
compaction swap the engine under one lock order.  The transport —
:class:`~repro.serving.async_server.AsyncGQBEServer`, which ``gqbe serve
--snapshot data.snap`` wires up — subclasses it and maps these routes
onto its methods:

``POST /query``
    Body ``{"tuple": ["Jerry Yang", "Yahoo!"], "k": 10}`` for a
    single-tuple query, or ``{"tuples": [[...], [...]], ...}`` for a
    multi-tuple (merged-MQG) query; optional ``k_prime``.  Responds with
    the ranked answers, timing, and whether the answer came from cache.
``GET /healthz``
    Liveness plus snapshot metadata (cheap: never materializes lazy
    snapshot sections).
``GET /stats``
    Serve counters: cache hits/misses, engine calls, request totals.
``POST /admin/reload``
    Body ``{"snapshot": "path"}`` — load a new snapshot, swap it in and
    invalidate the answer cache (in-flight computations against the old
    snapshot can no longer be cached; see
    :mod:`repro.serving.cache`).
``POST /admin/ingest``
    Body ``{"triples": [["s", "label", "o"], ...]}`` — apply new edges
    to the live graph as an in-memory delta overlay; queries see the
    union immediately (the answer cache is invalidated, so no response
    after the ack describes the pre-ingest graph).  The delta is
    volatile until compacted.
``POST /admin/compact``
    Fold (base snapshot + delta) into a fresh on-disk generation next to
    the base (``<snapshot>.genN``) and swap it in — the LSM-style
    flush.  ``--compact-threshold`` triggers the same fold automatically
    in the background once the delta grows past it.
"""

from __future__ import annotations

import logging
import os
import shutil
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from os import PathLike

from repro.core.answer import QueryResult
from repro.core.gqbe import GQBE
from repro.exceptions import GQBEError, GraphError
from repro.serving.cache import AnswerCache
from repro.storage.generations import next_generation_path, prune_generations
from repro.storage.ingest import normalize_triples

logger = logging.getLogger("repro.serving")

#: Default cap on ``POST`` request bodies.  Query payloads are a few
#: hundred bytes; anything near the cap is abuse or a bug, and an
#: unbounded ``Content-Length`` would let one request allocate arbitrary
#: memory.
DEFAULT_MAX_BODY_BYTES = 4 * 1024 * 1024


def _result_payload(result: QueryResult) -> dict:
    """The JSON-serializable body describing one query result."""
    return {
        "answers": [
            {
                "rank": answer.rank,
                "entities": list(answer.entities),
                "score": answer.score,
                "structure_score": answer.structure_score,
                "content_score": answer.content_score,
            }
            for answer in result.answers
        ],
        "mqg_edges": result.mqg.num_edges,
        "nodes_evaluated": result.statistics.nodes_evaluated,
        "nodes_skipped": result.statistics.nodes_skipped,
        "peak_retained_rows": result.statistics.peak_retained_rows,
        "timing": {
            "discovery_seconds": result.discovery_seconds,
            "processing_seconds": result.processing_seconds,
            "total_seconds": result.total_seconds,
        },
    }


class ServingCore:
    """The transport-agnostic serving engine: cache, engine, pool, reload.

    :class:`~repro.serving.async_server.AsyncGQBEServer` is the HTTP
    transport over this core; :meth:`handle_query` and friends are
    plain methods so tests and probes can drive the serving semantics
    without a socket.

    Parameters
    ----------
    system:
        The (already built or snapshot-loaded) engine to serve.
    snapshot_path:
        Recorded for ``/healthz`` and reload bookkeeping (optional).
    cache_size:
        LRU answer-cache capacity (``0`` disables caching).
    cache_ttl_seconds:
        TTL for answer-cache entries (``None`` keeps pure LRU).
    request_timeout:
        Per-request cap on an engine call, from submit to its answer
        (queue wait plus execution); past it the request is answered
        ``503`` and its call, if it has not started, never runs.
    max_body_bytes:
        Cap on ``POST`` request bodies.  A larger declared
        ``Content-Length`` is refused with ``413`` before any byte of
        the body is read; a malformed ``Content-Length`` is a ``400``.
    workers:
        Process-pool width for query execution (``gqbe serve
        --workers``).  With ``workers > 1`` the core builds and owns a
        :class:`~repro.serving.pool.WorkerPool` and every single-tuple
        query runs on it, up to ``min(workers, CPUs)`` at once,
        bypassing the GIL for CPU-bound explorations.  Its workers
        reopen the served snapshot (shared mapped pages) and replay the
        ingested delta, or, when no snapshot is served, are forked from
        the system; every ingest and reload rebuilds the pool.  ``1`` keeps the inline
        single-process path.
    compact_threshold:
        Trigger a background compaction once the in-memory delta holds
        at least this many edges (``gqbe serve --compact-threshold``).
        ``None`` (the default) leaves compaction to explicit
        ``POST /admin/compact`` calls.
    """

    def __init__(
        self,
        system: GQBE,
        snapshot_path: str | PathLike | None = None,
        cache_size: int = 1024,
        request_timeout: float = 60.0,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        workers: int = 1,
        cache_ttl_seconds: float | None = None,
        compact_threshold: int | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_body_bytes < 1:
            raise ValueError(f"max_body_bytes must be >= 1, got {max_body_bytes}")
        if compact_threshold is not None and compact_threshold < 1:
            raise ValueError(
                f"compact_threshold must be >= 1, got {compact_threshold}"
            )
        self._system = system
        self.snapshot_path = str(snapshot_path) if snapshot_path is not None else None
        self.request_timeout = request_timeout
        self.max_body_bytes = max_body_bytes
        self.workers = workers
        self.compact_threshold = compact_threshold
        self._exec_lock = threading.Lock()
        # Mutations (ingest, compaction, reload) serialize on this outer
        # lock; each briefly takes ``_exec_lock`` inside it for the
        # actual swap.  Lock order is always mutate -> exec, never the
        # reverse — query execution takes only ``_exec_lock``.
        self._mutate_lock = threading.Lock()
        self._cache = AnswerCache(cache_size, ttl_seconds=cache_ttl_seconds)
        self._pool = self._make_pool()
        # The engine executor: every /query engine call is one task on
        # it.  Inline one thread (queries serialize on _exec_lock); with
        # a pool one per worker up to the CPU count (more would only
        # time-share cores).
        self._engine = ThreadPoolExecutor(
            max_workers=min(workers, os.cpu_count() or 1),
            thread_name_prefix="gqbe-engine",
        )
        self._started_at = time.monotonic()
        # Executor threads are concurrent; counter updates take this lock
        # (a bare += is a lost-update race across threads).
        self._counter_lock = threading.Lock()
        self.requests_served = 0
        self.request_errors = 0
        self.internal_errors = 0
        self.ingest_requests = 0
        self.triples_applied = 0
        self.triples_duplicate = 0
        self.compactions = 0
        self.engine_calls = 0
        self.pooled_calls = 0
        self._compact_thread: threading.Thread | None = None

    def _count(self, counter: str) -> None:
        with self._counter_lock:
            setattr(self, counter, getattr(self, counter) + 1)

    def note_internal_error(self, path: str, error: BaseException) -> None:
        """Record an unhandled handler exception: log it server-side only.

        The client gets an opaque 500 body — exception types/messages can
        leak internals (paths, snapshot layout, library versions) and are
        of no use to a well-behaved client.  ``/stats`` carries the count.
        """
        logger.error(
            "unhandled error serving POST %s", path, exc_info=error
        )
        self._count("internal_errors")
        self._count("request_errors")

    def _make_pool(self):
        """Build the worker pool for the current system (None if workers=1)."""
        if self.workers <= 1:
            return None
        from repro.serving.pool import WorkerPool

        return WorkerPool(
            workers=self.workers,
            snapshot_path=self.snapshot_path,
            system=self._system if self.snapshot_path is None else None,
            config=self._system.config,
            # Spawned workers reopen the snapshot from disk, which lacks
            # any live delta — they replay it at init so pooled answers
            # match the parent's (base + delta) union exactly.
            delta_triples=(
                self._system.pending_delta or None
                if self.snapshot_path is not None
                else None
            ),
        )

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_snapshot(cls, path: str | PathLike, **kwargs):
        """Build a server around :meth:`GQBE.from_snapshot`."""
        return cls(GQBE.from_snapshot(path), snapshot_path=path, **kwargs)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def system(self) -> GQBE:
        """The engine currently serving queries."""
        return self._system

    def close_engine(self) -> None:
        """Shut the engine executor and the pool down (the transport
        calls this from its own ``stop``).  Queued engine calls are
        cancelled and later submissions raise ``RuntimeError``."""
        self._engine.shutdown(wait=False, cancel_futures=True)
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    # ------------------------------------------------------------------
    # snapshot reloads
    # ------------------------------------------------------------------
    def load_snapshot(self, path: str | PathLike) -> int:
        """Swap in a new snapshot; returns the new cache generation.

        The swap holds the execution lock, so it serializes against any
        running inline query; requests computed against the old
        snapshot can no longer enter the cache because their recorded
        generation is outdated after :meth:`AnswerCache.invalidate`.
        Any live delta overlay is discarded: a reload is an explicit
        statement that ``path`` is the truth.
        """
        with self._mutate_lock:
            return self._load_snapshot_locked(path)

    def _load_snapshot_locked(self, path: str | PathLike) -> int:
        """:meth:`load_snapshot` body; caller holds ``_mutate_lock``."""
        # The running config survives the reload (mqg_size, node_budget,
        # max_join_rows, ... are the operator's, not the snapshot's).
        system = GQBE.from_snapshot(path, config=self._system.config)
        old_pool = None
        with self._exec_lock:
            self._system = system
            self.snapshot_path = str(path)
            if self.workers > 1:
                # Rebuild the pool over the new snapshot, under the same
                # lock as the system swap so two concurrent reloads
                # cannot interleave (one would close the pool the other
                # just installed and leak its own).
                old_pool = self._pool
                self._pool = self._make_pool()
        if old_pool is not None:
            # Closed outside the lock: shutdown waits for in-flight
            # pooled queries to drain (their results are dropped by the
            # cache's generation guard, same as inline in-flight work).
            old_pool.close()
        return self._cache.invalidate()

    # ------------------------------------------------------------------
    # live ingest + compaction
    # ------------------------------------------------------------------
    @staticmethod
    def _parse_ingest_payload(payload) -> list[tuple[str, str, str]]:
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        raw = payload.get("triples")
        if not isinstance(raw, list) or not raw:
            raise ValueError(
                '"triples" must be a non-empty list of '
                "[subject, label, object] triples"
            )
        try:
            return normalize_triples(raw)
        except GraphError as error:
            raise ValueError(str(error)) from error

    def handle_ingest(self, payload) -> tuple[int, dict]:
        """Apply one ``POST /admin/ingest`` body; returns ``(status, body)``.

        The triples land in the engine's in-memory delta overlay under
        the execution lock, so no inline query runs against a
        half-applied state; the answer cache is invalidated afterwards,
        so every response sent after this ack reflects the new edges.
        """
        try:
            triples = self._parse_ingest_payload(payload)
        except ValueError as error:
            self._count("request_errors")
            return 400, {"error": str(error)}
        self._count("ingest_requests")
        old_pool = None
        with self._mutate_lock:
            with self._exec_lock:
                try:
                    result = self._system.ingest(triples)
                except GQBEError as error:
                    self._count("request_errors")
                    return 400, {"error": str(error), "type": type(error).__name__}
                if result["applied"] and self.workers > 1:
                    # Pool workers hold pre-ingest state; rebuild them
                    # with the updated delta replay, under the same lock
                    # as the mutation (mirrors load_snapshot).
                    old_pool = self._pool
                    self._pool = self._make_pool()
            if old_pool is not None:
                old_pool.close()
            generation = (
                self._cache.invalidate()
                if result["applied"]
                else self._cache.generation
            )
        with self._counter_lock:
            self.triples_applied += result["applied"]
            self.triples_duplicate += result["duplicates"]
        compacting = self._maybe_start_compaction(result["delta_edges"])
        return 200, {
            "ingested": True,
            "applied": result["applied"],
            "duplicates": result["duplicates"],
            "delta_edges": result["delta_edges"],
            "generation": generation,
            "compacting": compacting,
        }

    def compact(self) -> dict:
        """Fold (base + delta) into a fresh snapshot generation and swap it in.

        The new generation is written to ``<target>.tmp`` and moved into
        place with one atomic ``os.replace`` — a crash mid-write leaves
        only ``.tmp`` wreckage, which
        :func:`~repro.storage.generations.resolve_latest_generation`
        sweeps on the next start.  After the swap the two newest
        generations are kept and older ones pruned (never the root).
        """
        if self.snapshot_path is None:
            raise GQBEError(
                "compaction requires a snapshot-backed server "
                "(started from --snapshot)"
            )
        with self._mutate_lock:
            graph_store = self._system.graph_store
            delta_edges = len(graph_store.delta_triples)
            target = next_generation_path(self.snapshot_path)
            tmp = target.with_name(target.name + ".tmp")
            try:
                # Held across the save so no query can trigger lazy
                # section materialization while the writer iterates the
                # store (writes still serialize via _mutate_lock).
                with self._exec_lock:
                    graph_store.save(tmp)
            # gqbe: ignore[EXC001] -- cleanup-and-reraise: whatever
            # interrupted the save (including KeyboardInterrupt), the
            # half-written tmp dir must not survive to be mistaken for
            # a generation; the exception itself propagates unchanged.
            except BaseException:
                shutil.rmtree(tmp, ignore_errors=True)
                raise
            os.replace(tmp, target)
            # Counted before the swap publishes the new path (``/healthz``
            # reads it without a lock): whoever sees the new generation
            # also sees it counted.
            self._count("compactions")
            self._note_compaction()
            generation = self._load_snapshot_locked(target)
            prune_generations(target, keep=2)
        return {
            "compacted": True,
            "snapshot": str(target),
            "generation": generation,
            "delta_edges": delta_edges,
        }

    def handle_compact(self) -> tuple[int, dict]:
        """Run :meth:`compact` for ``POST /admin/compact``."""
        try:
            return 200, self.compact()
        except GQBEError as error:
            self._count("request_errors")
            return 400, {"error": str(error), "type": type(error).__name__}

    def _note_compaction(self) -> None:
        """Hook for the transport to observe compactions (metrics); called
        with the new generation on disk, just before it is swapped in."""

    def _observe_engine_call(
        self, queue_seconds: float, execute_seconds: float
    ) -> None:
        """Hook for the transport to observe each engine call, inline or
        pooled: seconds from submit to its start, and its own seconds.
        Called on the engine thread before the caller is woken; an
        exception it raises reaches that caller like an engine error."""

    def _maybe_start_compaction(self, delta_edges: int) -> bool:
        """Kick off a background compaction when the delta is big enough.

        Returns whether a compaction is running (just started or already
        in flight); at most one background compaction exists at a time.
        """
        if (
            self.compact_threshold is None
            or self.snapshot_path is None
            or delta_edges < self.compact_threshold
        ):
            return False
        with self._counter_lock:
            if self._compact_thread is not None and self._compact_thread.is_alive():
                return True
            thread = threading.Thread(
                target=self._background_compact, name="gqbe-compact", daemon=True
            )
            self._compact_thread = thread
        thread.start()
        return True

    def _background_compact(self) -> None:
        try:
            self.compact()
        # gqbe: ignore[EXC001] -- a failed background compaction must
        # not take the serving process down; the delta stays live and
        # queryable, and a later ingest retries the flush.
        except Exception:  # noqa: BLE001
            logger.exception("background compaction failed")

    # ------------------------------------------------------------------
    # query execution
    # ------------------------------------------------------------------
    def _submit_query(self, tuples, k: int, k_prime: int | None) -> Future:
        """Queue one ``/query`` engine call; its future holds the result.

        A caller that stops waiting cancels the future, so a call that
        has not started never runs (one already running finishes and is
        discarded).
        """
        return self._engine.submit(
            self._run_query, tuples, k, k_prime, time.monotonic()
        )

    def _run_query(self, tuples, k: int, k_prime: int | None, submitted: float):
        """One ``/query`` engine call, on an engine thread.

        A single tuple runs on the pool when there is one; a pool failure
        of any kind (broken worker, engine error) falls back to inline,
        which raises the engine's own error.  Inline is ``query`` or
        ``query_multi`` under the execution lock.
        """
        started = time.monotonic()
        pooled = False
        try:
            pool = self._pool
            if pool is not None and len(tuples) == 1:
                try:
                    result = pool.query_batch(tuples, k=k, k_prime=k_prime)[0]
                    pooled = True
                # gqbe: ignore[EXC001] -- deliberate degrade path: any pool
                # failure (broken worker, pickling error, engine fault)
                # falls back to inline, which raises the engine's own error.
                except Exception:  # noqa: BLE001 - degrade to inline
                    pass
            if not pooled:
                with self._exec_lock:
                    # Read the system inside the lock: a snapshot reload
                    # swaps it under the same lock, so a query never
                    # computes against the pre-reload engine after the
                    # reload was acknowledged.
                    system = self._system
                    if len(tuples) == 1:
                        result = system.query(tuples[0], k=k, k_prime=k_prime)
                    else:
                        result = system.query_multi(
                            [list(t) for t in tuples], k=k, k_prime=k_prime
                        )
        finally:
            with self._counter_lock:
                self.engine_calls += 1
                self.pooled_calls += pooled
            self._observe_engine_call(started - submitted, time.monotonic() - started)
        return result

    @staticmethod
    def _parse_query_payload(payload) -> tuple[tuple[tuple[str, ...], ...], int, int | None]:
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        if ("tuple" in payload) == ("tuples" in payload):
            raise ValueError('pass exactly one of "tuple" or "tuples"')
        raw = [payload["tuple"]] if "tuple" in payload else payload["tuples"]
        if not isinstance(raw, list) or not raw:
            raise ValueError('"tuples" must be a non-empty list of entity tuples')
        tuples = []
        for entry in raw:
            if (
                not isinstance(entry, list)
                or not entry
                or not all(isinstance(item, str) for item in entry)
            ):
                raise ValueError(
                    "each query tuple must be a non-empty list of entity strings"
                )
            tuples.append(tuple(entry))
        k = payload.get("k", 10)
        k_prime = payload.get("k_prime")
        # bool is an int subclass: JSON true/false are not counts.
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ValueError(f'"k" must be a positive integer, got {k!r}')
        if k_prime is not None and (
            not isinstance(k_prime, int) or isinstance(k_prime, bool) or k_prime < 1
        ):
            raise ValueError(f'"k_prime" must be a positive integer, got {k_prime!r}')
        return tuple(tuples), k, k_prime

    def _cached_answer(self, key) -> dict | None:
        """The cached ``/query`` body for ``key`` (counted as served), or None."""
        cached = self._cache.get(key)
        if cached is None:
            return None
        self._count("requests_served")
        return {**cached, "cached": True}

    def _fresh_answer(self, key, generation: int, result: QueryResult) -> dict:
        """The ``/query`` body for a computed result, put in the cache.

        ``generation`` is the one read before the engine call: if a
        reload landed meanwhile, the answer describes the old graph and
        the cache drops the put.
        """
        tuples, k, k_prime = key
        body = {
            "query": [list(t) for t in tuples],
            "k": k,
            "k_prime": k_prime,
            "generation": generation,
            **_result_payload(result),
        }
        self._cache.put(key, body, generation)
        self._count("requests_served")
        return {**body, "cached": False}

    def handle_query(self, payload) -> tuple[int, dict]:
        """Answer one ``POST /query`` body; returns ``(status, response)``.

        Exposed as a method so tests can exercise request handling
        without sockets.
        """
        try:
            key = self._parse_query_payload(payload)
        except ValueError as error:
            self._count("request_errors")
            return 400, {"error": str(error)}
        cached = self._cached_answer(key)
        if cached is not None:
            return 200, cached
        generation = self._cache.generation
        future = self._submit_query(*key)
        try:
            result = future.result(timeout=self.request_timeout)
        except GQBEError as error:
            self._count("request_errors")
            return 400, {"error": str(error), "type": type(error).__name__}
        except TimeoutError:
            future.cancel()
            self._count("request_errors")
            return 503, {"error": f"query timed out after {self.request_timeout}s"}
        return 200, self._fresh_answer(key, generation, result)

    # ------------------------------------------------------------------
    # info endpoints
    # ------------------------------------------------------------------
    def healthz(self) -> dict:
        """The ``/healthz`` body (cheap; no lazy sections materialized)."""
        meta = self._system.graph_store.meta()
        return {
            "status": "ok",
            "snapshot": self.snapshot_path,
            "generation": self._cache.generation,
            "delta_edges": len(self._system.pending_delta),
            "graph": {
                "nodes": meta.get("num_nodes"),
                "edges": meta.get("num_edges"),
                "labels": meta.get("num_labels"),
            },
        }

    def stats(self) -> dict:
        """The ``/stats`` body."""
        body = {
            "uptime_seconds": time.monotonic() - self._started_at,
            "requests_served": self.requests_served,
            "request_errors": self.request_errors,
            "internal_errors": self.internal_errors,
            "cache": self._cache.stats(),
            # Kept for perfbench, which reads batches_run and
            # mean_batch_size; every engine call is one query.
            "batcher": {
                "batches_run": self.engine_calls,
                "queries_batched": self.engine_calls,
                "mean_batch_size": 1.0 if self.engine_calls else 0.0,
                "pooled_batches": self.pooled_calls,
            },
            "ingest": {
                "requests": self.ingest_requests,
                "triples_applied": self.triples_applied,
                "triples_duplicate": self.triples_duplicate,
                "delta_edges": len(self._system.pending_delta),
                "compactions": self.compactions,
                "compact_threshold": self.compact_threshold,
            },
        }
        if self._pool is not None:
            body["pool"] = self._pool.stats()
        return body

    def memory_stats(self) -> dict:
        """Parent and per-worker RSS (Linux procfs; best-effort elsewhere).

        ``gqbe bench-serve --json`` records this next to the throughput
        numbers: over a mapped snapshot the per-worker RSS stays
        nearly flat as ``--workers`` grows, because the shard pages are
        shared, not copied.  The ``peak`` fields are ``VmHWM`` —
        high-water marks, immune to pages being reclaimed before
        sampling.
        """
        from repro.serving.pool import (
            interpreter_floor_rss_bytes,
            parent_peak_rss_bytes,
            parent_rss_bytes,
        )

        worker_rss = (
            self._pool.worker_rss_bytes() if self._pool is not None else []
        )
        worker_peak = (
            self._pool.worker_peak_rss_bytes() if self._pool is not None else []
        )
        # The interpreter+numpy floor turns absolute worker RSS into the
        # *incremental* cost of serving this graph — the figure the
        # mapped snapshot shards drive toward zero.  Only measured when
        # there are workers to compare.
        floor = interpreter_floor_rss_bytes() if worker_rss else None
        incremental = (
            [max(0, rss - floor) for rss in worker_rss] if floor else []
        )
        return {
            "workers": self.workers,
            "parent_rss_bytes": parent_rss_bytes(),
            "parent_peak_rss_bytes": parent_peak_rss_bytes(),
            "worker_rss_bytes": worker_rss,
            "worker_peak_rss_bytes": worker_peak,
            "total_worker_rss_bytes": sum(worker_rss),
            "total_worker_peak_rss_bytes": sum(worker_peak),
            "interpreter_floor_rss_bytes": floor,
            "worker_incremental_rss_bytes": incremental,
            "total_worker_incremental_rss_bytes": sum(incremental),
        }
