"""Threaded HTTP frontend serving GQBE queries from one warm snapshot.

``gqbe serve --snapshot data.snap`` wires this up from the CLI; tests and
the ``bench-serve`` load driver embed :class:`GQBEServer` directly.  The
server is deliberately stdlib-only (``http.server``): one daemon thread
runs a ``ThreadingHTTPServer`` (a handler thread per connection), handler
threads funnel single-tuple queries through the shared
:class:`~repro.serving.batching.QueryBatcher` (so concurrent requests
are executed as one :meth:`~repro.core.gqbe.GQBE.query_batch`), and a
generation-guarded :class:`~repro.serving.cache.AnswerCache` short-cuts
repeat queries entirely.

Endpoints
---------
``POST /query``
    Body ``{"tuple": ["Jerry Yang", "Yahoo!"], "k": 10}`` for a
    single-tuple query, or ``{"tuples": [[...], [...]], ...}`` for a
    multi-tuple (merged-MQG) query; optional ``k_prime``.  Responds with
    the ranked answers, timing, and whether the answer came from cache.
``GET /healthz``
    Liveness plus snapshot metadata (cheap: never materializes lazy
    snapshot sections).
``GET /stats``
    Serve counters: cache hits/misses, batch sizes, request totals.
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

import json
import logging
import os
import shutil
import threading
import time
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from os import PathLike

from repro.core.answer import QueryResult
from repro.core.gqbe import GQBE
from repro.exceptions import GQBEError
from repro.serving.batching import QueryBatcher
from repro.serving.cache import AnswerCache
from repro.storage.generations import next_generation_path, prune_generations
from repro.storage.snapshot import GraphStore

logger = logging.getLogger("repro.serving")

#: Default cap on ``POST`` request bodies.  Query payloads are a few
#: hundred bytes; anything near the cap is abuse or a bug, and an
#: unbounded ``Content-Length`` would let one request allocate arbitrary
#: memory.
DEFAULT_MAX_BODY_BYTES = 4 * 1024 * 1024


class _RequestBodyError(Exception):
    """A request body that must be rejected before reading/parsing it."""

    def __init__(self, status: int, message: str) -> None:
        self.status = status
        self.message = message
        super().__init__(message)


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
        "timing": {
            "discovery_seconds": result.discovery_seconds,
            "processing_seconds": result.processing_seconds,
            "total_seconds": result.total_seconds,
        },
    }


class ServingCore:
    """The frontend-agnostic serving engine: cache, batcher, pool, reload.

    Both HTTP frontends — the threaded :class:`GQBEServer` below and the
    asyncio :class:`~repro.serving.async_server.AsyncGQBEServer` — are
    thin transports over this core, so answers, caching semantics and
    reload behavior are identical regardless of which frontend accepted
    the connection.

    Parameters
    ----------
    system:
        The (already built or snapshot-loaded) engine to serve.
    snapshot_path:
        Recorded for ``/healthz`` and reload bookkeeping (optional).
    batch_window_seconds / max_batch:
        Micro-batching knobs (see :class:`~repro.serving.batching.QueryBatcher`).
    cache_size:
        LRU answer-cache capacity (``0`` disables caching).
    request_timeout:
        Per-request cap on waiting for a batch slot plus execution.
    max_body_bytes:
        Cap on ``POST`` request bodies.  A larger declared
        ``Content-Length`` is refused with ``413`` before any byte of
        the body is read; a malformed ``Content-Length`` is a ``400``.
    workers:
        Process-pool width for batch execution (``gqbe serve
        --workers``).  With ``workers > 1`` every multi-query batching
        window is sharded across a
        :class:`~repro.serving.pool.WorkerPool` whose workers each open
        the served snapshot (shared mapped pages with a v2 snapshot),
        bypassing the GIL for CPU-bound explorations; ``1`` keeps the
        inline single-process path.
    cache:
        An :class:`~repro.serving.cache.AnswerCache` instance to use
        instead of constructing one from ``cache_size`` — the async
        frontend passes a :class:`~repro.serving.limits.TTLAnswerCache`
        here.
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
        batch_window_seconds: float = 0.005,
        max_batch: int = 64,
        cache_size: int = 1024,
        request_timeout: float = 60.0,
        max_body_bytes: int = DEFAULT_MAX_BODY_BYTES,
        workers: int = 1,
        cache: AnswerCache | None = None,
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
        self._cache = cache if cache is not None else AnswerCache(cache_size)
        self._pool = self._make_pool()
        self._batcher = QueryBatcher(
            self._run_batch,
            window_seconds=batch_window_seconds,
            max_batch=max_batch,
            pool=self._pool,
        )
        self._started_at = time.monotonic()
        # Handler threads are concurrent; counter updates take this lock
        # (a bare += is a lost-update race across threads).
        self._counter_lock = threading.Lock()
        self.requests_served = 0
        self.request_errors = 0
        self.internal_errors = 0
        self.ingest_requests = 0
        self.triples_applied = 0
        self.triples_duplicate = 0
        self.compactions = 0
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
            config=replace(self._system.config, execution="inline"),
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
        """Shut the batching worker and the pool down (frontends call
        this from their own ``stop``)."""
        self._batcher.close()
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    # ------------------------------------------------------------------
    # snapshot reloads
    # ------------------------------------------------------------------
    def load_snapshot(self, path: str | PathLike) -> int:
        """Swap in a new snapshot; returns the new cache generation.

        The swap holds the execution lock, so it serializes against any
        running batch; requests computed against the old snapshot can no
        longer enter the cache because their recorded generation is
        outdated after :meth:`AnswerCache.invalidate`.  Any live delta
        overlay is discarded: a reload is an explicit statement that
        ``path`` is the truth.
        """
        with self._mutate_lock:
            return self._load_snapshot_locked(path)

    def _load_snapshot_locked(self, path: str | PathLike) -> int:
        """:meth:`load_snapshot` body; caller holds ``_mutate_lock``."""
        graph_store = GraphStore.load(path)
        # The running config survives the reload (mqg_size, node_budget,
        # max_join_rows, ... are the operator's, not the snapshot's); only
        # the engine flags a snapshot is built with follow the new one.
        config = replace(
            self._system.config,
            intern_entities=graph_store.intern_entities,
            columnar=graph_store.columnar,
        )
        system = GQBE(config=config, graph_store=graph_store)
        system._snapshot_path = str(path)
        old_pool = None
        with self._exec_lock:
            self._system = system
            self.snapshot_path = str(path)
            if self.workers > 1:
                # Rebuild the pool over the new snapshot, under the same
                # lock as the system swap so two concurrent reloads
                # cannot interleave (one would wire a just-closed pool
                # into the batcher and leak the other).
                old_pool = self._pool
                self._pool = self._make_pool()
                self._batcher.pool = self._pool
        if old_pool is not None:
            # Closed outside the lock: shutdown waits for in-flight
            # pooled batches to drain (their results are dropped by the
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
        triples: list[tuple[str, str, str]] = []
        for position, entry in enumerate(raw):
            if (
                not isinstance(entry, list)
                or len(entry) != 3
                or not all(isinstance(item, str) and item for item in entry)
            ):
                raise ValueError(
                    f"triple #{position} must be a [subject, label, object] "
                    "list of non-empty strings"
                )
            triples.append((entry[0], entry[1], entry[2]))
        return triples

    def handle_ingest(self, payload) -> tuple[int, dict]:
        """Apply one ``POST /admin/ingest`` body; returns ``(status, body)``.

        The triples land in the engine's in-memory delta overlay under
        the execution lock, so no query batch runs against a
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
                    self._batcher.pool = self._pool
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
            # The compacted generation keeps the store's own layout: a
            # columnar+interned store flushes to a v3 directory even if
            # the base was a v1 file (load auto-detects either).
            fmt = (
                "v3"
                if graph_store.columnar and graph_store.intern_entities
                else "v1"
            )
            try:
                # Held across the save so no query can trigger lazy
                # section materialization while the writer iterates the
                # store (writes still serialize via _mutate_lock).
                with self._exec_lock:
                    graph_store.save(tmp, format=fmt)
            # gqbe: ignore[EXC001] -- cleanup-and-reraise: whatever
            # interrupted the save (including KeyboardInterrupt), the
            # half-written tmp dir must not survive to be mistaken for
            # a generation; the exception itself propagates unchanged.
            except BaseException:
                if tmp.is_dir():
                    shutil.rmtree(tmp, ignore_errors=True)
                elif tmp.exists():
                    tmp.unlink()
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
            "format": fmt,
        }

    def handle_compact(self) -> tuple[int, dict]:
        """Run :meth:`compact` for ``POST /admin/compact``."""
        try:
            return 200, self.compact()
        except GQBEError as error:
            self._count("request_errors")
            return 400, {"error": str(error), "type": type(error).__name__}

    def _note_compaction(self) -> None:
        """Hook for frontends to observe compactions (metrics); called with
        the new generation on disk, just before it is swapped in."""

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
    def _run_batch(self, tuples, k, k_prime):
        """Batcher runner: one ``query_batch`` under the execution lock.

        Falls back to per-query execution when the batch raises (e.g. one
        tuple references an unknown entity) so each caller receives its
        own result or its own error.
        """
        with self._exec_lock:
            # Read the system inside the lock: a snapshot reload swaps it
            # under the same lock, so a batch never computes against the
            # pre-reload engine after the reload was acknowledged.
            system = self._system
            try:
                return system.query_batch(list(tuples), k=k, k_prime=k_prime)
            except GQBEError:
                results: list[QueryResult | BaseException] = []
                for query_tuple in tuples:
                    try:
                        results.append(system.query(query_tuple, k=k, k_prime=k_prime))
                    except GQBEError as error:
                        results.append(error)
                return results

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
        if not isinstance(k, int) or k < 1:
            raise ValueError(f'"k" must be a positive integer, got {k!r}')
        if k_prime is not None and (not isinstance(k_prime, int) or k_prime < 1):
            raise ValueError(f'"k_prime" must be a positive integer, got {k_prime!r}')
        return tuple(tuples), k, k_prime

    def handle_query(self, payload) -> tuple[int, dict]:
        """Answer one ``POST /query`` body; returns ``(status, response)``.

        Exposed as a method so tests can exercise request handling
        without sockets.
        """
        try:
            tuples, k, k_prime = self._parse_query_payload(payload)
        except ValueError as error:
            self._count("request_errors")
            return 400, {"error": str(error)}
        key = (tuples, k, k_prime)
        cached = self._cache.get(key)
        if cached is not None:
            self._count("requests_served")
            return 200, {**cached, "cached": True}
        # The generation must be read before computing: if a snapshot
        # reload lands mid-flight, this answer describes the old graph
        # and the put below is dropped.
        generation = self._cache.generation
        try:
            if len(tuples) == 1:
                result = self._batcher.submit(
                    tuples[0], k=k, k_prime=k_prime, timeout=self.request_timeout
                )
            else:
                # Multi-tuple (merged-MQG) queries are rare and heavier;
                # they run directly under the execution lock instead of
                # passing through the single-tuple batcher.
                with self._exec_lock:
                    result = self._system.query_multi(
                        [list(t) for t in tuples], k=k, k_prime=k_prime
                    )
        except GQBEError as error:
            self._count("request_errors")
            return 400, {"error": str(error), "type": type(error).__name__}
        except TimeoutError as error:
            self._count("request_errors")
            return 503, {"error": str(error)}
        body = {
            "query": [list(t) for t in tuples],
            "k": k,
            "k_prime": k_prime,
            "generation": generation,
            **_result_payload(result),
        }
        self._cache.put(key, body, generation)
        self._count("requests_served")
        return 200, {**body, "cached": False}

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
            "engine": {
                "intern_entities": bool(meta.get("intern_entities")),
                "columnar": bool(meta.get("columnar")),
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
            "batcher": self._batcher.stats(),
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
        numbers: with a v2 mapped snapshot the per-worker RSS stays
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
        # mapped snapshot formats (v2 tables, v3 vocabulary+graph) drive
        # toward zero.  Only measured when there are workers to compare.
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


class GQBEServer(ServingCore):
    """One warm GQBE system behind a threaded HTTP server.

    The original (threaded) frontend: one daemon thread runs a
    ``ThreadingHTTPServer`` — a handler thread per connection — over the
    shared :class:`ServingCore`.  ``gqbe serve --frontend threaded``
    selects it; the asyncio frontend
    (:class:`~repro.serving.async_server.AsyncGQBEServer`) is the
    default and adds admission control and ``/metrics``.

    Takes every :class:`ServingCore` parameter plus ``host`` / ``port``
    (``port=0`` picks an ephemeral port; read :attr:`port` after
    construction).
    """

    def __init__(
        self,
        system: GQBE,
        snapshot_path: str | PathLike | None = None,
        host: str = "127.0.0.1",
        port: int = 8080,
        **core_kwargs,
    ) -> None:
        super().__init__(system, snapshot_path=snapshot_path, **core_kwargs)
        self._http = _Http((host, port), _Handler)
        self._http.daemon_threads = True
        self._http.app = self  # type: ignore[attr-defined] - handler backref
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        """The bound host address."""
        return self._http.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0``)."""
        return self._http.server_address[1]

    def start(self) -> "GQBEServer":
        """Serve in a background daemon thread; returns ``self``."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._http.serve_forever, name="gqbe-serve", daemon=True
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the ``gqbe serve`` entry point)."""
        self._http.serve_forever()

    def stop(self) -> None:
        """Shut the HTTP listener, the batching worker and the pool down."""
        self._http.shutdown()
        self._http.server_close()
        self.close_engine()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None


class _Http(ThreadingHTTPServer):
    daemon_threads = True


class _Handler(BaseHTTPRequestHandler):
    """Maps HTTP routes onto the owning :class:`GQBEServer`."""

    server_version = "gqbe-serve/1.0"
    protocol_version = "HTTP/1.1"
    # Send each small JSON response immediately instead of letting Nagle's
    # algorithm hold the tail segment for the client's delayed ACK — that
    # interaction costs a flat ~40ms per keep-alive request on loopback.
    disable_nagle_algorithm = True

    @property
    def app(self) -> GQBEServer:
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # access logs stay off; /stats carries the counters

    def _send_json(self, status: int, body: dict) -> None:
        data = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def _read_json(self):
        """Parse the request body, bounding it *before* reading a byte.

        ``Content-Length`` is attacker-controlled: an unbounded
        ``rfile.read(length)`` would allocate whatever the header claims.
        A malformed value is a 400 naming the header (it used to fall
        through to the generic "not valid JSON" 400, which misdirects
        debugging); a value over the server's cap is a 413.
        """
        raw_length = self.headers.get("Content-Length")
        try:
            length = int(raw_length) if raw_length is not None else 0
        except ValueError:
            raise _RequestBodyError(
                400, f"invalid Content-Length header: {raw_length!r}"
            ) from None
        if length < 0:
            raise _RequestBodyError(
                400, f"invalid Content-Length header: {raw_length!r}"
            )
        cap = self.app.max_body_bytes
        if length > cap:
            raise _RequestBodyError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{cap}-byte limit",
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return None
        return json.loads(raw)

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        if self.path == "/healthz":
            self._send_json(200, self.app.healthz())
        elif self.path == "/stats":
            self._send_json(200, self.app.stats())
        else:
            self._send_json(404, {"error": f"unknown path {self.path!r}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        try:
            payload = self._read_json()
        except _RequestBodyError as error:
            self.app._count("request_errors")
            # The body was never read off the socket, so the connection
            # cannot be reused for another request.
            self.close_connection = True
            self._send_json(error.status, {"error": error.message})
            return
        except ValueError:
            self.app._count("request_errors")
            self._send_json(400, {"error": "request body is not valid JSON"})
            return
        try:
            if self.path == "/query":
                status, body = self.app.handle_query(payload)
            elif self.path == "/admin/reload":
                status, body = self._handle_reload(payload)
            elif self.path == "/admin/ingest":
                status, body = self.app.handle_ingest(payload)
            elif self.path == "/admin/compact":
                status, body = self.app.handle_compact()
            else:
                status, body = 404, {"error": f"unknown path {self.path!r}"}
        # gqbe: ignore[EXC001] -- the top-of-request net: any unhandled
        # failure becomes a logged traceback plus a generic 500 rather
        # than a dropped connection or a leaked stack trace.
        except Exception as error:  # noqa: BLE001 - last-resort 500
            # Log the traceback server-side; never echo exception details
            # to the client.
            self.app.note_internal_error(self.path, error)
            status, body = 500, {"error": "internal server error"}
        self._send_json(status, body)

    def _handle_reload(self, payload) -> tuple[int, dict]:
        if not isinstance(payload, dict) or not isinstance(
            payload.get("snapshot"), str
        ):
            return 400, {"error": 'body must be {"snapshot": "<path>"}'}
        try:
            generation = self.app.load_snapshot(payload["snapshot"])
        except GQBEError as error:
            return 400, {"error": str(error), "type": type(error).__name__}
        return 200, {
            "reloaded": True,
            "snapshot": payload["snapshot"],
            "generation": generation,
        }
