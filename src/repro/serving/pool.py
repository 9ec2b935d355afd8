"""Process-pool query execution: shard a batch across worker processes.

The inline engine is CPU-bound pure Python — under the GIL, one process
can use one core no matter how many serving threads pile up.
:class:`WorkerPool` forks N worker processes and shards the queries of
one :meth:`~repro.core.gqbe.GQBE.query_batch` call across them:

* **snapshot-backed** pools give each worker its *own*
  ``GQBE.from_snapshot(path)`` over the same snapshot.  Every worker
  memory-maps the same shard files, so the columns, probe indexes,
  vocabulary and graph live in shared page-cache pages — the
  incremental RSS per worker is python objects, not another copy of
  the graph;
* **fork-inherited** pools (no snapshot path; requires the ``fork``
  start method) hand the parent's already-built system to the children
  through copy-on-write memory.

Answers are **byte-identical** to inline execution: each worker runs an
ordinary ``query_batch`` over its chunk (itself pinned byte-identical
to sequential ``query()`` calls), duplicate tuples are collapsed in the
parent and fanned back out, and chunk results are merged in input
order.  ``tests/test_pool_execution.py`` pins the equivalence
(cold-built / snapshot-mapped, inline / pooled).

Owned by :class:`~repro.serving.server.ServingCore` (``gqbe serve
--workers N``), whose engine threads send it one single-tuple query at a
time, up to ``min(N, CPUs)`` at once, and which rebuilds it after every
ingest and reload.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import threading
import time
from collections.abc import Sequence
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from os import PathLike
from pathlib import Path

from repro.core.answer import QueryResult, fan_out
from repro.exceptions import GQBEError

#: Hard ceiling on pool initialization (a worker fleet that cannot fork
#: and open its snapshot within this is considered wedged).
POOL_INIT_TIMEOUT = 120.0

# Worker-process state: the system this worker answers queries from.
# Set once by the pool initializer.
_WORKER_SYSTEM = None


def _init_worker(
    snapshot_path, config, system, barrier, init_hook=None, delta_triples=None
) -> None:
    """Worker initializer: open the snapshot, or adopt the forked system.

    ``system`` and ``barrier`` ride along only on fork pools, where
    initargs are inherited by reference instead of pickled.  The barrier
    holds every fork worker in its initializer until all of them exist —
    that is what lets the pool constructor force the *entire* fleet to
    fork eagerly, while the parent is still in a known thread state,
    instead of lazily from whatever threads are running at first submit.

    ``delta_triples`` is the parent's pending ingest delta: replaying the
    applied triples in their original order against a fresh load of the
    same snapshot is deterministic (same ids, same adjacency orders), so
    every worker answers byte-identically to the parent's overlay.

    ``init_hook`` is a test seam: called first, so tests can simulate a
    worker dying mid-initialization.
    """
    global _WORKER_SYSTEM
    if init_hook is not None:
        init_hook()
    if snapshot_path is not None:
        from repro.core.gqbe import GQBE

        # Each worker opens the snapshot itself, mapping the shard files
        # read-only: all workers share the physical pages.
        _WORKER_SYSTEM = GQBE.from_snapshot(snapshot_path, config=config)
        if delta_triples:
            _WORKER_SYSTEM.ingest(delta_triples)
    else:
        _WORKER_SYSTEM = system
    if barrier is not None:
        try:
            barrier.wait(timeout=POOL_INIT_TIMEOUT)
        except threading.BrokenBarrierError:
            # The parent detected a dead sibling and aborted the barrier;
            # exit the initializer quietly — the pool is being torn down.
            return


def _run_chunk(
    tuples: list[tuple[str, ...]], k: int, k_prime: int | None
) -> list[QueryResult]:
    """Execute one chunk of a sharded batch inside a worker process."""
    return _WORKER_SYSTEM.query_batch(tuples, k=k, k_prime=k_prime)


def _chunk(items: list, parts: int) -> list[list]:
    """Split ``items`` into at most ``parts`` contiguous, balanced chunks."""
    parts = max(1, min(parts, len(items)))
    size, remainder = divmod(len(items), parts)
    chunks = []
    start = 0
    for index in range(parts):
        end = start + size + (1 if index < remainder else 0)
        chunks.append(items[start:end])
        start = end
    return chunks


class WorkerPool:
    """N worker processes answering sharded ``query_batch`` calls.

    Parameters
    ----------
    workers:
        Number of worker processes.
    snapshot_path:
        Snapshot each worker opens itself (the shared-pages path).
        When omitted, ``system`` must be given and the platform must
        support the ``fork`` start method.
    system:
        A built :class:`~repro.core.gqbe.GQBE` to inherit through fork
        when there is no snapshot to reopen.
    config:
        Engine config for snapshot-backed workers (defaults to the
        snapshot's own flags).
    delta_triples:
        Applied ingest triples for snapshot-backed workers to replay on
        top of the snapshot (fork pools inherit the parent's delta in
        their memory image instead).
    """

    def __init__(
        self,
        workers: int,
        snapshot_path: str | PathLike | None = None,
        system=None,
        config=None,
        delta_triples=None,
        _init_hook=None,
    ) -> None:
        if snapshot_path is None and system is None:
            raise GQBEError("WorkerPool needs a snapshot_path or a system")
        if workers < 1:
            raise GQBEError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        # Absolute: spawned/forkserver workers may not share the parent's
        # working directory by the time they open the snapshot.
        self.snapshot_path = (
            str(Path(snapshot_path).resolve()) if snapshot_path is not None else None
        )
        methods = multiprocessing.get_all_start_methods()
        if self.snapshot_path is not None:
            # Snapshot-backed workers reopen the file themselves and the
            # initargs are picklable, so the pool never needs to fork the
            # (typically multi-threaded) serving parent: workers are
            # forked lazily at first submit, and forking a threaded
            # process risks child deadlock (and deprecation warnings on
            # CPython 3.12+).  forkserver forks from a clean helper
            # process instead; spawn is the portable fallback.
            start_method = "forkserver" if "forkserver" in methods else "spawn"
        else:
            # Inheriting an in-memory system genuinely requires fork.
            if "fork" not in methods:
                raise GQBEError(
                    "pooled execution without a snapshot needs the fork "
                    "start method; build an index snapshot and serve from "
                    "it instead"
                )
            start_method = "fork"
        context = multiprocessing.get_context(start_method)
        # Only fork pools carry the parent system in initargs (fork
        # passes initargs by reference — nothing is pickled).  Fork pools
        # also get a startup barrier so all workers fork *now*, in
        # __init__, rather than lazily at first submit — by then the
        # caller (e.g. the serving frontend) may be running engine/HTTP
        # threads, and forking a multi-threaded parent risks child
        # deadlock on whatever locks those threads hold.
        inherited = system if self.snapshot_path is None else None
        barrier = context.Barrier(self.workers) if start_method == "fork" else None
        self.delta_triples = (
            [tuple(triple) for triple in delta_triples]
            if self.snapshot_path is not None and delta_triples
            else None
        )
        self._executor = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=context,
            initializer=_init_worker,
            initargs=(
                self.snapshot_path,
                config,
                inherited,
                barrier,
                _init_hook,
                self.delta_triples,
            ),
        )
        self._closed = False
        if barrier is not None:
            # Each submit sees every existing worker still blocked in its
            # initializer (no idle workers), so the executor forks a new
            # one — N no-op tasks therefore fork the full fleet here.
            try:
                futures = [
                    self._executor.submit(os.getpid) for _ in range(self.workers)
                ]
            except BrokenExecutor as error:
                # A worker that died before the last submit has already
                # broken the executor; same clean failure as below.
                self._abort_init(error)
            self._await_fork_init(futures)

    def _await_fork_init(self, futures) -> None:
        """Wait for the fork fleet, failing *fast* if any worker dies.

        Without this, one worker dying inside ``_init_worker`` left its
        siblings blocked on the startup barrier for the full barrier
        timeout (up to two minutes) before an opaque
        ``BrokenBarrierError`` escaped the constructor.  Here the parent
        polls the worker processes while it waits: a dead worker (or a
        broken executor) aborts the barrier immediately — releasing the
        survivors — tears the pool down, and raises a clean
        :class:`~repro.exceptions.GQBEError`.
        """
        deadline = time.monotonic() + POOL_INIT_TIMEOUT
        pending = set(futures)
        while pending:
            done, pending = wait(pending, timeout=0.05, return_when=FIRST_COMPLETED)
            for future in done:
                error = future.exception()
                if error is not None:
                    self._abort_init(error)
            if not pending:
                return
            processes = dict(getattr(self._executor, "_processes", None) or {})
            dead = [
                pid
                for pid, process in processes.items()
                if not process.is_alive()
            ]
            if dead or getattr(self._executor, "_broken", False):
                self._abort_init(
                    None,
                    detail=(
                        f"worker process {dead[0]} died" if dead else "the pool broke"
                    ),
                )
            if time.monotonic() > deadline:
                self._abort_init(None, detail="initialization timed out")

    def _abort_init(self, cause: BaseException | None, detail: str | None = None):
        """Tear the half-built pool down and raise one clean error.

        Survivors blocked on the startup barrier are killed outright.
        ``barrier.abort()`` would be the polite alternative, but a
        multiprocessing condition's ``notify_all`` handshakes with every
        registered sleeper — and the executor's own broken-pool handling
        may have already terminated one mid-wait, which turns the abort
        into a deadlock.  ``kill()`` cannot hang, and the pool is dead
        either way.
        """
        processes = dict(getattr(self._executor, "_processes", None) or {})
        for process in processes.values():
            try:
                process.kill()
            except (OSError, ValueError):  # pragma: no cover - already gone
                pass
        self._closed = True
        self._executor.shutdown(wait=False, cancel_futures=True)
        if detail is None:
            detail = f"{type(cause).__name__}: {cause}" if cause else "unknown failure"
        raise GQBEError(
            f"worker pool failed during initialization ({detail}); "
            "the pool was shut down"
        ) from cause

    # ------------------------------------------------------------------
    def query_batch(
        self,
        query_tuples: Sequence[Sequence[str]],
        k: int = 10,
        k_prime: int | None = None,
    ) -> list[QueryResult]:
        """Answer a batch, sharded across the pool, in input order.

        Duplicate tuples are collapsed before sharding and fanned back
        out afterwards by :func:`~repro.core.answer.fan_out`, as
        :meth:`GQBE.query_batch <repro.core.gqbe.GQBE.query_batch>`
        does, so the merged ranked answers are byte-identical to inline
        execution.
        """
        if self._closed:
            raise RuntimeError("WorkerPool is closed")
        tuples = [tuple(t) for t in query_tuples]
        if not tuples:
            return []
        chunks = _chunk(list(dict.fromkeys(tuples)), self.workers)
        futures = [
            self._executor.submit(_run_chunk, chunk, k, k_prime)
            for chunk in chunks
        ]
        by_tuple: dict[tuple[str, ...], QueryResult] = {}
        first_error: BaseException | None = None
        for chunk, future in zip(chunks, futures):
            try:
                results = future.result()
            # gqbe: ignore[EXC001] -- every future must be drained even
            # when one fails (no leaked in-flight work); the first error,
            # whatever its type, is re-raised once draining completes.
            except BaseException as error:  # noqa: BLE001 - re-raised below
                # Drain every future before raising so no work leaks.
                if first_error is None:
                    first_error = error
                continue
            for entities, result in zip(chunk, results):
                by_tuple[entities] = result
        if first_error is not None:
            raise first_error
        return fan_out(tuples, by_tuple)

    # ------------------------------------------------------------------
    def worker_pids(self) -> list[int]:
        """PIDs of the live worker processes (may be lazily spawned)."""
        processes = getattr(self._executor, "_processes", None) or {}
        return sorted(processes)

    def worker_rss_bytes(self) -> list[int]:
        """Resident-set size of each worker, in bytes (Linux; else empty).

        Used by ``gqbe bench-serve --json`` to record how little
        incremental memory N mapped workers cost versus one.
        """
        sizes = []
        for pid in self.worker_pids():
            rss = _rss_bytes(pid)
            if rss is not None:
                sizes.append(rss)
        return sizes

    def worker_peak_rss_bytes(self) -> list[int]:
        """Peak (high-water) RSS of each worker (``VmHWM``; Linux)."""
        sizes = []
        for pid in self.worker_pids():
            peak = _rss_bytes(pid, field="VmHWM:")
            if peak is not None:
                sizes.append(peak)
        return sizes

    def stats(self) -> dict:
        """Pool description for ``/stats`` and bench reports."""
        return {
            "workers": self.workers,
            "snapshot_backed": self.snapshot_path is not None,
            "worker_pids": self.worker_pids(),
            "delta_replayed": len(self.delta_triples or ()),
        }

    def close(self) -> None:
        """Shut the workers down (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _rss_bytes(pid: int, field: str = "VmRSS:") -> int | None:
    """A memory field of ``pid`` from procfs, or ``None`` where unavailable.

    ``VmRSS:`` is the current resident size; ``VmHWM:`` its high-water
    mark (true peak, immune to pages being reclaimed before sampling).
    """
    try:
        with open(f"/proc/{pid}/status", encoding="ascii", errors="replace") as f:
            for line in f:
                if line.startswith(field):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        return None
    return None


_FLOOR_SCRIPT = (
    "import numpy, repro.core.gqbe\n"
    "from repro.serving.pool import parent_rss_bytes\n"
    "print(parent_rss_bytes() or 0)\n"
)
_interpreter_floor_cache: list[int | None] = []
_interpreter_floor_lock = threading.Lock()


def interpreter_floor_rss_bytes() -> int | None:
    """RSS of a bare interpreter that imported numpy + the engine.

    The baseline a pool worker cannot go below — everything a worker
    holds *above* this floor is what it actually pays for the graph.
    ``bench-serve`` reports ``worker RSS − floor`` as the per-worker
    *incremental* RSS, which is the number the mapped-snapshot formats
    drive toward zero.  Measured once per process by spawning a child
    (Linux procfs; ``None`` elsewhere) and cached.
    """
    with _interpreter_floor_lock:
        # Unlocked, two handler threads could both see the empty cache,
        # spawn two probe children and double-append.
        if not _interpreter_floor_cache:
            floor: int | None = None
            try:
                completed = subprocess.run(
                    [sys.executable, "-c", _FLOOR_SCRIPT],
                    capture_output=True,
                    timeout=60,
                    check=True,
                )
                floor = int(completed.stdout) or None
            except (OSError, ValueError, subprocess.SubprocessError):
                floor = None
            _interpreter_floor_cache.append(floor)
        return _interpreter_floor_cache[0]


_STRUCTURAL_SCRIPT = (
    "import sys\n"
    "from repro.core.gqbe import GQBE\n"
    "from repro.serving.pool import parent_rss_bytes\n"
    "system = GQBE.from_snapshot(sys.argv[1])\n"
    "system.graph_store.materialize()\n"
    "store = system.store\n"
    "for label in list(store.labels()):\n"
    "    store.table(label)\n"
    "print(parent_rss_bytes() or 0)\n"
)


def snapshot_worker_structural_rss_bytes(snapshot_path) -> int | None:
    """RSS of a worker that opened ``snapshot_path`` and touched everything.

    Spawns a fresh process that materializes every section and maps
    every table shard, then reports its ``VmRSS`` — the *structural*
    per-worker footprint, free of transient query allocations (which
    dwarf the sections under load).  Subtract
    :func:`interpreter_floor_rss_bytes` to get the incremental bytes a
    worker pays for the graph itself; the mapped shards are shared
    pages, so that figure is the two small section pickles plus python
    objects.  ``None`` when the probe cannot run.
    """
    samples = []
    for _ in range(2):  # min of two runs damps allocator/procfs noise
        try:
            completed = subprocess.run(
                [sys.executable, "-c", _STRUCTURAL_SCRIPT, str(snapshot_path)],
                capture_output=True,
                timeout=300,
                check=True,
            )
            samples.append(int(completed.stdout))
        except (OSError, ValueError, subprocess.SubprocessError):
            return None
    return min(samples) or None


def parent_rss_bytes() -> int | None:
    """This process's resident-set size (Linux procfs; ``None`` elsewhere)."""
    return _rss_bytes(os.getpid())


def parent_peak_rss_bytes() -> int | None:
    """This process's peak resident size (``VmHWM``; ``None`` elsewhere)."""
    return _rss_bytes(os.getpid(), field="VmHWM:")
