"""Micro-batching of concurrent queries into ``query_batch`` calls.

Requests that queue while the engine is busy are grouped and executed as
one :meth:`~repro.core.gqbe.GQBE.query_batch` call: duplicates collapse
to a single evaluation, and every caller receives the exact answers a
standalone :meth:`~repro.core.gqbe.GQBE.query` would have produced.

The batcher owns one daemon dispatch thread per batch that may run at
once: one inline, one per pool worker up to the CPU count (more would
only time-share cores).  :meth:`QueryBatcher.submit` blocks its caller
until a free dispatch thread has taken the request, at once, with up to
``max_batch`` of whatever else queued, run its ``(k, k_prime)`` group (a
batch call has uniform ranking parameters) and woken it: a lone request
runs immediately and a burst becomes the next batch.
"""

from __future__ import annotations

import os
import threading
import time
from collections.abc import Callable, Sequence

from repro.core.answer import QueryResult


class _Pending:
    """One submitted query waiting for its batch to run."""

    __slots__ = (
        "query_tuple", "k", "k_prime", "submitted",
        "event", "result", "error", "abandoned",
    )

    def __init__(self, query_tuple: tuple[str, ...], k: int, k_prime: int | None):
        self.query_tuple = query_tuple
        self.k = k
        self.k_prime = k_prime
        self.submitted = time.monotonic()
        self.event = threading.Event()
        self.result: QueryResult | None = None
        self.error: BaseException | None = None
        #: Set when the submitter gave up (timeout); the batcher sheds
        #: abandoned requests instead of computing answers nobody reads.
        self.abandoned = False


class QueryBatcher:
    """Groups concurrent single-tuple queries into batched executions.

    Parameters
    ----------
    runner:
        ``runner(tuples, k, k_prime) -> list[QueryResult | BaseException]``
        — normally a bound :meth:`GQBE.query_batch
        <repro.core.gqbe.GQBE.query_batch>` (the server wraps it to pick
        the current snapshot's system).  A list element that is an
        exception is delivered to that query's caller alone, so one
        invalid query cannot poison its batch-mates; an exception
        *raised* by the runner is delivered to every caller of the batch.
    max_batch:
        Hard cap on requests per batch; the rest wait for the next one.
    pool:
        Optional :class:`~repro.serving.pool.WorkerPool`.  When set,
        every batch runs on the pool — sharded across worker *processes*
        and merged byte-identically — with one batch in flight per
        worker up to the CPU count; a pool failure falls back to
        ``runner``.  The attribute is mutable: a reload swaps in a pool
        of the same width.
    on_batch:
        Optional ``on_batch(size, queue_waits, execute_seconds)``, called
        once per engine call (one per ``(k, k_prime)`` group of a batch),
        inline or pooled, just before its callers are woken: the call's
        query count, each member's seconds from submit to the call's
        start, and the call's seconds.  An exception it raises reaches
        those callers like an engine error.
    """

    def __init__(
        self,
        runner: Callable[[Sequence[tuple[str, ...]], int, int | None], list[QueryResult]],
        max_batch: int = 64,
        pool=None,
        on_batch: Callable[[int, list[float], float], None] | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self._runner = runner
        self.max_batch = max_batch
        self.pool = pool
        self._on_batch = on_batch
        self._pending: list[_Pending] = []
        self._condition = threading.Condition()
        self._closed = False
        self.batches_run = 0
        self.queries_batched = 0
        self.largest_batch = 0
        self.pooled_batches = 0
        self._threads = [
            threading.Thread(target=self._dispatch, name="gqbe-batcher", daemon=True)
            for _ in range(min(pool.workers, os.cpu_count() or 1) if pool else 1)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    def submit(
        self,
        query_tuple: Sequence[str],
        k: int = 10,
        k_prime: int | None = None,
        timeout: float | None = None,
    ) -> QueryResult:
        """Enqueue one query and block until its batch has run.

        Raises whatever the engine raised for the batch this query was
        grouped into, or ``TimeoutError`` after ``timeout`` seconds.
        """
        pending = _Pending(tuple(query_tuple), k, k_prime)
        with self._condition:
            if self._closed:
                raise RuntimeError("QueryBatcher is closed")
            self._pending.append(pending)
            self._condition.notify_all()
        if not pending.event.wait(timeout):
            # Shed the load: drop the entry if still queued, and mark it
            # abandoned so a dispatch thread that dequeued it skips it —
            # otherwise every timed-out request would still consume a
            # full execution slot during exactly the overload that made
            # it time out.
            with self._condition:
                pending.abandoned = True
                try:
                    self._pending.remove(pending)
                except ValueError:
                    pass
            raise TimeoutError(
                f"query {pending.query_tuple!r} timed out after {timeout}s"
            )
        if pending.error is not None:
            raise pending.error
        assert pending.result is not None
        return pending.result

    def close(self) -> None:
        """Stop dispatching; outstanding requests fail with ``RuntimeError``."""
        with self._condition:
            self._closed = True
            self._condition.notify_all()
        for thread in self._threads:
            thread.join(timeout=5)

    # ------------------------------------------------------------------
    def _dispatch(self) -> None:
        while True:
            with self._condition:
                while not self._pending and not self._closed:
                    self._condition.wait()
                closed = self._closed
                if closed:
                    group, self._pending = self._pending, []
                else:
                    group = self._pending[: self.max_batch]
                    del self._pending[: self.max_batch]
                    # stats() runs on handler threads; an unlocked += here
                    # is load/add/store and loses increments under contention.
                    self.batches_run += 1
                    self.queries_batched += len(group)
                    self.largest_batch = max(self.largest_batch, len(group))
            if closed:
                for pending in group:
                    pending.error = RuntimeError("QueryBatcher is closed")
                    pending.event.set()
                return
            # One query_batch call needs uniform (k, k_prime); group by it,
            # preserving arrival order inside each subgroup.
            subgroups: dict[tuple[int, int | None], list[_Pending]] = {}
            for pending in group:
                subgroups.setdefault((pending.k, pending.k_prime), []).append(pending)
            for (k, k_prime), members in subgroups.items():
                members = [member for member in members if not member.abandoned]
                if members:
                    self._run_subgroup(members, k, k_prime)

    def _run_subgroup(self, members: list[_Pending], k, k_prime) -> None:
        """Run one engine call, report it to ``on_batch``, wake its callers."""
        started = time.monotonic()
        try:
            try:
                results = self._execute(
                    [member.query_tuple for member in members], k, k_prime
                )
            finally:
                if self._on_batch is not None:
                    self._on_batch(
                        len(members),
                        [started - member.submitted for member in members],
                        time.monotonic() - started,
                    )
        # gqbe: ignore[EXC001] -- a dispatch thread must never die: every
        # failure (including KeyboardInterrupt-class) is forwarded to the
        # waiting callers, which re-raise it on their own threads.
        except BaseException as error:  # noqa: BLE001 - forwarded to callers
            for member in members:
                member.error = error
        else:
            for member, result in zip(members, results):
                if isinstance(result, BaseException):
                    member.error = result
                else:
                    member.result = result
        for member in members:
            member.event.set()

    def _execute(self, tuples, k, k_prime):
        """One subgroup execution: the process pool if any, else runner.

        A pool failure of any kind (engine error on one tuple, a broken
        worker) degrades to the inline runner, which does its own
        per-query error isolation.
        """
        pool = self.pool
        if pool is not None:
            try:
                results = pool.query_batch(tuples, k=k, k_prime=k_prime)
            # gqbe: ignore[EXC001] -- deliberate degrade path: any pool
            # failure (broken worker, pickling error, engine fault) falls
            # back to the inline runner, which isolates per-query errors.
            except Exception:  # noqa: BLE001 - degrade to the inline runner
                return self._runner(tuples, k, k_prime)
            with self._condition:
                self.pooled_batches += 1
            return results
        return self._runner(tuples, k, k_prime)

    def stats(self) -> dict[str, float]:
        """Counter snapshot for the ``/stats`` endpoint."""
        with self._condition:
            batches = self.batches_run
            queries = self.queries_batched
            largest = self.largest_batch
            pooled = self.pooled_batches
        return {
            "max_batch": self.max_batch,
            "batches_run": batches,
            "queries_batched": queries,
            "largest_batch": largest,
            "mean_batch_size": (queries / batches) if batches else 0.0,
            "pooled_batches": pooled,
        }
