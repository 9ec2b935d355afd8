# gqbe: contract[deterministic]
"""Pure-Python reference kernels (the fallback backend).

These are the innermost interpreter loops of the engine, factored out of
``storage/join.py``, ``graph/neighborhood.py``, ``graph/mapped.py`` and
``lattice/exploration.py`` verbatim so the native extension
(:mod:`repro._kernels._native`) has a pinned reference to be
byte-identical against.  This module is the *current code*, not a
simplification: the adaptive gather/scalar BFS split, the per-probe-row
``max_rows`` timing and the lazy-deletion threshold heap are preserved
statement for statement.

Every function here must stay a pure function of its inputs (plus the
documented in-place dict/list mutations); ``tests/test_native_kernels.py``
pins each one against the native implementation.
"""

from __future__ import annotations

import heapq

import numpy as np

#: Below this many frontier nodes the per-node slice loop beats the
#: vectorized gather's fixed numpy overhead (a handful of array allocs).
GATHER_MIN_FRONTIER = 16


def _gather_frontier(frontier, out_indptr, out_objects, in_indptr, in_subjects):
    """All neighbors of ``frontier``, in per-node out-then-in slice order.

    One fancy-indexed gather replaces ``2 * len(frontier)`` per-node
    slice+tolist round trips.  The output is laid out exactly as the
    scalar loop would visit it — for each frontier node, its out slice
    then its in slice — so feeding it through the same first-occurrence
    dedup yields an identical ``distances`` insertion order.
    """
    nodes = np.asarray(frontier, dtype=np.int64)
    out_starts = out_indptr[nodes]
    out_counts = out_indptr[nodes + 1] - out_starts
    in_starts = in_indptr[nodes]
    in_counts = in_indptr[nodes + 1] - in_starts
    totals = out_counts + in_counts
    total = int(totals.sum())
    if total == 0:
        return []
    dest_base = np.cumsum(totals) - totals
    gathered = np.empty(total, dtype=np.int64)
    out_total = int(out_counts.sum())
    if out_total:
        # Positions within each node's run: a global arange minus each
        # run's starting rank, broadcast per-element via repeat.
        offsets = np.arange(out_total, dtype=np.int64) - np.repeat(
            np.cumsum(out_counts) - out_counts, out_counts
        )
        source = np.repeat(out_starts, out_counts) + offsets
        dest = np.repeat(dest_base, out_counts) + offsets
        gathered[dest] = out_objects[source]
    if total - out_total:
        in_total = total - out_total
        offsets = np.arange(in_total, dtype=np.int64) - np.repeat(
            np.cumsum(in_counts) - in_counts, in_counts
        )
        source = np.repeat(in_starts, in_counts) + offsets
        dest = np.repeat(dest_base + out_counts, in_counts) + offsets
        gathered[dest] = in_subjects[source]
    return gathered.tolist()


def bfs_expand(
    frontier, out_indptr, out_objects, in_indptr, in_subjects, distances, depth
):
    """Expand one BFS depth over mapped CSR columns, in place.

    For each frontier node (in order) visits its out slice then its in
    slice; first-occurrence neighbors are recorded in ``distances`` at
    ``depth`` and returned as the next frontier.  Wide frontiers expand
    through one whole-frontier numpy gather instead of per-node slices;
    the gather emits neighbors in the same order, so the resulting
    insertion order — and everything derived from it — is identical.
    """
    next_frontier: list[int] = []
    if len(frontier) >= GATHER_MIN_FRONTIER:
        for neighbor in _gather_frontier(
            frontier, out_indptr, out_objects, in_indptr, in_subjects
        ):
            if neighbor not in distances:
                distances[neighbor] = depth
                next_frontier.append(neighbor)
        return next_frontier
    for node_id in frontier:
        start = int(out_indptr[node_id])
        end = int(out_indptr[node_id + 1])
        for neighbor in out_objects[start:end].tolist():
            if neighbor not in distances:
                distances[neighbor] = depth
                next_frontier.append(neighbor)
        start = int(in_indptr[node_id])
        end = int(in_indptr[node_id + 1])
        for neighbor in in_subjects[start:end].tolist():
            if neighbor not in distances:
                distances[neighbor] = depth
                next_frontier.append(neighbor)
    return next_frontier


def csr_neighbors(node_id, out_indptr, out_objects, in_indptr, in_subjects):
    """Undirected neighbor ids of one node, out-slice order then in-slice."""
    start = int(out_indptr[node_id])
    end = int(out_indptr[node_id + 1])
    ids = out_objects[start:end].tolist()
    start = int(in_indptr[node_id])
    end = int(in_indptr[node_id + 1])
    ids.extend(in_subjects[start:end].tolist())
    return ids


def probe_tail(rows, buckets, bound_col, injective, max_rows):
    """The scalar one-sided join-probe tail over dict buckets.

    Probes ``buckets`` with each row's ``bound_col`` value and emits one
    extended row per match, skipping values already present in the row
    when ``injective``.  ``max_rows`` is checked after each probe row
    (``-1`` disables the cap); on overflow the partial output is
    discarded and ``None`` is returned so the caller can raise its
    documented error.
    """
    out_rows: list[tuple] = []
    append = out_rows.append
    for row in rows:
        matches = buckets.get(row[bound_col])
        if not matches:
            continue
        for value in matches:
            if injective and value in row:
                continue
            append(row + (value,))
        if max_rows >= 0 and len(out_rows) > max_rows:
            return None
    return out_rows


def filter_pairs(rows, subject_col, object_col, pairs):
    """The scalar both-endpoints-bound join filter over a pair set."""
    return [row for row in rows if (row[subject_col], row[object_col]) in pairs]


class TopKThreshold:
    """Bounded min-heap of the current top-``k_prime`` per-answer scores.

    The stage-one termination threshold of Theorem 4, maintained
    incrementally: :meth:`note` records an answer's strictly increased
    structure score (superseding its live entry, or evicting the current
    minimum once the heap is full), :meth:`threshold` returns the current
    k'-th best score (``None`` while fewer than k' answers are live).
    Superseded entries are lazy-deleted via a stale set.
    """

    __slots__ = ("k_prime", "_heap", "_credit", "_stale")

    def __init__(self, k_prime):
        self.k_prime = k_prime
        self._heap: list[tuple[float, object]] = []
        self._credit: dict[object, float] = {}
        self._stale: set[tuple[float, object]] = set()

    def note(self, answer, score):
        """Record ``answer``'s improved ``score`` (scores only increase)."""
        heap = self._heap
        credit = self._credit
        credited = credit.get(answer)
        if credited is not None:
            # Already live: supersede its entry in place.
            self._stale.add((credited, answer))
        elif len(credit) >= self.k_prime:
            # Heap is full: admit only if the score beats the current
            # k'-th best, evicting that minimum.
            self._prune_top()
            if heap and score <= heap[0][0]:
                return
            _evicted_score, evicted_answer = heapq.heappop(heap)
            del credit[evicted_answer]
        credit[answer] = score
        heapq.heappush(heap, (score, answer))

    def _prune_top(self):
        heap = self._heap
        stale = self._stale
        while heap and heap[0] in stale:
            stale.remove(heapq.heappop(heap))

    def threshold(self):
        """Score of the current k'-th best answer (``None`` if too few)."""
        if len(self._credit) < self.k_prime:
            return None
        self._prune_top()
        return self._heap[0][0]

    def __len__(self):
        return len(self._credit)
