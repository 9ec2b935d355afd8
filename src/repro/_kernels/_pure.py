# gqbe: contract[deterministic]
"""Pure-Python reference kernels (the fallback backend).

These are the innermost interpreter loops of the engine: the scalar tail
of the join in ``storage/join.py`` and the CSR frontier expansion of
``graph/neighborhood.py`` and ``graph/mapped.py``.  The native extension
(:mod:`repro._kernels._native`) is pinned byte-identical against them,
including the adaptive gather/scalar BFS split and the per-probe-row
``max_rows`` check.

Every function here must stay a pure function of its inputs (plus the
documented in-place dict/list mutations); ``tests/test_native_kernels.py``
pins each one against the native implementation.
"""

from __future__ import annotations

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

