# gqbe: contract[deterministic]
"""Pure-Python reference kernels (the fallback backend).

These are the innermost interpreter loops of the engine: the scalar tail
of the join in ``storage/join.py`` and the per-node CSR neighbor list of
``graph/mapped.py``.  The native extension (:mod:`repro._kernels._native`)
is pinned byte-identical against them, including the per-probe-row
``max_rows`` check.  (Neighborhood extraction expands a whole BFS frontier
with numpy in ``graph/neighborhood.py`` and needs no kernel.)

Every function here must stay a pure function of its inputs;
``tests/test_native_kernels.py`` pins each one against the native
implementation.
"""

from __future__ import annotations


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

