# gqbe: contract[deterministic]
"""Pure-Python reference kernels (the fallback backend).

One interpreter loop is left: the per-node CSR neighbor list behind
``MappedKnowledgeGraph.neighbors()`` in ``graph/mapped.py``, the
accessor the NESS baseline's candidate refinement reads; no GQBE query
calls it.  The native extension (:mod:`repro._kernels._native`) is
pinned byte-identical against it.
(Neighborhood extraction expands a whole BFS frontier with numpy in
``graph/neighborhood.py``, and every join runs whole-array in
``storage/join.py``; neither needs a kernel.)

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
