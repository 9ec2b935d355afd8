# gqbe: contract[deterministic]
"""Unimportant-edge removal: the reduced neighborhood graph (Sec. III-C).

The neighborhood graph ``H_t`` can contain many edges that clearly do not
matter for the query — e.g. the thousands of ``education`` edges into
*Stanford* from people unrelated to the query tuple.  GQBE removes them
before running MQG discovery.

For a node ``v`` of ``H_t`` the incident edges are partitioned into:

* ``IE(v)`` — *important* edges: those lying on an undirected path of
  length ≤ d between ``v`` and some query entity.  We implement this with
  the distance rule: an edge incident on ``v`` whose other endpoint is
  within ``d − 1`` undirected hops of a query entity (distance measured from
  the query entities over the whole neighborhood graph) is important from
  ``v``'s perspective.
* ``UE(v)`` — *unimportant* edges: not in ``IE(v)`` but sharing a label and
  an orientation (both incoming to ``v`` or both outgoing from ``v``) with
  some edge of ``IE(v)``.
* the rest, which is neither important nor unimportant.

An edge is removed when it is unimportant from the perspective of either of
its endpoints.  Theorem 2 of the paper guarantees that after removal a
weakly connected component containing all query entities still exists; the
*reduced neighborhood graph* is that component.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DiscoveryError
from repro.graph.neighborhood import NeighborhoodGraph


_LOST_CONNECTION = (
    "reduced neighborhood graph lost the connection between query "
    "entities; this contradicts Theorem 2 and indicates the input "
    "neighborhood graph was not weakly connected to begin with"
)


def _is_member(values: "np.ndarray", members: "np.ndarray") -> "np.ndarray":
    """``np.isin(values, members)`` for few members: sorts only ``members``."""
    if not len(members):
        return np.zeros(len(values), dtype=bool)
    members = np.sort(members)
    slots = np.minimum(np.searchsorted(members, values), len(members) - 1)
    return members[slots] == values


def reduce_neighborhood_graph(neighborhood: NeighborhoodGraph) -> NeighborhoodGraph:
    """Remove unimportant edges and return the reduced neighborhood graph.

    The result is the weakly connected component (after removal) that
    contains all query entities; Theorem 2 guarantees it exists.  The
    rule is evaluated as array masks over the id columns of ``H_t`` and
    the component swept over the surviving rows; the result is those
    rows and the nodes they touch, still as id columns and in ``H_t``'s
    edge order, so MQG discovery, which reads the columns, never decodes
    them.
    """
    columns = neighborhood.columns
    subjects, labels, objects = columns.subjects, columns.labels, columns.objects
    # Columns hold BFS positions and the near (<= d - 1 hops) nodes come
    # first: an endpoint is near iff its position is small.
    subject_side = objects < columns.near_count  # important from the subject's side
    object_side = subjects < columns.near_count
    # Every edge of H_t has a near endpoint, so an edge that is not
    # important from one side hangs off a near node on that side, and the
    # important siblings it is compared with join two near nodes.
    core = subject_side & object_side
    # (node, label) keys per orientation; positions and label ids are both
    # small, whatever the vocabulary's size.
    width = int(labels.max()) + 1 if len(labels) else 1
    out_keys = subjects * width + labels
    in_keys = objects * width + labels
    removed = np.zeros(len(labels), dtype=bool)
    for side, keys in ((subject_side, out_keys), (object_side, in_keys)):
        candidates = np.flatnonzero(~side)
        removed[candidates] = _is_member(keys[candidates], keys[core])
    kept = np.flatnonzero(~removed)

    # Grow the first query entity's component over the kept edges.
    kept_subjects, kept_objects = subjects[kept], objects[kept]
    reached = np.zeros(len(columns.node_ids), dtype=bool)
    reached[0] = True
    while True:
        crossing = reached[kept_subjects] != reached[kept_objects]
        if not crossing.any():
            break
        reached[kept_subjects[crossing]] = True
        reached[kept_objects[crossing]] = True
    entities = neighborhood.query_tuple
    # The BFS starts from the query entities, so they hold the first positions.
    if not reached[: len(entities)].all():
        raise DiscoveryError(_LOST_CONNECTION)

    return NeighborhoodGraph(
        query_tuple=entities,
        d=neighborhood.d,
        columns=columns.take(kept[reached[kept_subjects]], np.flatnonzero(reached)),
    )
