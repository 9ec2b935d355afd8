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
from repro.graph.knowledge_graph import Edge, KnowledgeGraph
from repro.graph.neighborhood import NeighborhoodGraph


def _important_edges(
    neighborhood: NeighborhoodGraph, node: str
) -> tuple[set[Edge], list[Edge]]:
    """Return (IE(node), all incident edges) for ``node`` in ``H_t``."""
    graph = neighborhood.graph
    d = neighborhood.d
    distances = neighborhood.distances
    incident = graph.incident_edges(node)
    important: set[Edge] = set()
    for edge in incident:
        other = edge.other(node)
        other_distance = distances.get(other)
        if other_distance is not None and other_distance <= d - 1:
            important.add(edge)
    return important, incident


def _unimportant_edges(
    neighborhood: NeighborhoodGraph, node: str
) -> set[Edge]:
    """UE(node): same-label, same-orientation siblings of important edges."""
    important, incident = _important_edges(neighborhood, node)
    if not important:
        return set()
    outgoing_labels = {e.label for e in important if e.subject == node}
    incoming_labels = {e.label for e in important if e.object == node}
    unimportant: set[Edge] = set()
    for edge in incident:
        if edge in important:
            continue
        if edge.subject == node and edge.label in outgoing_labels:
            unimportant.add(edge)
        elif edge.object == node and edge.label in incoming_labels:
            unimportant.add(edge)
    return unimportant


def _removed_edges(neighborhood: NeighborhoodGraph) -> set[Edge]:
    """Union of UE(v) over all nodes, computed in two passes over the edges.

    Equivalent to running :func:`_unimportant_edges` per node (the
    per-node form is kept above as the executable spec and for tests), but
    without materializing incident-edge lists for every node: pass one
    collects, per node, the labels of its important outgoing/incoming
    edges; pass two flags every non-important edge that shares a label and
    orientation with an important sibling at either endpoint.
    """
    d = neighborhood.d
    distances = neighborhood.distances
    threshold = d - 1
    outgoing_labels: dict[str, set[str]] = {}
    incoming_labels: dict[str, set[str]] = {}
    # Per-edge importance flags in edge-list order (parallel lists instead
    # of an Edge-keyed dict: Edge tuples hash three strings each).
    edges = list(neighborhood.graph.edges)
    subject_flags: list[bool] = []
    object_flags: list[bool] = []

    far = threshold + 1  # sentinel distance: "outside the d-1 ball"
    for subject, label, obj in edges:
        subject_side = distances.get(obj, far) <= threshold
        object_side = distances.get(subject, far) <= threshold
        subject_flags.append(subject_side)
        object_flags.append(object_side)
        if subject_side:
            outgoing_labels.setdefault(subject, set()).add(label)
        if object_side:
            incoming_labels.setdefault(obj, set()).add(label)

    removed: set[Edge] = set()
    empty: set[str] = set()
    for edge, subject_side, object_side in zip(edges, subject_flags, object_flags):
        if not subject_side and edge.label in outgoing_labels.get(edge.subject, empty):
            removed.add(edge)
        elif not object_side and edge.label in incoming_labels.get(edge.object, empty):
            removed.add(edge)
    return removed


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


def _reduce_columns(neighborhood: NeighborhoodGraph) -> NeighborhoodGraph:
    """:func:`reduce_neighborhood_graph` over the id columns of ``H_t``.

    Evaluates the rule of :func:`_removed_edges` as array masks and sweeps
    the query entities' component over the surviving rows.  The result is
    those rows and the nodes they touch, still as id columns and in
    ``H_t``'s edge order, so decoding it gives the string path's reduced
    graph, adjacency orders included — and MQG discovery, which reads the
    columns, never does.
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


def reduce_neighborhood_graph(neighborhood: NeighborhoodGraph) -> NeighborhoodGraph:
    """Remove unimportant edges and return the reduced neighborhood graph.

    The result is the weakly connected component (after removal) that
    contains all query entities; Theorem 2 guarantees it exists.
    """
    if neighborhood.columns is not None:
        return _reduce_columns(neighborhood)
    graph = neighborhood.graph
    removed = _removed_edges(neighborhood)
    kept = [edge for edge in graph.edges if edge not in removed]

    # Keep only the component containing the query entities, computed over
    # a plain adjacency map (no intermediate KnowledgeGraph build).
    adjacency: dict[str, list[str]] = {}
    for edge in kept:
        adjacency.setdefault(edge.subject, []).append(edge.object)
        adjacency.setdefault(edge.object, []).append(edge.subject)
    entities = neighborhood.query_tuple
    start = entities[0]
    keeper = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        for other in adjacency.get(node, ()):
            if other not in keeper:
                keeper.add(other)
                stack.append(other)
    if not all(entity in keeper for entity in entities):
        raise DiscoveryError(_LOST_CONNECTION)

    component_graph = KnowledgeGraph()
    for entity in entities:
        component_graph.add_node(entity)
    for edge in kept:
        if edge.subject in keeper and edge.object in keeper:
            component_graph.add_edge_object(edge)
    distances = neighborhood.distances
    return NeighborhoodGraph(
        graph=component_graph,
        query_tuple=entities,
        d=neighborhood.d,
        distances={
            node: distances[node] for node in component_graph.nodes if node in distances
        },
    )
