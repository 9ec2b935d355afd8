"""Edge weighting heuristics (Sec. III-B and Eq. 7–8 of the paper).

Two weighting functions are used at different stages:

* **Discovery weight** (Eq. 2): ``w(e) = ief(e) / p(e)``.  Used while
  discovering the maximal query graph from the neighborhood graph; it is
  deliberately independent of the distance to the query entities so the MQG
  stays balanced between near and far edges.  Computed by the statistics
  (:meth:`repro.graph.statistics.GraphStatistics.base_edge_weight`, or
  ``column_weights`` for every row of a neighborhood's id columns).

* **MQG / scoring weight** (Eq. 8): ``w(e) = ief(e) / (p(e) · depth(e)²)``.
  Used once the MQG is fixed, when scoring answer graphs (Eq. 5–6); edges
  closer to the query entities matter more.

**Edge depth** (Eq. 7) is the smallest undirected distance between an edge
and a query entity.  The paper defines it via the endpoint distances, which
would make edges incident on query entities have depth 0 and Eq. 8 divide by
zero; we therefore interpret the depth of an edge as ``1 +`` the minimum
endpoint distance, so an edge incident on a query entity has depth 1, an
edge one hop away has depth 2, and so on.  This preserves the intended
ordering ("the larger d(e) is, the less important e is") while keeping the
weight finite.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from repro.graph.knowledge_graph import Edge, KnowledgeGraph


def edge_depths(
    graph: KnowledgeGraph, query_tuple: Sequence[str], edges: Iterable[Edge] | None = None
) -> dict[Edge, int]:
    """Depth of each edge of ``graph`` w.r.t. the query entities (Eq. 7).

    ``depth(e) = 1 + min over query entities and endpoints of the undirected
    distance in `graph```.  Distances are measured inside the graph passed in
    (the MQG, per the paper).  Edges whose endpoints cannot reach any query
    entity (which cannot happen for a weakly connected MQG) get a depth one
    larger than the graph's edge count as a conservative fallback.
    """
    distances: dict[str, int] = {}
    for entity in query_tuple:
        if not graph.has_node(entity):
            continue
        for node, dist in graph.undirected_distances(entity).items():
            previous = distances.get(node)
            if previous is None or dist < previous:
                distances[node] = dist

    fallback = graph.num_edges + 1
    target_edges = graph.edges if edges is None else edges
    depths: dict[Edge, int] = {}
    for edge in target_edges:
        endpoint_distance = min(
            distances.get(edge.subject, fallback),
            distances.get(edge.object, fallback),
        )
        depths[edge] = endpoint_distance + 1
    return depths


def mqg_edge_weights(
    mqg_graph: KnowledgeGraph,
    query_tuple: Sequence[str],
    discovery_weights: Mapping[Edge, float],
) -> dict[Edge, float]:
    """Eq. 8 weights (``ief / (p · depth²)``) for every edge of the MQG:
    its Eq. 2 ``discovery_weights`` divided by the squared depth."""
    depths = edge_depths(mqg_graph, query_tuple)
    weights: dict[Edge, float] = {}
    for edge in mqg_graph.edges:
        depth = depths[edge]
        weights[edge] = discovery_weights[edge] / (depth * depth)
    return weights
