"""Query graph discovery: from a query tuple to a weighted maximal query graph.

This package implements Section III of the paper:

* :mod:`repro.discovery.weights` — edge depth (Eq. 7) and the
  depth-adjusted weight used for answer scoring (Eq. 8); the Eq. 2
  discovery weight (inverse edge-label frequency / participation
  degree) comes from :mod:`repro.graph.statistics`.
* :mod:`repro.discovery.reduction` — the preprocessing step that removes
  *unimportant* edges from the neighborhood graph (Sec. III-C, Theorem 2).
* :mod:`repro.discovery.mqg` — Algorithm 1: divide-and-conquer greedy
  discovery of the maximal query graph (MQG).
* :mod:`repro.discovery.merge` — multi-tuple queries: merging and
  re-weighting several per-tuple MQGs into one (Sec. III-D).
"""

from repro.discovery.merge import merge_maximal_query_graphs
from repro.discovery.mqg import MaximalQueryGraph, discover_maximal_query_graph
from repro.discovery.reduction import reduce_neighborhood_graph
from repro.discovery.weights import edge_depths, mqg_edge_weights

__all__ = [
    "MaximalQueryGraph",
    "discover_maximal_query_graph",
    "merge_maximal_query_graphs",
    "reduce_neighborhood_graph",
    "edge_depths",
    "mqg_edge_weights",
]
