"""Multi-tuple queries: merging and re-weighting per-tuple MQGs (Sec. III-D).

When the user provides several example tuples, GQBE discovers one MQG per
tuple and merges them into a single *merged MQG* that is then evaluated by
the same lattice machinery as a single-tuple query:

1. Each per-tuple MQG ``M_ti`` is turned into a *virtual* MQG ``M'_ti`` by
   replacing its query entities ``v_i1 ... v_in`` with virtual entities
   ``w_1 ... w_n`` (position-wise); non-query nodes keep their identity.
2. The merged MQG is the union of all virtual MQGs: identical vertices and
   identical edges (same label, same endpoints) are merged.
3. The weight of a merged edge is ``c · w_max(e)`` where ``c`` is the number
   of virtual MQGs containing the edge and ``w_max`` its maximum weight
   among them — edges shared by several example tuples become more
   important.
4. If the merged graph exceeds the target size ``r`` it is trimmed with the
   same greedy selection as Algorithm 1.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.exceptions import DiscoveryError
from repro.graph.knowledge_graph import Edge, KnowledgeGraph
from repro.discovery.mqg import (
    DEFAULT_MQG_SIZE,
    MaximalQueryGraph,
    select_mqg_edges,
)

#: Prefix used for the virtual entities that replace query entities.
VIRTUAL_ENTITY_PREFIX = "__w"


def virtual_entity(position: int) -> str:
    """Name of the virtual entity standing for query-tuple position ``position``."""
    return f"{VIRTUAL_ENTITY_PREFIX}{position + 1}"


def virtualize_mqg(mqg: MaximalQueryGraph) -> tuple[KnowledgeGraph, dict[Edge, float]]:
    """Replace the MQG's query entities with virtual entities.

    Returns the virtual graph and the weight mapping carried over onto the
    renamed edges.
    """
    mapping = {
        entity: virtual_entity(position)
        for position, entity in enumerate(mqg.query_tuple)
    }

    def rename(node: str) -> str:
        return mapping.get(node, node)

    virtual_graph = KnowledgeGraph()
    virtual_weights: dict[Edge, float] = {}
    for node in mqg.graph.nodes:
        virtual_graph.add_node(rename(node))
    for edge in mqg.graph.edges:
        renamed = virtual_graph.add_edge(rename(edge.subject), edge.label, rename(edge.object))
        weight = mqg.edge_weights.get(edge, 0.0)
        # Two distinct edges can collapse onto the same renamed edge (e.g.
        # parallel relationships from different entities); keep the max.
        if renamed not in virtual_weights or weight > virtual_weights[renamed]:
            virtual_weights[renamed] = weight
    return virtual_graph, virtual_weights


def merge_maximal_query_graphs(
    mqgs: Sequence[MaximalQueryGraph],
    r: int = DEFAULT_MQG_SIZE,
) -> MaximalQueryGraph:
    """Merge several per-tuple MQGs into one merged, re-weighted MQG.

    All input MQGs must have query tuples of the same arity.  The merged
    MQG's query tuple consists of the virtual entities ``__w1 ... __wn``.
    """
    if not mqgs:
        raise DiscoveryError("cannot merge an empty list of MQGs")
    arities = {len(mqg.query_tuple) for mqg in mqgs}
    if len(arities) != 1:
        raise DiscoveryError(
            f"all query tuples must have the same arity, got arities {sorted(arities)}"
        )
    arity = arities.pop()
    virtual_tuple = tuple(virtual_entity(i) for i in range(arity))

    if len(mqgs) == 1:
        # Still virtualize so downstream code can treat single- and
        # multi-tuple queries uniformly.
        graph, weights = virtualize_mqg(mqgs[0])
        core = frozenset(
            edge
            for edge in graph.edges
            if _is_core_candidate(edge, virtual_tuple, mqgs[0], graph)
        )
        return MaximalQueryGraph(
            graph=graph,
            query_tuple=virtual_tuple,
            edge_weights=weights,
            core_edges=core,
            discovery_weights=dict(weights),
        )

    merged_graph = KnowledgeGraph()
    presence_counts: dict[Edge, int] = {}
    max_weights: dict[Edge, float] = {}
    for mqg in mqgs:
        virtual_graph, virtual_weights = virtualize_mqg(mqg)
        for node in virtual_graph.nodes:
            merged_graph.add_node(node)
        for edge in virtual_graph.edges:
            merged_graph.add_edge_object(edge)
            presence_counts[edge] = presence_counts.get(edge, 0) + 1
            weight = virtual_weights.get(edge, 0.0)
            if edge not in max_weights or weight > max_weights[edge]:
                max_weights[edge] = weight

    merged_weights = {
        edge: presence_counts[edge] * max_weights[edge] for edge in presence_counts
    }

    # Trim back to the target size with the same greedy machinery if needed.
    if merged_graph.num_edges > r:
        selected, core_selection = select_mqg_edges(
            merged_graph, virtual_tuple, merged_weights, r=r
        )
        trimmed = KnowledgeGraph()
        for entity in virtual_tuple:
            trimmed.add_node(entity)
        for edge in selected:
            trimmed.add_edge_object(edge)
        merged_graph = trimmed
        merged_weights = {edge: merged_weights[edge] for edge in selected}
    else:
        _, core_selection = select_mqg_edges(
            merged_graph, virtual_tuple, merged_weights, r=max(merged_graph.num_edges, 1)
        )

    return MaximalQueryGraph(
        graph=merged_graph,
        query_tuple=virtual_tuple,
        edge_weights=merged_weights,
        core_edges=frozenset(core_selection),
        discovery_weights=dict(merged_weights),
    )


def _is_core_candidate(
    edge: Edge,
    virtual_tuple: tuple[str, ...],
    original: MaximalQueryGraph,
    virtual_graph: KnowledgeGraph,
) -> bool:
    """Whether a virtualized edge corresponds to a core edge of the original MQG."""
    mapping = {
        entity: virtual_entity(position)
        for position, entity in enumerate(original.query_tuple)
    }

    def rename(node: str) -> str:
        return mapping.get(node, node)

    for core_edge in original.core_edges:
        renamed = Edge(rename(core_edge.subject), core_edge.label, rename(core_edge.object))
        if renamed == edge:
            return True
    return False
