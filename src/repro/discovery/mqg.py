"""Maximal query graph discovery (Definition 5, Algorithm 1, Theorem 1).

Finding the exact maximum-weight connected subgraph with ``m`` edges that
contains all query entities is NP-hard (Theorem 1 reduces from the
constrained Steiner network problem), so GQBE uses a greedy
divide-and-conquer heuristic:

1. Split the (reduced) neighborhood graph into ``n + 1`` parts for an
   ``n``-entity query tuple: a **core graph** containing the query entities
   and the undirected paths between them, plus one **individual subgraph**
   per query entity containing the nodes that reach the other query entities
   only through it.
2. In each part, consider edges in descending weight order (Eq. 2) and find
   the prefix ``s`` whose top-``s`` edge graph has a weakly connected
   component ``M_s`` containing that part's query entities with edge count
   as close to the per-part budget ``m = r / (n + 1)`` as possible
   (exactly ``m`` if possible, else the largest below, else the smallest
   above).
3. The union of the chosen components is the MQG.  Its edges are then
   re-weighted with the depth-adjusted weight of Eq. 8 for answer scoring.

The returned :class:`MaximalQueryGraph` also remembers which of its edges
belong to the core component, because the minimal query trees of the lattice
(Sec. IV-A) are enumerated from the core.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from repro.exceptions import DisconnectedQueryError, DiscoveryError
from repro.graph.knowledge_graph import Edge, KnowledgeGraph
from repro.graph.neighborhood import NeighborhoodGraph
from repro.graph.statistics import GraphStatistics
from repro.discovery.reduction import reduce_neighborhood_graph
from repro.discovery.weights import mqg_edge_weights

#: Default MQG size target used throughout the paper's experiments.
DEFAULT_MQG_SIZE = 15


@dataclass
class MaximalQueryGraph:
    """The weighted maximal query graph (MQG) discovered for a query tuple.

    Attributes
    ----------
    graph:
        The MQG itself, a small weakly connected subgraph of the data graph
        (or of the merged virtual graph for multi-tuple queries).
    query_tuple:
        The query entities (or virtual entities ``__w1``, ``__w2``, ... for a
        merged multi-tuple MQG).
    edge_weights:
        Weight per MQG edge used for answer scoring.  For a single-tuple MQG
        this is the depth-adjusted Eq. 8 weight; for a merged MQG it is the
        ``c · w_max`` re-weighting of Sec. III-D.
    core_edges:
        MQG edges that belong to the core component (paths between query
        entities); the minimal query trees are enumerated from these.
    discovery_weights:
        The Eq. 2 weights that drove the greedy selection (kept for
        diagnostics and ablation benchmarks).
    """

    graph: KnowledgeGraph
    query_tuple: tuple[str, ...]
    edge_weights: dict[Edge, float]
    core_edges: frozenset[Edge]
    discovery_weights: dict[Edge, float] = field(default_factory=dict)

    @property
    def num_edges(self) -> int:
        """Number of edges in the MQG."""
        return self.graph.num_edges

    @property
    def num_nodes(self) -> int:
        """Number of nodes in the MQG."""
        return self.graph.num_nodes

    def edges(self) -> list[Edge]:
        """Deterministically ordered list of the MQG's edges."""
        return sorted(self.graph.edges)

    def weight(self, edge: Edge) -> float:
        """Scoring weight of ``edge``."""
        return self.edge_weights[edge]

    def total_weight(self) -> float:
        """Sum of all edge weights (the structure score of the full MQG)."""
        return sum(self.edge_weights.values())

    def incident_count(self, node: str) -> int:
        """|E(node)| within the MQG — used by the content score (Eq. 6)."""
        return self.graph.degree(node)


# ----------------------------------------------------------------------
# Partitioning the neighborhood graph (divide step)
# ----------------------------------------------------------------------
def _individual_node_sets(
    graph: KnowledgeGraph, query_tuple: Sequence[str]
) -> dict[str, set[str]]:
    """Nodes that reach the *other* query entities only through each entity.

    For entity ``v_i`` this is the set of nodes that, once ``v_i`` is
    removed from the graph, can no longer reach any other query entity.
    For a single-entity tuple every other node qualifies.
    """
    entities = list(query_tuple)
    result: dict[str, set[str]] = {}
    for entity in entities:
        others = [e for e in entities if e != entity]
        # Undirected BFS from the other query entities avoiding `entity`.
        reachable: set[str] = set()
        frontier: list[str] = []
        for other in others:
            if other not in reachable:
                reachable.add(other)
                frontier.append(other)
        while frontier:
            node = frontier.pop()
            for neighbor in graph.neighbors(node):
                if neighbor == entity or neighbor in reachable:
                    continue
                reachable.add(neighbor)
                frontier.append(neighbor)
        exclusive = {
            node
            for node in graph.nodes
            if node != entity and node not in reachable
        }
        result[entity] = exclusive
    return result


def _partition_edges(
    graph: KnowledgeGraph, query_tuple: Sequence[str]
) -> tuple[set[Edge], dict[str, set[Edge]]]:
    """Split the graph's edges into core edges and per-entity edges."""
    exclusive_nodes = _individual_node_sets(graph, query_tuple)
    individual_edges: dict[str, set[Edge]] = {entity: set() for entity in query_tuple}
    core_edges: set[Edge] = set()
    for edge in graph.edges:
        owner: str | None = None
        for entity, nodes in exclusive_nodes.items():
            if edge.subject in nodes or edge.object in nodes:
                owner = entity
                break
        if owner is None:
            core_edges.add(edge)
        else:
            individual_edges[owner].add(edge)
    return core_edges, individual_edges


# ----------------------------------------------------------------------
# Greedy component selection (conquer step)
# ----------------------------------------------------------------------
class _UnionFind:
    """Incremental union-find over node names with per-component edge counts.

    The structure behind the Alg. 1 prefix scan of :func:`_select_component`
    (grow components edge by edge, never rebuild) — also reused by
    :func:`_trim_component`'s reverse sweeps.  ``find`` uses path halving;
    unions attach the smaller component (by edge count) under the larger.
    """

    __slots__ = ("_parent", "_edge_counts")

    def __init__(self) -> None:
        self._parent: dict[str, str] = {}
        self._edge_counts: dict[str, int] = {}

    def find(self, node: str) -> str:
        parent = self._parent
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    def add_edge(self, subject: str, obj: str) -> None:
        """Add one edge, creating endpoints and merging components."""
        parent = self._parent
        edge_counts = self._edge_counts
        if subject not in parent:
            parent[subject] = subject
            edge_counts[subject] = 0
        if obj not in parent:
            parent[obj] = obj
            edge_counts[obj] = 0
        subject_root = self.find(subject)
        object_root = self.find(obj)
        if subject_root == object_root:
            edge_counts[subject_root] += 1
        else:
            if edge_counts[subject_root] < edge_counts[object_root]:
                subject_root, object_root = object_root, subject_root
            parent[object_root] = subject_root
            edge_counts[subject_root] += edge_counts[object_root] + 1

    def component_edges(self, root: str) -> int:
        """Edge count of the component rooted at ``root``."""
        return self._edge_counts[root]

    def connected_root(self, nodes: Iterable[str]) -> str | None:
        """The common component root of ``nodes``, or ``None``.

        ``None`` means some node is absent (isolated) or the nodes span
        multiple components — the same "not connected here" answer
        :func:`_component_containing` gives.
        """
        root: str | None = None
        for node in nodes:
            if node not in self._parent:
                return None
            node_root = self.find(node)
            if root is None:
                root = node_root
            elif node_root != root:
                return None
        return root


def _component_containing(
    edges: Sequence[Edge], required: set[str]
) -> tuple[set[Edge], bool]:
    """Weakly connected component (as an edge set) containing ``required``.

    Returns ``(component_edges, exists)``.  ``exists`` is False when the
    required nodes are missing or split across components.
    """
    adjacency: dict[str, list[Edge]] = {}
    for edge in edges:
        adjacency.setdefault(edge.subject, []).append(edge)
        adjacency.setdefault(edge.object, []).append(edge)
    for node in required:
        if node not in adjacency:
            return set(), False

    start = next(iter(required))
    seen_nodes = {start}
    component: set[Edge] = set()
    stack = [start]
    while stack:
        node = stack.pop()
        for edge in adjacency.get(node, ()):
            component.add(edge)
            other = edge.other(node)
            if other not in seen_nodes:
                seen_nodes.add(other)
                stack.append(other)
    if not required <= seen_nodes:
        return set(), False
    return component, True


def _trim_component(
    component: set[Edge],
    required: set[str],
    weights: Mapping[Edge, float],
    target: int,
) -> set[Edge]:
    """Shrink a too-large component back towards ``target`` edges.

    Low-weight edges are removed greedily as long as the remaining edges
    still form a weakly connected graph containing every ``required`` node
    (removals that disconnect a fragment from the required nodes drop the
    whole fragment).  This keeps the MQG close to the requested size even
    when the prefix component found by the greedy scan jumps far past the
    target (which happens around hub entities such as popular awards).

    The naive greedy rebuilds the required component per removed edge
    (quadratic, with a sort per removal on top).  This implementation
    produces the *same* result with reverse union-find sweeps: removing
    the ascending-weight prefix ``ordered[:s]`` leaves the suffix
    ``ordered[s:]``, so adding edges in reverse order yields, per ``s``,
    both the connectivity of the required nodes and their component's
    edge count — i.e. the whole greedy trajectory — in one O(E α) pass.
    A removal that would disconnect the required nodes (a rejected edge)
    permanently re-enters the graph: bridges stay bridges under further
    removals, so rejected edges are final and only trigger a fresh sweep
    seeded with them.  Total cost O((rejections + 1) · E α) instead of
    O(E² log E).
    """
    if len(component) <= target:
        return component
    ordered = sorted(component, key=lambda e: (weights.get(e, 0.0), e))
    total = len(ordered)
    kept: list[Edge] = []  # rejected removals: required-bridges, kept forever
    segment_start = 0
    while True:
        # State s == the greedy's graph after processing ordered[:s]:
        # kept ∪ ordered[s:].  Sweep s from `total` down to the segment
        # start, recording required-connectivity and component size.
        connected = [False] * (total + 1)
        sizes = [0] * (total + 1)
        union_find = _UnionFind()
        for edge in kept:
            union_find.add_edge(edge.subject, edge.object)
        for s in range(total, segment_start - 1, -1):
            if s < total:
                union_find.add_edge(ordered[s].subject, ordered[s].object)
            root = union_find.connected_root(required)
            if root is not None:
                connected[s] = True
                sizes[s] = union_find.component_edges(root)

        rejected_at: int | None = None
        stop_at: int | None = None
        for s in range(segment_start, total):
            if sizes[s] <= target:
                stop_at = s  # the greedy's size check before each removal
                break
            if not connected[s + 1]:
                rejected_at = s  # removing ordered[s] splits the required
                break
        if rejected_at is None:
            final = total if stop_at is None else stop_at
            return _component_containing(kept + ordered[final:], required)[0]
        kept.append(ordered[rejected_at])
        segment_start = rejected_at + 1


def _select_component(
    edges: set[Edge],
    required: set[str],
    weights: Mapping[Edge, float],
    target: int,
) -> set[Edge]:
    """Greedy Alg. 1 selection for one part of the divide-and-conquer.

    Scans prefixes of the weight-ordered edge list and returns the component
    containing ``required`` whose edge count is exactly ``target`` if such a
    prefix exists, otherwise the largest count below ``target``, otherwise
    the smallest count above (trimmed back down towards the target).
    """
    if not edges:
        return set()
    if target <= 0:
        target = 1
    ordered = sorted(edges, key=lambda e: (-weights.get(e, 0.0), e))

    # Alg. 1 scans the prefixes of the weight-ordered edge list and asks,
    # for each, for the component containing the required nodes.  Instead
    # of rebuilding that component per prefix (quadratic), grow a
    # union-find incrementally, tracking the edge count per component, and
    # materialize only the prefix that wins the preference order below.
    union_find = _UnionFind()
    required_list = list(required)
    s_exact: int | None = None
    s_below: int | None = None
    s_above: int | None = None

    for s, edge in enumerate(ordered, 1):
        union_find.add_edge(edge.subject, edge.object)
        root = union_find.connected_root(required_list)
        if root is None:
            continue
        size = union_find.component_edges(root)
        if size == target:
            s_exact = s
            break
        if size < target:
            # keep the largest-below candidate (later prefixes grow it)
            s_below = s
        elif s_above is None:
            s_above = s

    # Algorithm 1's preference order: exact size m, else the largest
    # component below m (s1), else the smallest component above m (s2),
    # the latter trimmed back towards m so hub entities cannot blow the
    # MQG (and with it the query lattice) up arbitrarily.
    if s_exact is not None:
        return _component_containing(ordered[:s_exact], required)[0]
    if s_below is not None:
        return _component_containing(ordered[:s_below], required)[0]
    if s_above is not None:
        component, _ = _component_containing(ordered[:s_above], required)
        return _trim_component(component, required, weights, target)
    return set()


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------
def select_mqg_edges(
    graph: KnowledgeGraph,
    query_tuple: Sequence[str],
    weights: Mapping[Edge, float],
    r: int = DEFAULT_MQG_SIZE,
) -> tuple[set[Edge], set[Edge]]:
    """Run the divide-and-conquer greedy selection on an arbitrary graph.

    Returns ``(mqg_edges, core_component_edges)``.  This low-level function
    is reused to trim merged multi-tuple MQGs (whose weights come from the
    merge, not from graph statistics).
    """
    entities = tuple(query_tuple)
    if not entities:
        raise DiscoveryError("query tuple must contain at least one entity")
    per_part_budget = max(r // (len(entities) + 1), 1)

    core_edges, individual_edges = _partition_edges(graph, entities)

    selected: set[Edge] = set()
    core_required = set(entities)
    core_selection: set[Edge] = set()
    if core_edges and len(entities) > 1:
        core_selection = _select_component(
            core_edges, core_required, weights, per_part_budget
        )
        if not core_selection:
            # Fall back to the whole core; connectivity of the query
            # entities must be preserved even if it exceeds the budget.
            core_selection, exists = _component_containing(
                sorted(core_edges), core_required
            )
            if not exists:
                raise DisconnectedQueryError(entities, d=0)
            core_selection = _trim_component(
                core_selection, core_required, weights, per_part_budget
            )
        selected |= core_selection

    for entity in entities:
        part_edges = individual_edges.get(entity, set())
        if not part_edges:
            continue
        part_selection = _select_component(
            part_edges, {entity}, weights, per_part_budget
        )
        selected |= part_selection

    if not selected:
        raise DiscoveryError(
            "MQG discovery selected no edges; the neighborhood of the query "
            "tuple is empty"
        )
    return selected, core_selection


def discover_maximal_query_graph(
    neighborhood: NeighborhoodGraph,
    stats: GraphStatistics,
    r: int = DEFAULT_MQG_SIZE,
    reduce_first: bool = True,
) -> MaximalQueryGraph:
    """Discover the MQG of a query tuple from its neighborhood graph.

    Parameters
    ----------
    neighborhood:
        The neighborhood graph ``H_t`` (Definition 1).
    stats:
        Offline statistics of the *data graph* (not of the neighborhood):
        the source of the Eq. 2 discovery weights, one lookup round per
        neighborhood.  The Eq. 8 scoring weights of the chosen edges are
        those same weights divided by the squared depth.
    r:
        Target MQG size (number of edges); the paper uses ``r = 15``.
    reduce_first:
        Apply the unimportant-edge reduction of Sec. III-C before running
        Algorithm 1 (the paper always does; disabling it is useful for
        ablation experiments).

    Where the weights come from follows where the neighborhood came from:
    one extracted from a mapped or delta graph carries id columns, reduced
    or not, and ``stats.weights_for`` receives them next to the edges —
    mapped statistics then compute Eq. 2 for all rows as one array, dict
    statistics (the executable spec, and all an owned graph has) look each
    edge up by its strings.  The floats are the same either way.
    """
    entities = neighborhood.query_tuple
    working = reduce_neighborhood_graph(neighborhood) if reduce_first else neighborhood

    graph = working.graph
    if len(entities) > 1:
        # All query entities must be weakly connected in the neighborhood.
        components = graph.weakly_connected_components()
        if not any(set(entities) <= component for component in components):
            raise DisconnectedQueryError(entities, neighborhood.d)

    weights = stats.weights_for(graph.edges, working.columns)
    mqg_edges, core_selection = select_mqg_edges(graph, entities, weights, r=r)

    mqg_graph = KnowledgeGraph()
    for entity in entities:
        mqg_graph.add_node(entity)
    for edge in mqg_edges:
        mqg_graph.add_edge_object(edge)

    discovery_weights = {edge: weights[edge] for edge in mqg_edges}
    core_in_mqg = frozenset(edge for edge in core_selection if edge in mqg_edges)
    return MaximalQueryGraph(
        graph=mqg_graph,
        query_tuple=tuple(entities),
        edge_weights=mqg_edge_weights(mqg_graph, entities, discovery_weights),
        core_edges=core_in_mqg,
        discovery_weights=discovery_weights,
    )
