# gqbe: contract[deterministic]
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

All three steps run on :class:`_EdgeRows`: one row per edge, endpoints as
node positions, weights as one float array.  A neighborhood already is
that (its id columns, reduced or not), so nothing is decoded but the node
terms that order tied weights and the ``r`` or so rows that end up in the
MQG; the merged virtual graph of Sec. III-D, held as strings, numbers its
nodes first.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.exceptions import DisconnectedQueryError, DiscoveryError
from repro.graph.knowledge_graph import Edge, KnowledgeGraph
from repro.graph.neighborhood import NeighborhoodColumns, NeighborhoodGraph
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
# A graph as Algorithm 1 reads it
# ----------------------------------------------------------------------
class _EdgeRows(NamedTuple):
    """One row per edge, endpoints as node positions.

    The query entities hold positions ``0 .. n - 1``.  ``ranks`` is each
    row's rank in :class:`Edge` order (subject, label, object strings):
    the tie-break of every weight order below, so equal weights fall the
    same way whatever the rows were numbered from.  ``edges_at`` turns
    row numbers back into edges.
    """

    subjects: "np.ndarray"
    objects: "np.ndarray"
    num_nodes: int
    ranks: "np.ndarray"
    edges_at: Callable[[Sequence[int]], list[Edge]]


def _ranks(items: Sequence) -> "np.ndarray":
    """The rank of each of the (distinct) ``items`` in their sorted order."""
    ranks = np.empty(len(items), dtype=np.int64)
    ranks[sorted(range(len(items)), key=items.__getitem__)] = np.arange(len(items))
    return ranks


def _rows_of_columns(columns: NeighborhoodColumns) -> _EdgeRows:
    """The id columns of a neighborhood, as they are: the BFS they came
    from started at the query entities, so those hold the first positions."""
    terms = columns.terms()
    label_strings = columns.label_strings
    subjects, labels, objects = columns.subjects, columns.labels, columns.objects
    node_ranks = _ranks(terms)
    used_labels, label_slots = np.unique(labels, return_inverse=True)
    label_ranks = _ranks([label_strings[label] for label in used_labels.tolist()])
    ranks = np.empty(len(labels), dtype=np.int64)
    ranks[
        np.lexsort((node_ranks[objects], label_ranks[label_slots], node_ranks[subjects]))
    ] = np.arange(len(labels))

    def edges_at(rows: Sequence[int]) -> list[Edge]:
        return [
            Edge(terms[subject], label_strings[label], terms[obj])
            for subject, label, obj in zip(
                subjects[rows].tolist(), labels[rows].tolist(), objects[rows].tolist()
            )
        ]

    return _EdgeRows(subjects, objects, len(terms), ranks, edges_at)


def _rows_of_edges(edges: Sequence[Edge], query_tuple: Sequence[str]) -> _EdgeRows:
    """Number the nodes of a graph held as strings, query entities first."""
    positions = {entity: position for position, entity in enumerate(query_tuple)}
    subjects = [positions.setdefault(edge.subject, len(positions)) for edge in edges]
    objects = [positions.setdefault(edge.object, len(positions)) for edge in edges]
    return _EdgeRows(
        np.array(subjects, dtype=np.int64),
        np.array(objects, dtype=np.int64),
        len(positions),
        _ranks(edges),
        lambda rows: [edges[row] for row in rows],
    )


# ----------------------------------------------------------------------
# Partitioning the neighborhood graph (divide step)
# ----------------------------------------------------------------------
def _divide(rows: _EdgeRows, arity: int) -> "np.ndarray":
    """The part each row falls in: ``i`` for the individual subgraph of
    query entity ``i``, ``arity`` for the core graph.

    A node belongs to entity ``v_i`` when, with ``v_i`` taken out of the
    graph, it can no longer reach any other query entity (for a
    single-entity tuple every other node does); an edge with such an
    endpoint belongs to the first entity, in tuple order, that owns one,
    and every other edge is core.  One sweep per entity grows the set
    reached from the *other* entities over the edges that avoid it.
    """
    subjects, objects = rows.subjects, rows.objects
    owner = np.full(rows.num_nodes, arity, dtype=np.int64)
    for entity in reversed(range(arity)):  # earlier entities overwrite later ones
        avoiding = (subjects != entity) & (objects != entity)
        side_a, side_b = subjects[avoiding], objects[avoiding]
        reached = np.zeros(rows.num_nodes, dtype=bool)
        reached[:arity] = True
        reached[entity] = False
        while True:
            crossing = reached[side_a] != reached[side_b]
            if not crossing.any():
                break
            reached[side_a[crossing]] = True
            reached[side_b[crossing]] = True
        reached[entity] = True  # an entity is not its own
        owner[~reached] = entity
    return np.minimum(owner[subjects], owner[objects])


# ----------------------------------------------------------------------
# Greedy component selection (conquer step)
# ----------------------------------------------------------------------
class _Forest:
    """Union-find over node positions with an edge count per component.

    Grown edge by edge, never rebuilt.  Unions hang the component with
    fewer edges under the other and finds leave the paths alone (depth
    stays within log2 of the edge count), so the last edge added can be
    taken back: a scan that overshoots its budget steps back one edge
    instead of starting over.
    """

    __slots__ = ("_subjects", "_objects", "_parent", "_edge_counts", "_last")

    def __init__(self, subjects: list[int], objects: list[int], num_nodes: int) -> None:
        self._subjects = subjects  # of every row that may be added
        self._objects = objects
        self._parent = list(range(num_nodes))
        self._edge_counts = [0] * num_nodes
        self._last = (0, 0)

    def _find(self, node: int) -> int:
        parent = self._parent
        while parent[node] != node:
            node = parent[node]
        return node

    def grow(
        self, rows: Sequence[int], required: Sequence[int], enough: int
    ) -> tuple[int, int, int]:
        """Add ``rows`` one by one until the component that holds every
        ``required`` node has ``enough`` edges.

        Returns ``(rows added, that component's edge count, its edge count
        one row earlier)``; a count is 0 while the required nodes are
        apart, or while the only one has no edge yet.
        """
        subjects, objects = self._subjects, self._objects
        parent, edge_counts = self._parent, self._edge_counts
        first, others = required[0], required[1:]
        upper = lower = self._find(first)
        size = edge_counts[upper] if all(self._find(node) == upper for node in others) else 0
        before, added = size, 0
        for row in rows:
            upper = subjects[row]
            while parent[upper] != upper:
                upper = parent[upper]
            lower = objects[row]
            while parent[lower] != lower:
                lower = parent[lower]
            if upper == lower:
                edge_counts[upper] += 1
            else:
                if edge_counts[upper] < edge_counts[lower]:
                    upper, lower = lower, upper
                parent[lower] = upper
                edge_counts[upper] += edge_counts[lower] + 1
            added += 1
            before = size
            # Only the component just touched can be the required one, changed.
            root = first
            while parent[root] != root:
                root = parent[root]
            if root == upper:
                for node in others:
                    while parent[node] != node:
                        node = parent[node]
                    if node != upper:
                        break
                else:
                    size = edge_counts[upper]
                    if size >= enough:
                        break
        if added:
            self._last = (upper, lower)
        return added, size, before

    def take_back(self) -> None:
        """Undo the last row :meth:`grow` added (once)."""
        upper, lower = self._last
        if upper == lower:
            self._edge_counts[upper] -= 1
        else:
            self._parent[lower] = lower
            self._edge_counts[upper] -= self._edge_counts[lower] + 1

    def component(self, rows: Sequence[int], node: int) -> list[int]:
        """Those of the added ``rows`` that lie in ``node``'s component."""
        root = self._find(node)
        find, subjects = self._find, self._subjects
        return [row for row in rows if find(subjects[row]) == root]


class _Selection:
    """Algorithm 1's conquer step over one graph's rows and weights."""

    def __init__(self, rows: _EdgeRows, weights: "np.ndarray") -> None:
        self._ranks = rows.ranks
        self._weights = weights
        self._subjects = rows.subjects.tolist()
        self._objects = rows.objects.tolist()
        self._num_nodes = rows.num_nodes

    def _forest(self) -> _Forest:
        return _Forest(self._subjects, self._objects, self._num_nodes)

    def select(self, ordered: list[int], required: Sequence[int], budget: int) -> list[int]:
        """The rows of one part that go into the MQG.

        ``ordered`` holds the part's rows by descending weight.  Alg. 1
        asks, for each prefix, for the component containing ``required``
        and takes the one with exactly ``budget`` edges if a prefix has
        one, else the largest below, else the smallest above (trimmed back
        towards the budget, so hub entities cannot blow the MQG and with
        it the query lattice up).  That component only ever grows, so the
        first prefix to reach the budget settles which of the three it is
        and the scan stops there.  Empty when no prefix connects
        ``required``.
        """
        forest = self._forest()
        length, size, below = forest.grow(ordered, required, budget)
        if not size:
            return []
        if size > budget:
            if not below:
                above = forest.component(ordered[:length], required[0])
                return self._trim(above, required, budget)
            forest.take_back()
            length -= 1
        return forest.component(ordered[:length], required[0])

    def _trim(self, component: list[int], required: Sequence[int], budget: int) -> list[int]:
        """Shrink a too-large component back towards ``budget`` edges.

        The greedy removes edges by ascending weight for as long as the
        rest still connects every ``required`` node (a removal that cuts a
        fragment off drops the whole fragment) and stops once the
        component is down to the budget.  Removing the lightest edges
        leaves the heaviest, so the same trajectory is read off by
        *adding* edges from the heaviest down: the required component
        appears at some point and grows from there, and the greedy ends
        at the last point where it is within budget.  If it is already
        over budget when it appears, the edge that completed it is one the
        greedy would have refused to remove; bridges stay bridges under
        further removals, so it is kept for good and the sweep starts
        over with it in place.
        """
        rows = np.array(component, dtype=np.int64)
        ascending = np.lexsort((self._ranks[rows], self._weights[rows]))
        descending = rows[ascending[::-1]].tolist()
        kept: list[int] = []  # refused removals
        limit = len(descending)  # descending[limit:] are decided: removed, or in `kept`
        while True:
            forest = self._forest()
            _, size, _ = forest.grow(kept, required, len(kept) + 1)
            top = 0
            if not size:
                top, size, _ = forest.grow(descending, required, 1)
                if size > budget:
                    kept.append(descending[top - 1])
                    limit = top - 1
                    continue
            # Within budget (or `kept` alone is over it, and stays): heavier
            # edges come back in for as long as it remains so.
            more, size, _ = forest.grow(descending[top:limit], required, budget + 1)
            if more and size > budget:
                forest.take_back()
                more -= 1
            return forest.component(kept + descending[: top + more], required[0])


def _select_rows(
    rows: _EdgeRows,
    weights: "np.ndarray",
    query_tuple: tuple[str, ...],
    r: int,
    d: int,
) -> tuple[list[int], list[int]]:
    """Divide and conquer over ``rows``: ``(MQG rows, core component rows)``,
    both ascending."""
    arity = len(query_tuple)
    if not arity:
        raise DiscoveryError("query tuple must contain at least one entity")
    budget = max(r // (arity + 1), 1)

    parts = _divide(rows, arity)
    # One sort serves every part: descending weight, Edge order within ties.
    order = np.lexsort((rows.ranks, -weights))
    parts_in_order = parts[order]
    selection = _Selection(rows, weights)

    core: list[int] = []
    if arity > 1:
        # A path between two query entities runs through core edges only,
        # so a core that never joins them means the tuple is disconnected.
        core = selection.select(
            order[parts_in_order == arity].tolist(), range(arity), budget
        )
        if not core:
            raise DisconnectedQueryError(query_tuple, d)
    selected = list(core)
    for entity in range(arity):
        selected += selection.select(
            order[parts_in_order == entity].tolist(), (entity,), budget
        )
    if not selected:
        raise DiscoveryError(
            "MQG discovery selected no edges; the neighborhood of the query "
            "tuple is empty"
        )
    return sorted(selected), sorted(core)


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------
def select_mqg_edges(
    graph: KnowledgeGraph,
    query_tuple: Sequence[str],
    weights: Mapping[Edge, float],
    r: int = DEFAULT_MQG_SIZE,
) -> tuple[list[Edge], list[Edge]]:
    """Run the divide-and-conquer greedy selection on an arbitrary graph.

    Returns ``(mqg_edges, core_component_edges)``, both in the graph's edge
    order.  This low-level function is reused to trim merged multi-tuple
    MQGs (whose weights come from the merge, not from graph statistics).
    """
    edges = list(graph.edges)
    rows = _rows_of_edges(edges, query_tuple)
    edge_weights = np.array([weights.get(edge, 0.0) for edge in edges], dtype=np.float64)
    selected, core = _select_rows(rows, edge_weights, tuple(query_tuple), r, d=0)
    return rows.edges_at(selected), rows.edges_at(core)


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

    The neighborhood's id columns, reduced or not, stay undecoded:
    ``stats.column_weights`` weighs their rows on the ids and Algorithm 1
    reads them.
    """
    entities = neighborhood.query_tuple
    working = reduce_neighborhood_graph(neighborhood) if reduce_first else neighborhood
    rows = _rows_of_columns(working.columns)
    weights = stats.column_weights(working.columns)
    selected, core = _select_rows(rows, weights, entities, r, neighborhood.d)

    mqg_graph = KnowledgeGraph()
    for entity in entities:
        mqg_graph.add_node(entity)
    mqg_edges = rows.edges_at(selected)
    for edge in mqg_edges:
        mqg_graph.add_edge_object(edge)

    discovery_weights = dict(zip(mqg_edges, weights[selected].tolist()))
    return MaximalQueryGraph(
        graph=mqg_graph,
        query_tuple=tuple(entities),
        edge_weights=mqg_edge_weights(mqg_graph, entities, discovery_weights),
        core_edges=frozenset(rows.edges_at(core)),
        discovery_weights=discovery_weights,
    )
