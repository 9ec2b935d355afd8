# gqbe: contract[deterministic]
"""Neighborhood graph extraction (Definition 1 of the paper).

The *neighborhood graph* ``H_t`` of a query tuple ``t`` is the subgraph of
the data graph ``G`` consisting of every node reachable from at least one
query entity by an undirected path of at most ``d`` edges, together with the
edges of all such paths.  It captures how query entities relate to the
entities around them and serves as the raw material from which the maximal
query graph is discovered.

Implementation: a multi-source BFS over undirected adjacency gives the
minimum undirected distance ``dist_q(v)`` from any query entity to each
node.  Then

* ``v ∈ V(H_t)``   iff ``dist_q(v) ≤ d``
* ``e=(u,v) ∈ E(H_t)`` iff ``min(dist_q(u), dist_q(v)) ≤ d − 1``

because an edge one of whose endpoints lies within ``d − 1`` hops of a query
entity lies on an undirected path of length ≤ ``d`` starting at that entity.

Over a :class:`~repro.graph.mapped.MappedKnowledgeGraph` (a v3 sharded
snapshot) or a :class:`~repro.graph.delta.DeltaKnowledgeGraph` the BFS
runs on the int64 CSR columns and ``H_t`` itself stays in id space
(:class:`NeighborhoodColumns`), gathered with whole-array operations:
most of it is noise the reduction of Sec. III-C is about to remove, so
:class:`~repro.graph.knowledge_graph.Edge` objects are built only for
the edges that survive it (or for all of ``H_t`` if someone asks for
``.graph``).  The column orders mirror the dict-of-lists implementation
exactly (out list then in list, per node, in per-node insertion order),
so the neighborhood — and every answer downstream of it — is
byte-identical across backings.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import NamedTuple

import numpy as np

from repro.exceptions import QueryError, UnknownEntityError
from repro.graph.delta import DeltaKnowledgeGraph
from repro.graph.knowledge_graph import Edge, KnowledgeGraph
from repro.graph.mapped import MappedKnowledgeGraph


class NeighborhoodColumns(NamedTuple):
    """``H_t`` in id space: what a mapped or delta graph's neighborhood is
    until someone asks for strings.

    ``node_ids`` / ``node_distances`` list the nodes of ``H_t`` in BFS
    order, so the ``near_count`` nodes within ``d - 1`` hops come first.
    The three edge columns list the edges in ``H_t``'s edge order;
    ``subjects`` and ``objects`` are *positions into* ``node_ids`` rather
    than raw ids, so "is this endpoint near" is one comparison and every
    key the reduction builds is bounded by the neighborhood's size, never
    by the vocabulary's.
    """

    term_of: Callable[[int], str]
    label_strings: Sequence[str]
    node_ids: "np.ndarray"
    node_distances: "np.ndarray"
    near_count: int
    subjects: "np.ndarray"
    labels: "np.ndarray"
    objects: "np.ndarray"

    def terms(self, positions: "np.ndarray | slice" = slice(None)) -> list[str]:
        """The entity strings of the nodes at ``positions`` (default: all)."""
        term_of = self.term_of
        return [term_of(node_id) for node_id in self.node_ids[positions].tolist()]

    def take(self, rows: "np.ndarray", nodes: "np.ndarray") -> "NeighborhoodColumns":
        """Only the edges at ``rows``, over only the nodes at ``nodes``
        (ascending positions that cover every endpoint of those rows, so
        BFS order and the near prefix carry over)."""
        positions = np.empty(len(self.node_ids), dtype=np.int64)
        positions[nodes] = np.arange(len(nodes))
        return self._replace(
            node_ids=self.node_ids[nodes],
            node_distances=self.node_distances[nodes],
            near_count=int(np.searchsorted(nodes, self.near_count)),
            subjects=positions[self.subjects[rows]],
            labels=self.labels[rows],
            objects=positions[self.objects[rows]],
        )

    def decode(self) -> list[Edge]:
        """The edge columns as :class:`Edge` objects, row by row."""
        terms = self.terms()
        label_strings = self.label_strings
        return [
            Edge(terms[subject], label_strings[label], terms[obj])
            for subject, label, obj in zip(
                self.subjects.tolist(), self.labels.tolist(), self.objects.tolist()
            )
        ]


class NeighborhoodGraph:
    """The neighborhood graph ``H_t`` plus the bookkeeping GQBE needs later.

    Attributes
    ----------
    graph:
        The subgraph ``H_t`` of the data graph.
    query_tuple:
        The query entities the neighborhood was grown from.
    d:
        The path-length threshold used.
    distances:
        ``dist_q(v)`` — minimum undirected distance from any query entity,
        for every node of ``H_t``.
    columns:
        ``H_t`` as :class:`NeighborhoodColumns` when it was extracted from
        a mapped or delta graph, else ``None``.  ``graph`` and
        ``distances`` are then decoded from the columns on first access;
        the reduction and MQG discovery read the columns and never ask.
        A *reduced* neighborhood of such an ``H_t`` is the same thing
        over the rows and nodes that survived.  Row ``i`` of the edge
        columns is the ``i``-th edge of ``graph.edges`` (the rows of
        ``H_t`` are distinct triples, inserted in row order), and the
        graph's nodes are the query entities followed by the other nodes
        in the order the rows first mention them — for ``H_t`` itself
        that is BFS order, the order of the node columns.
    """

    __slots__ = ("query_tuple", "d", "columns", "_graph", "_distances")

    def __init__(
        self,
        *,
        query_tuple: tuple[str, ...],
        d: int,
        graph: KnowledgeGraph | None = None,
        distances: dict[str, int] | None = None,
        columns: NeighborhoodColumns | None = None,
    ) -> None:
        self.query_tuple = query_tuple
        self.d = d
        self.columns = columns
        self._graph = graph
        self._distances = distances

    @property
    def graph(self) -> KnowledgeGraph:
        """``H_t`` as a :class:`KnowledgeGraph` (decoded once if columnar)."""
        if self._graph is None:
            graph = KnowledgeGraph()
            for entity in self.query_tuple:
                graph.add_node(entity)
            for edge in self.columns.decode():
                graph.add_edge_object(edge)
            self._graph = graph
        return self._graph

    @property
    def distances(self) -> dict[str, int]:
        """``dist_q`` per node of ``H_t`` (decoded once if columnar)."""
        if self._distances is None:
            columns = self.columns
            by_term = dict(zip(columns.terms(), columns.node_distances.tolist()))
            self._distances = {node: by_term[node] for node in self.graph.nodes}
        return self._distances

    @property
    def num_nodes(self) -> int:
        """Number of nodes in ``H_t`` (read off the columns while undecoded)."""
        if self._graph is None:
            return len(self.columns.node_ids)
        return self._graph.num_nodes

    @property
    def num_edges(self) -> int:
        """Number of edges in ``H_t`` (read off the columns while undecoded)."""
        if self._graph is None:
            return len(self.columns.subjects)
        return self._graph.num_edges

    def distance(self, node: str) -> int:
        """``dist_q(node)``; raises ``KeyError`` for nodes outside ``H_t``."""
        return self.distances[node]

    def contains_query_entities(self) -> bool:
        """Whether every query entity is a node of ``H_t`` (always true)."""
        return all(self.graph.has_node(entity) for entity in self.query_tuple)


def _validate_query_tuple(graph: KnowledgeGraph, query_tuple: Sequence[str]) -> tuple[str, ...]:
    entities = tuple(query_tuple)
    if not entities:
        raise QueryError("query tuples must contain at least one entity")
    if len(set(entities)) != len(entities):
        raise QueryError(f"query tuple {entities!r} contains duplicate entities")
    for entity in entities:
        if not graph.has_node(entity):
            raise UnknownEntityError(entity)
    return entities


def _gather_frontier(
    frontier: "np.ndarray",
    out_indptr: "np.ndarray",
    out_objects: "np.ndarray",
    in_indptr: "np.ndarray",
    in_subjects: "np.ndarray",
) -> "np.ndarray":
    """All neighbors of ``frontier``, in per-node out-then-in slice order.

    One gather per CSR direction; a stable sort on the owning frontier
    index then lays them out as a per-node loop would visit them (each
    node's out slice, then its in slice).
    """
    out_rows, out_owners = _csr_runs(out_indptr, frontier)
    in_rows, in_owners = _csr_runs(in_indptr, frontier)
    order = np.argsort(np.concatenate((out_owners, in_owners)), kind="stable")
    return np.concatenate((out_objects[out_rows], in_subjects[in_rows]))[order]


def _level_distances(levels: list["np.ndarray"]) -> "np.ndarray":
    """The distance of every node of the BFS levels, concatenated."""
    return np.repeat(np.arange(len(levels)), [len(level) for level in levels])


def _mapped_distance_ids(
    graph: MappedKnowledgeGraph,
    entities: Sequence[str],
    cutoff: int | None,
) -> tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
    """The BFS of :func:`query_entity_distances` over mapped CSR ids.

    Returns the reached node ids in BFS order, their distances, and one
    int32 array over the graph's nodes that is both the visited set and
    the id -> BFS position map (0 unvisited, else position + 1).  Each
    depth is one whole-frontier gather (:func:`_gather_frontier`) that
    keeps the first occurrence of every unvisited id in gather order,
    so the order is the adjacency-map path's exactly.
    """
    frontier = np.array([graph.node_id(entity) for entity in entities], dtype=np.int64)
    positions = np.zeros(graph.num_nodes, dtype=np.int32)
    positions[frontier] = np.arange(1, len(frontier) + 1)
    levels = [frontier]
    reached = len(frontier)
    columns = (graph.out_indptr, graph.out_objects, graph.in_indptr, graph.in_subjects)
    while len(frontier) and (cutoff is None or len(levels) <= cutoff):
        neighbors = _gather_frontier(frontier, *columns)
        neighbors = neighbors[positions[neighbors] == 0]
        _, first = np.unique(neighbors, return_index=True)
        frontier = neighbors[np.sort(first)]
        positions[frontier] = np.arange(reached + 1, reached + len(frontier) + 1)
        reached += len(frontier)
        levels.append(frontier)
    return np.concatenate(levels), _level_distances(levels), positions


def _delta_distance_ids(
    graph: DeltaKnowledgeGraph,
    entities: Sequence[str],
    cutoff: int | None,
) -> tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
    """The BFS of :func:`query_entity_distances` over a delta overlay,
    returning what :func:`_mapped_distance_ids` returns.

    Per frontier node the expansion order is base out slice, delta out
    appends, base in slice, delta in appends — exactly the adjacency
    list order of the merged owned graph, so the BFS order (and every
    answer downstream) is byte-identical to a fresh build of the union.
    The appends interleave per node, so this stays a per-node loop.
    """
    entity_ids = [graph.node_id(entity) for entity in entities]
    visited = set(entity_ids)
    frontier = entity_ids
    levels = [np.array(entity_ids, dtype=np.int64)]
    base = graph.base
    base_nodes = base.num_nodes
    out_indptr = base.out_indptr
    out_objects = base.out_objects
    in_indptr = base.in_indptr
    in_subjects = base.in_subjects
    out_extras = graph.out_extras
    in_extras = graph.in_extras
    while frontier and (cutoff is None or len(levels) <= cutoff):
        next_frontier: list[int] = []
        for node_id in frontier:
            if node_id < base_nodes:
                start = int(out_indptr[node_id])
                end = int(out_indptr[node_id + 1])
                for neighbor in out_objects[start:end].tolist():
                    if neighbor not in visited:
                        visited.add(neighbor)
                        next_frontier.append(neighbor)
            for _, neighbor in out_extras(node_id):
                if neighbor not in visited:
                    visited.add(neighbor)
                    next_frontier.append(neighbor)
            if node_id < base_nodes:
                start = int(in_indptr[node_id])
                end = int(in_indptr[node_id + 1])
                for neighbor in in_subjects[start:end].tolist():
                    if neighbor not in visited:
                        visited.add(neighbor)
                        next_frontier.append(neighbor)
            for _, neighbor in in_extras(node_id):
                if neighbor not in visited:
                    visited.add(neighbor)
                    next_frontier.append(neighbor)
        frontier = next_frontier
        levels.append(np.array(frontier, dtype=np.int64))
    node_ids = np.concatenate(levels)
    positions = np.zeros(graph.num_nodes, dtype=np.int32)
    positions[node_ids] = np.arange(1, len(node_ids) + 1)
    return node_ids, _level_distances(levels), positions


def query_entity_distances(
    graph: KnowledgeGraph, query_tuple: Sequence[str], cutoff: int | None = None
) -> dict[str, int]:
    """Multi-source undirected BFS distance from the nearest query entity.

    Only nodes within ``cutoff`` hops are returned (all nodes if ``None``).
    """
    entities = _validate_query_tuple(graph, query_tuple)
    if isinstance(graph, (MappedKnowledgeGraph, DeltaKnowledgeGraph)):
        bfs = (
            _mapped_distance_ids
            if isinstance(graph, MappedKnowledgeGraph)
            else _delta_distance_ids
        )
        node_ids, node_distances, _ = bfs(graph, entities, cutoff)
        return dict(zip(map(graph.term, node_ids.tolist()), node_distances.tolist()))
    distances = {entity: 0 for entity in entities}
    frontier = list(entities)
    depth = 0
    # Walk the adjacency lists directly instead of materializing a
    # neighbor set per node (graph.neighbors builds one on every call);
    # the `in distances` check deduplicates.
    out_edges = graph.out_adjacency
    in_edges = graph.in_adjacency
    while frontier and (cutoff is None or depth < cutoff):
        depth += 1
        next_frontier: list[str] = []
        for node in frontier:
            for edge in out_edges.get(node, ()):
                neighbor = edge.object
                if neighbor not in distances:
                    distances[neighbor] = depth
                    next_frontier.append(neighbor)
            for edge in in_edges.get(node, ()):
                neighbor = edge.subject
                if neighbor not in distances:
                    distances[neighbor] = depth
                    next_frontier.append(neighbor)
        frontier = next_frontier
    return distances


def neighborhood_graph(
    graph: KnowledgeGraph, query_tuple: Sequence[str], d: int = 2
) -> NeighborhoodGraph:
    """Extract the neighborhood graph ``H_t`` of ``query_tuple`` (Def. 1).

    Parameters
    ----------
    graph:
        The data graph ``G``.
    query_tuple:
        Ordered entity identifiers; all must exist in ``graph``.
    d:
        The undirected path-length threshold (the paper uses ``d = 2``).
    """
    if d < 1:
        raise QueryError(f"path length threshold d must be >= 1, got {d}")
    entities = _validate_query_tuple(graph, query_tuple)
    if isinstance(graph, MappedKnowledgeGraph):
        columns = _neighborhood_columns(
            graph, graph, *_mapped_distance_ids(graph, entities, d), d
        )
        return NeighborhoodGraph(query_tuple=entities, d=d, columns=columns)
    if isinstance(graph, DeltaKnowledgeGraph):
        columns = _neighborhood_columns(
            graph, graph.base, *_delta_distance_ids(graph, entities, d), d
        )
        return NeighborhoodGraph(query_tuple=entities, d=d, columns=columns)
    distances = query_entity_distances(graph, entities, cutoff=d)

    subgraph = KnowledgeGraph()
    for node in distances:
        subgraph.add_node(node)
    for node, dist in distances.items():
        if dist > d - 1:
            continue
        # Every edge incident on a node within d-1 hops lies on a path of
        # length <= d from a query entity, so it belongs to H_t.
        for edge in graph.incident_edges(node):
            other = edge.other(node)
            if other in distances:
                subgraph.add_edge_object(edge)

    kept_distances = {node: distances[node] for node in subgraph.nodes}
    return NeighborhoodGraph(
        graph=subgraph, query_tuple=entities, d=d, distances=kept_distances
    )


def _csr_runs(
    indptr: "np.ndarray", nodes: "np.ndarray"
) -> tuple["np.ndarray", "np.ndarray"]:
    """Positions of the CSR slices of ``nodes``, back to back, and for each
    position the index into ``nodes`` of the slice it belongs to."""
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    ends = np.cumsum(counts)
    owners = np.repeat(np.arange(len(nodes)), counts)
    positions = np.arange(len(owners)) + (starts - ends + counts)[owners]
    return positions, owners


def _extra_runs(
    extras: Callable[[int], list[tuple[int, int]]], nodes: list[int]
) -> tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
    """A delta overlay's appended edges at ``nodes`` as (owner index,
    label id, other node id) columns, in per-node append order."""
    rows = [
        (owner, label_id, other)
        for owner, node_id in enumerate(nodes)
        for label_id, other in extras(node_id)
    ]
    columns = np.array(rows, dtype=np.int64).reshape(len(rows), 3)
    return columns[:, 0], columns[:, 1], columns[:, 2]


def _neighborhood_columns(
    graph: MappedKnowledgeGraph | DeltaKnowledgeGraph,
    base: MappedKnowledgeGraph,
    node_ids: "np.ndarray",
    node_distances: "np.ndarray",
    positions: "np.ndarray",
    d: int,
) -> NeighborhoodColumns:
    """Gather ``H_t`` off the CSR columns as :class:`NeighborhoodColumns`.

    Every edge incident on a node within ``d - 1`` hops belongs to
    ``H_t``.  The owned-graph construction visits those near nodes in BFS
    order, each one's out list then its in list (self-loops skipped), and
    keeps an edge the first time it comes up; an adjacency list here is
    the base CSR slice followed by the delta's appends (none over a plain
    mapped graph).  An edge comes up twice exactly when both endpoints are
    near, so "first time" is: at the subject unless the object is earlier
    in BFS order, at the object only if it is strictly earlier.
    """
    # BFS order is by distance, so the near nodes are a prefix.
    near_count = int(np.searchsorted(node_distances, d - 1, side="right"))
    near = node_ids[:near_count]

    # One piece per adjacency segment, each (sort key, label id, other
    # node id); segment s of the near node at BFS position v sorts at
    # 4 * v + s: base out, delta out, base in, delta in.
    based = np.flatnonzero(near < base.num_nodes)  # nodes the delta added have no slice
    rows, owners = _csr_runs(base.out_indptr, near[based])
    pieces = [(based[owners] * 4, base.out_label_ids[rows], base.out_objects[rows])]
    rows, owners = _csr_runs(base.in_indptr, near[based])
    pieces.append((based[owners] * 4 + 2, base.in_label_ids[rows], base.in_subjects[rows]))
    if graph is not base:
        near_list = near.tolist()
        for segment, extras in ((1, graph.out_extras), (3, graph.in_extras)):
            owners, labels, others = _extra_runs(extras, near_list)
            pieces.append((owners * 4 + segment, labels, others))
    keys, labels, others = (np.concatenate(column) for column in zip(*pieces))

    # Node id -> BFS position: the BFS left position + 1 at every id it reached.
    others = positions[others] - 1
    owners = keys >> 2
    incoming = (keys & 2).astype(bool)
    first = np.flatnonzero(np.where(incoming, others > owners, others >= owners))
    first = first[np.argsort(keys[first], kind="stable")]
    owners, others, incoming = owners[first], others[first], incoming[first]
    return NeighborhoodColumns(
        term_of=graph.vocabulary.term_of,
        label_strings=graph.label_strings,
        node_ids=node_ids,
        node_distances=node_distances,
        near_count=near_count,
        subjects=np.where(incoming, others, owners),
        labels=labels[first],
        objects=np.where(incoming, owners, others),
    )
