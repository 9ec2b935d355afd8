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

The data graph is a :class:`~repro.graph.mapped.MappedKnowledgeGraph`
(a snapshot, or a graph built in memory into the same arrays, plus
whatever live ingest added).  The BFS runs on its CSR id columns and
``H_t`` itself stays in id space (:class:`NeighborhoodColumns`),
gathered with whole-array operations:
most of it is noise the reduction of Sec. III-C is about to remove, so
:class:`~repro.graph.knowledge_graph.Edge` objects are built only for
the edges that survive it (or for all of ``H_t`` if someone asks for
``.graph``).  The column orders follow the graph's per-node adjacency
orders (out list then in list, per node), so the neighborhood — and
every answer downstream of it — is the same on every backing of one
edge stream.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import NamedTuple

import numpy as np

from repro.exceptions import QueryError, UnknownEntityError
from repro.graph.knowledge_graph import Edge, KnowledgeGraph
from repro.graph.mapped import MappedKnowledgeGraph


class NeighborhoodColumns(NamedTuple):
    """``H_t`` in id space: what a graph's neighborhood is until someone
    asks for strings.

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
    query_tuple:
        The query entities the neighborhood was grown from.
    d:
        The path-length threshold used.
    columns:
        ``H_t`` as :class:`NeighborhoodColumns`.  The reduction and MQG
        discovery read the columns; :attr:`graph` and :attr:`distances`
        decode them on first access.  A *reduced* neighborhood is the
        same thing over the rows and nodes that survived.  Row ``i`` of
        the edge columns is the ``i``-th edge of ``graph.edges`` (the
        rows of ``H_t`` are distinct triples, inserted in row order), and
        the graph's nodes are the query entities followed by the other
        nodes in the order the rows first mention them — for ``H_t``
        itself that is BFS order, the order of the node columns.
    """

    __slots__ = ("query_tuple", "d", "columns", "_graph", "_distances")

    def __init__(
        self, *, query_tuple: tuple[str, ...], d: int, columns: NeighborhoodColumns
    ) -> None:
        self.query_tuple = query_tuple
        self.d = d
        self.columns = columns
        self._graph: KnowledgeGraph | None = None
        self._distances: dict[str, int] | None = None

    @property
    def graph(self) -> KnowledgeGraph:
        """``H_t`` as a :class:`KnowledgeGraph` (decoded once)."""
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
        """``dist_q`` per node of ``H_t`` (decoded once)."""
        if self._distances is None:
            columns = self.columns
            by_term = dict(zip(columns.terms(), columns.node_distances.tolist()))
            self._distances = {node: by_term[node] for node in self.graph.nodes}
        return self._distances

    @property
    def num_nodes(self) -> int:
        """Number of nodes in ``H_t``."""
        return len(self.columns.node_ids)

    @property
    def num_edges(self) -> int:
        """Number of edges in ``H_t``."""
        return len(self.columns.subjects)

    def distance(self, node: str) -> int:
        """``dist_q(node)``; raises ``KeyError`` for nodes outside ``H_t``."""
        return self.distances[node]

    def contains_query_entities(self) -> bool:
        """Whether every query entity is a node of ``H_t`` (always true)."""
        return all(self.graph.has_node(entity) for entity in self.query_tuple)


def _validate_query_tuple(graph, query_tuple: Sequence[str]) -> tuple[str, ...]:
    entities = tuple(query_tuple)
    if not entities:
        raise QueryError("query tuples must contain at least one entity")
    if len(set(entities)) != len(entities):
        raise QueryError(f"query tuple {entities!r} contains duplicate entities")
    for entity in entities:
        if not graph.has_node(entity):
            raise UnknownEntityError(entity)
    return entities


def _level_distances(levels: list["np.ndarray"]) -> "np.ndarray":
    """The distance of every node of the BFS levels, concatenated."""
    return np.repeat(np.arange(len(levels)), [len(level) for level in levels])


def _breadth_first(
    graph: MappedKnowledgeGraph,
    entities: Sequence[str],
    cutoff: int | None,
) -> tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
    """The BFS of :func:`query_entity_distances` over CSR ids.

    Returns the reached node ids in BFS order, their distances, and one
    int32 array over the graph's nodes that is both the visited set and
    the id -> BFS position map (0 unvisited, else position + 1).  Each
    depth is one whole-frontier gather (:func:`_adjacency`), laid out
    in per-node adjacency order, that keeps the first occurrence of
    every unvisited id, so the order is a per-node loop's exactly.
    """
    frontier = np.array([graph.node_id(entity) for entity in entities], dtype=np.int64)
    positions = np.zeros(graph.num_nodes, dtype=np.int32)
    positions[frontier] = np.arange(1, len(frontier) + 1)
    levels = [frontier]
    reached = len(frontier)
    while len(frontier) and (cutoff is None or len(levels) <= cutoff):
        keys, _, neighbors = _adjacency(graph, frontier)
        neighbors = neighbors[np.argsort(keys, kind="stable")]
        neighbors = neighbors[positions[neighbors] == 0]
        _, first = np.unique(neighbors, return_index=True)
        frontier = neighbors[np.sort(first)]
        positions[frontier] = np.arange(reached + 1, reached + len(frontier) + 1)
        reached += len(frontier)
        levels.append(frontier)
    return np.concatenate(levels), _level_distances(levels), positions


def query_entity_distances(
    graph: MappedKnowledgeGraph,
    query_tuple: Sequence[str],
    cutoff: int | None = None,
) -> dict[str, int]:
    """Multi-source undirected BFS distance from the nearest query entity.

    Only nodes within ``cutoff`` hops are returned (all nodes if ``None``),
    in BFS order.
    """
    entities = _validate_query_tuple(graph, query_tuple)
    node_ids, node_distances, _ = _breadth_first(graph, entities, cutoff)
    return dict(zip(map(graph.term, node_ids.tolist()), node_distances.tolist()))


def neighborhood_graph(
    graph: MappedKnowledgeGraph,
    query_tuple: Sequence[str],
    d: int = 2,
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
    columns = _neighborhood_columns(graph, *_breadth_first(graph, entities, d), d)
    return NeighborhoodGraph(query_tuple=entities, d=d, columns=columns)


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


def _adjacency(
    graph: MappedKnowledgeGraph, nodes: "np.ndarray"
) -> tuple["np.ndarray", "np.ndarray", "np.ndarray"]:
    """Every adjacency-list entry of ``nodes`` as (sort key, label id,
    other node id) columns, segment by segment.

    A node's out list is its base CSR slice followed by its delta slice,
    and so is its in list.  The entries of ``nodes[i]`` sort at ``4 * i
    + s``, segment ``s`` being base out, delta out, base in, delta in,
    so a stable sort on the keys lays the entries out as a walk over
    each node's out list and then its in list meets them.  Without a
    delta this reads the two base segments only.
    """
    based = None  # the nodes with a base slice, when some have none
    if graph.num_nodes > graph.base_num_nodes:  # nodes the delta added have none
        based = np.flatnonzero(nodes < graph.base_num_nodes)
    pieces = []
    for segment, indptr, label_ids, others in (
        (0, graph.out_indptr, graph.out_label_ids, graph.out_objects),
        (2, graph.in_indptr, graph.in_label_ids, graph.in_subjects),
    ):
        if based is None:
            rows, owners = _csr_runs(indptr, nodes)
        else:
            rows, owners = _csr_runs(indptr, nodes[based])
            owners = based[owners]
        pieces.append((owners * 4 + segment, label_ids[rows], others[rows]))
    for segment, delta in ((1, graph.delta_out), (3, graph.delta_in)):
        if delta is not None:
            rows, owners = _csr_runs(delta.indptr, delta.slots(nodes))
            pieces.append((owners * 4 + segment, delta.label_ids[rows], delta.others[rows]))
    keys, labels, others = (np.concatenate(column) for column in zip(*pieces))
    return keys, labels, others


def _neighborhood_columns(
    graph: MappedKnowledgeGraph,
    node_ids: "np.ndarray",
    node_distances: "np.ndarray",
    positions: "np.ndarray",
    d: int,
) -> NeighborhoodColumns:
    """Gather ``H_t`` off the CSR columns as :class:`NeighborhoodColumns`.

    Every edge incident on a node within ``d - 1`` hops belongs to
    ``H_t``.  Definition 1's construction visits those near nodes in BFS
    order, each one's out list then its in list (self-loops skipped), and
    keeps an edge the first time it comes up (:func:`_adjacency` lays out
    the lists).  An edge comes up twice exactly when both endpoints are
    near, so "first time" is: at the subject unless the object is earlier
    in BFS order, at the object only if it is strictly earlier.
    """
    # BFS order is by distance, so the near nodes are a prefix.
    near_count = int(np.searchsorted(node_distances, d - 1, side="right"))
    near = node_ids[:near_count]

    keys, labels, others = _adjacency(graph, near)

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
