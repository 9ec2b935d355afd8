"""Reference implementations the engine is tested against.

The engine reads a data graph only as the id columns of a mapped or
built :class:`~repro.graph.mapped.MappedKnowledgeGraph` (or a delta
overlay on one).  The functions here read a :class:`KnowledgeGraph`, the
in-memory triple container, by its strings and share no code with it:

* :func:`definition1` — ``H_t`` of Definition 1 as a
  :class:`SpecNeighborhood`, in the order the engine promises (nodes in
  BFS order, each near node's out list then in list), its node and edge
  sets checked against a brute-force enumeration of walks
  (:func:`walk_closure`);
* :func:`unimportant_edges` — UE(v) of Sec. III-C for one node, the
  per-node spec; :func:`removed_edges` is its two-pass union and
  :func:`reduced` the reduced neighborhood graph built from it;
* :func:`eq2_weight` — Eq. 2 from Eqs. 3 and 4, counted by scanning every
  edge of the graph;
* :func:`extension` — Definition 3's one-edge join step, by scanning the
  edge label's pairs for every probe row;
* :func:`stage_one` — the k' best answers of an MQG by Eq. 1, from every
  connected edge subset that covers the query entities, each evaluated
  with :func:`extension`.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from repro.exceptions import DiscoveryError
from repro.graph.knowledge_graph import Edge, KnowledgeGraph


@dataclass
class SpecNeighborhood:
    """What downstream code reads off a neighborhood graph, held as strings."""

    query_tuple: tuple[str, ...]
    d: int
    graph: KnowledgeGraph
    distances: dict[str, int]

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges


def bfs_distances(
    graph: KnowledgeGraph, query_tuple: Sequence[str], cutoff: int | None = None
) -> dict[str, int]:
    """Undirected distance from the nearest query entity, in BFS order:
    each frontier node's out list, then its in list."""
    distances = {entity: 0 for entity in query_tuple}
    frontier = list(query_tuple)
    depth = 0
    while frontier and (cutoff is None or depth < cutoff):
        depth += 1
        next_frontier = []
        for node in frontier:
            for edge in graph.out_edges(node) + graph.in_edges(node):
                neighbor = edge.other(node)
                if neighbor not in distances:
                    distances[neighbor] = depth
                    next_frontier.append(neighbor)
        frontier = next_frontier
    return distances


def walk_closure(
    graph: KnowledgeGraph, query_tuple: Sequence[str], d: int
) -> tuple[set[str], set[Edge]]:
    """The nodes and edges of every undirected walk of at most ``d`` edges
    that starts at a query entity (Definition 1, by enumeration: a walk is
    extended one incident edge at a time, each (node, length) once)."""
    nodes: set[str] = set()
    edges: set[Edge] = set()
    seen: set[tuple[str, int]] = set()
    stack = [(entity, 0) for entity in query_tuple]
    while stack:
        node, length = stack.pop()
        if (node, length) in seen:
            continue
        seen.add((node, length))
        nodes.add(node)
        if length < d:
            for edge in graph.incident_edges(node):
                edges.add(edge)
                stack.append((edge.other(node), length + 1))
    return nodes, edges


def definition1(graph: KnowledgeGraph, query_tuple: Sequence[str], d: int) -> SpecNeighborhood:
    """``H_t`` of ``query_tuple``: the nodes within ``d`` hops in BFS order,
    and every edge incident on a node within ``d - 1`` hops, in the order
    those near nodes (BFS order) first list them."""
    entities = tuple(query_tuple)
    distances = bfs_distances(graph, entities, cutoff=d)
    subgraph = KnowledgeGraph()
    for node in distances:
        subgraph.add_node(node)
    for node, distance in distances.items():
        if distance <= d - 1:
            for edge in graph.incident_edges(node):
                subgraph.add_edge_object(edge)
    assert (set(subgraph.nodes), set(subgraph.edges)) == walk_closure(graph, entities, d)
    return SpecNeighborhood(entities, d, subgraph, distances)


def unimportant_edges(neighborhood: SpecNeighborhood, node: str) -> set[Edge]:
    """UE(node): the incident edges that are not important (IE, on a path
    of at most ``d`` edges to a query entity: their other end is within
    ``d - 1`` hops) but share a label and an orientation with one that is."""
    near = neighborhood.d - 1
    incident = neighborhood.graph.incident_edges(node)
    important = {
        edge
        for edge in incident
        if neighborhood.distances.get(edge.other(node), near + 1) <= near
    }
    outgoing = {edge.label for edge in important if edge.subject == node}
    incoming = {edge.label for edge in important if edge.object == node}
    return {
        edge
        for edge in incident
        if edge not in important
        and (
            (edge.subject == node and edge.label in outgoing)
            or (edge.object == node and edge.label in incoming)
        )
    }


def removed_edges(neighborhood: SpecNeighborhood) -> set[Edge]:
    """The union of UE(v) over all nodes, in two passes over the edges: the
    labels of every node's important out- and in-edges, then every edge
    not important from a side whose node has an important sibling there."""
    near = neighborhood.d - 1
    distances = neighborhood.distances
    outgoing: dict[str, set[str]] = {}
    incoming: dict[str, set[str]] = {}
    sides = []
    for edge in neighborhood.graph.edges:
        subject_side = distances.get(edge.object, near + 1) <= near
        object_side = distances.get(edge.subject, near + 1) <= near
        sides.append((edge, subject_side, object_side))
        if subject_side:
            outgoing.setdefault(edge.subject, set()).add(edge.label)
        if object_side:
            incoming.setdefault(edge.object, set()).add(edge.label)
    return {
        edge
        for edge, subject_side, object_side in sides
        if (not subject_side and edge.label in outgoing.get(edge.subject, ()))
        or (not object_side and edge.label in incoming.get(edge.object, ()))
    }


def reduced(neighborhood: SpecNeighborhood) -> SpecNeighborhood:
    """The reduced neighborhood graph: the edges :func:`removed_edges`
    spares, cut down to the weakly connected component of the query
    entities (query entities first, then nodes as the edges mention them)."""
    removed = removed_edges(neighborhood)
    kept = [edge for edge in neighborhood.graph.edges if edge not in removed]
    entities = neighborhood.query_tuple
    component = {entities[0]}
    grown = True
    while grown:
        grown = False
        for edge in kept:
            if (edge.subject in component) != (edge.object in component):
                component |= {edge.subject, edge.object}
                grown = True
    if not component.issuperset(entities):
        raise DiscoveryError(
            "reduced neighborhood graph lost the connection between query "
            "entities; this contradicts Theorem 2 and indicates the input "
            "neighborhood graph was not weakly connected to begin with"
        )
    graph = KnowledgeGraph()
    for entity in entities:
        graph.add_node(entity)
    for edge in kept:
        if edge.subject in component:
            graph.add_edge_object(edge)
    distances = {node: neighborhood.distances[node] for node in graph.nodes}
    return SpecNeighborhood(entities, neighborhood.d, graph, distances)


def eq2_weight(graph: KnowledgeGraph, edge: Edge) -> float:
    """w(e) = ief(e) / p(e) (Eqs. 2-4), every count a scan of ``graph``:
    ief = log(|E| / #label(e)), an unknown label counting once, and p(e)
    the edges with e's label that share its subject or its object (at
    least 1)."""
    edges = list(graph.edges)
    frequency = sum(other.label == edge.label for other in edges) or 1
    participation = sum(
        other.label == edge.label
        and (other.subject == edge.subject or other.object == edge.object)
        for other in edges
    )
    return math.log(len(edges) / frequency) / max(participation, 1)


def extension(pairs, variables, rows, edge: Edge, injective: bool) -> list[tuple]:
    """The rows ``rows`` (bindings of ``variables``) grow to by ``edge``.

    ``pairs`` are the ``(subject, object)`` values of ``edge.label``.  A
    row grows by every pair that agrees with its bindings, binding the
    edge's unbound endpoints in ``(subject, object)`` order; a self-loop
    edge binds one node.  An injective join drops a pair whose new values
    repeat a value of the row, or each other.  Rows come in probe order,
    each row's in ``pairs`` order.  A first edge probes one empty row:
    ``variables == ()`` and ``rows == [()]``.
    """
    out = []
    for row in rows:
        binding = dict(zip(variables, row))
        for subject, obj in pairs:
            grown = dict(binding)
            if grown.setdefault(edge.subject, subject) != subject:
                continue
            if grown.setdefault(edge.object, obj) != obj:
                continue
            new = tuple(value for name, value in grown.items() if name not in binding)
            if injective and (any(value in row for value in new) or len(set(new)) < len(new)):
                continue
            out.append(row + new)
    return out


def _connected_order(edges: Sequence[Edge]) -> list[Edge] | None:
    """``edges`` in an order where each shares a node with those before
    it, or ``None`` if they are not weakly connected."""
    ordered, remaining = [edges[0]], list(edges[1:])
    bound = {edges[0].subject, edges[0].object}
    while remaining:
        for position, edge in enumerate(remaining):
            if edge.subject in bound or edge.object in bound:
                break
        else:
            return None
        ordered.append(remaining.pop(position))
        bound |= {edge.subject, edge.object}
    return ordered


def stage_one(
    graph: KnowledgeGraph,
    edges: Sequence[Edge],
    weights: Sequence[float],
    query_tuple: tuple[str, ...],
    k_prime: int,
    excluded: set[tuple[str, ...]],
) -> list[tuple[tuple[str, ...], float]]:
    """The ``k_prime`` best ``(answer, structure score)`` pairs of the MQG
    whose edges are ``edges`` (at most 8), each of weight ``weights[i]``.

    Every connected subset of the edges that covers the query entities is
    a query graph.  Its matches are evaluated from ``graph``'s triples
    with :func:`extension` (injective), the trivial match that maps every
    node to itself is dropped (Definition 3), and each other match
    projects to an answer tuple.  An answer's score is the best weight
    (Eq. 1) among the query graphs producing it; a subset's weight adds
    its edges' weights in edge order.  Answers in ``excluded`` are left
    out, and ties at the cut break on the entity names.
    """
    if len(edges) > 8:
        raise ValueError(f"an exhaustive stage one takes at most 8 edges, got {len(edges)}")
    pairs = {
        label: [(edge.subject, edge.object) for edge in graph.edges if edge.label == label]
        for label in {edge.label for edge in edges}
    }
    best: dict[tuple[str, ...], float] = {}
    for mask in range(1, 1 << len(edges)):
        chosen = [edge for bit, edge in enumerate(edges) if mask >> bit & 1]
        order = _connected_order(chosen)
        if order is None or not set(query_tuple) <= {
            node for edge in chosen for node in (edge.subject, edge.object)
        }:
            continue
        variables: tuple[str, ...] = ()
        rows: list[tuple] = [()]
        for edge in order:
            rows = extension(pairs[edge.label], variables, rows, edge, injective=True)
            variables += tuple(
                node for node in dict.fromkeys((edge.subject, edge.object)) if node not in variables
            )
        score = 0.0
        for bit, weight in enumerate(weights):
            if mask >> bit & 1:
                score += weight
        positions = [variables.index(entity) for entity in query_tuple]
        for row in rows:
            if row == variables:
                continue
            answer = tuple(row[position] for position in positions)
            if answer not in excluded and score > best.get(answer, -math.inf):
                best[answer] = score
    return sorted(best.items(), key=lambda item: (-item[1], item[0]))[:k_prime]
