"""Join-order planning for query graph evaluation.

A query graph with edges ``e_1..e_m`` corresponds to a multi-way join over
the per-label tables (Sec. V-A).  We evaluate it as a right-deep chain of
hash joins: pick a starting edge, then repeatedly join one more edge that
shares at least one node with the part already joined, probing the new
edge's table with the bound node value.

The planner is selectivity-aware in a simple, classical way: it starts from
the edge whose table is smallest and greedily adds the connected edge with
the smallest table next.  This keeps intermediate results small without
requiring a full cost model.

The greedy selection runs off a lazy-deletion min-heap keyed on
``(cardinality, edge)`` that is fed incident edges as nodes become bound,
instead of rescanning every remaining edge per step — same order, one
heap pop per chosen edge.
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence
from dataclasses import dataclass

from repro.exceptions import LatticeError
from repro.graph.knowledge_graph import Edge
from repro.storage.store import VerticalPartitionStore


@dataclass(frozen=True)
class JoinPlan:
    """An ordered sequence of query-graph edges to join, plus metadata.

    ``order`` lists the edges in join order.  Every edge after the first
    shares at least one node with the union of the preceding edges
    (guaranteed for weakly connected query graphs).
    """

    order: tuple[Edge, ...]

    def __len__(self) -> int:
        return len(self.order)

    def __iter__(self):
        return iter(self.order)


def plan_join_order(
    edges: Sequence[Edge], store: VerticalPartitionStore | None = None
) -> JoinPlan:
    """Choose a connected, selectivity-aware join order for ``edges``.

    Parameters
    ----------
    edges:
        The edges of a weakly connected query graph.
    store:
        Optional store used to rank edges by table cardinality.  Without a
        store, the input order is kept (still made connected).

    Raises
    ------
    LatticeError
        If ``edges`` is empty or does not form a weakly connected graph.
    """
    if not edges:
        raise LatticeError("cannot plan a join over zero edges")

    if store is None:
        cardinalities = {edge: 0 for edge in edges}
    else:
        cardinalities = {edge: store.cardinality(edge.label) for edge in edges}

    remaining = list(edges)
    remaining.sort(key=lambda e: (cardinalities[e], e))
    first = remaining.pop(0)
    order = [first]
    pending = set(remaining)

    # node -> incident pending edges; edges enter the candidate heap when
    # one of their endpoints becomes bound.  An edge can be pushed twice
    # (once per endpoint) — the `pending` check on pop deduplicates, which
    # is exactly the lazy-deletion scheme of the exploration heaps.
    incident: dict[str, list[Edge]] = {}
    for edge in remaining:
        incident.setdefault(edge.subject, []).append(edge)
        if edge.object != edge.subject:
            incident.setdefault(edge.object, []).append(edge)

    bound_nodes: set[str] = set()
    heap: list[tuple[int, Edge]] = []

    def bind(node: str) -> None:
        if node in bound_nodes:
            return
        bound_nodes.add(node)
        for edge in incident.get(node, ()):
            heapq.heappush(heap, (cardinalities[edge], edge))

    bind(first.subject)
    bind(first.object)

    while pending:
        while heap:
            _, nxt = heapq.heappop(heap)
            if nxt in pending:
                break
        else:
            raise LatticeError(
                "query graph edges are not weakly connected; cannot form a join plan"
            )
        pending.discard(nxt)
        order.append(nxt)
        bind(nxt.subject)
        bind(nxt.object)

    return JoinPlan(order=tuple(order))
