"""Answer-graph and answer-tuple scoring (Eq. 1, 5 and 6 of the paper).

The score of an answer graph ``A`` for a query graph ``Q`` is::

    score_Q(A) = s_score(Q) + c_score_Q(A)

* ``s_score(Q)`` — the **structure score**: the total (Eq. 8) weight of Q's
  edges.  It measures how much of the MQG's important structure ``Q`` (and
  therefore ``A``) captures, and is independent of the concrete answer.
* ``c_score_Q(A)`` — the **content score**: extra credit for answer nodes
  that are *identical* to the corresponding query-graph nodes (e.g. the
  answer also lives in ``San Jose``).  The credit for an edge is a fraction
  of its weight, damped by the number of MQG edges incident on the matched
  node (Eq. 6), so that hub nodes do not dominate.

An answer tuple's score (Eq. 1) is the maximum ``score_Q(A)`` over every
answer graph that projects to it.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.graph.knowledge_graph import Edge
from repro.lattice.query_graph import LatticeSpace


def structure_score(space: LatticeSpace, mask: int) -> float:
    """s_score(Q): total edge weight of the query graph ``mask``."""
    return space.weight_of_mask(mask)


def match_credit(
    space: LatticeSpace,
    edge: Edge,
    subject_matched: bool,
    object_matched: bool,
) -> float:
    """The per-edge extra credit ``match(e, e')`` of Eq. 6."""
    if not subject_matched and not object_matched:
        return 0.0
    weight = space.mqg.edge_weights.get(edge, 0.0)
    subject_incident = max(space.incident_counts.get(edge.subject, 1), 1)
    object_incident = max(space.incident_counts.get(edge.object, 1), 1)
    if subject_matched and object_matched:
        return weight / min(subject_incident, object_incident)
    if subject_matched:
        return weight / subject_incident
    return weight / object_incident


def content_score(
    space: LatticeSpace,
    edges: Sequence[Edge],
    binding: Mapping[str, str],
) -> float:
    """c_score_Q(A) for the answer graph given by ``binding``.

    ``binding`` maps query-graph node names to data-graph entities (the
    bijection ``f`` of Definition 3).  A node is *matched* when it is bound
    to itself — i.e. the answer reuses the exact entity of the MQG.
    """
    matched = {node for node, value in binding.items() if value == node}
    total = 0.0
    for edge in edges:
        subject_matched = edge.subject in matched
        object_matched = edge.object in matched
        if subject_matched or object_matched:
            total += match_credit(space, edge, subject_matched, object_matched)
    return total


def answer_graph_score(
    space: LatticeSpace,
    mask: int,
    binding: Mapping[str, str],
) -> float:
    """score_Q(A) = s_score(Q) + c_score_Q(A) (Eq. 5)."""
    edges = space.edges_of(mask)
    return structure_score(space, mask) + content_score(space, edges, binding)
