"""Applying live triple ingest to a loaded graph/statistics/store bundle.

One shared core serves every ingest entry point (``GQBE.ingest``, the
serving frontends, pool-worker delta replay): validate the triples,
deduplicate them against the *current* union graph, then apply each
survivor to the graph, the vocabulary, the per-label tables and the
statistics in one deterministic order.

Determinism is what makes ingest testable and poolable: applying the
same applied-triple sequence to the same base always produces identical
ids, identical adjacency orders, and therefore byte-identical answers —
a pool worker reopening the snapshot replays the parent's applied
triples and lands in exactly the parent's state.

A bundle's graph is a :class:`~repro.graph.mapped.MappedKnowledgeGraph`
(a snapshot, or a graph built in memory into the same arrays), which is
immutable: the first ingest wraps it in a
:class:`~repro.graph.delta.DeltaKnowledgeGraph` union view, and the
caller must adopt the returned graph.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.exceptions import GraphError
from repro.graph.delta import DeltaKnowledgeGraph
from repro.graph.knowledge_graph import Edge


def normalize_triples(triples: Iterable[Sequence]) -> list[tuple[str, str, str]]:
    """Validate and normalize raw ingest input to string triples.

    Accepts any iterable of 3-item sequences (lists from JSON bodies,
    :class:`~repro.graph.knowledge_graph.Edge` instances, plain tuples);
    raises :class:`~repro.exceptions.GraphError` on anything else so the
    serving layer can answer a clean 400.
    """
    normalized: list[tuple[str, str, str]] = []
    for position, entry in enumerate(triples):
        if isinstance(entry, Edge):
            entry = (entry.subject, entry.label, entry.object)
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise GraphError(
                f"triple #{position} must be a [subject, label, object] "
                f"3-sequence, got {entry!r}"
            )
        subject, label, obj = entry
        if not all(isinstance(part, str) and part for part in (subject, label, obj)):
            raise GraphError(
                f"triple #{position} terms must be non-empty strings, "
                f"got {entry!r}"
            )
        normalized.append((subject, label, obj))
    return normalized


def apply_triples(
    graph,
    statistics,
    store,
    triples: Iterable[Sequence],
):
    """Apply ``triples`` to a loaded bundle; returns the updated graph.

    Returns ``(graph, applied, duplicates)`` where ``graph`` is the
    (possibly newly delta-wrapped) union graph the caller must adopt,
    ``applied`` is the list of triples that actually landed (original
    order, duplicates removed), and ``duplicates`` counts the rest.

    A duplicate interns nothing and touches nothing — the same contract
    as ``KnowledgeGraph.add_edge``, which deduplicates before adding
    nodes — so replaying only the applied triples reproduces this exact
    state.
    """
    normalized = normalize_triples(triples)
    if not isinstance(graph, DeltaKnowledgeGraph):
        graph = DeltaKnowledgeGraph(graph)
    applied: list[tuple[str, str, str]] = []
    duplicates = 0
    for subject, label, obj in normalized:
        if graph.has_edge(subject, label, obj):
            duplicates += 1
            continue
        subject_id, object_id = graph.add_delta_edge(subject, label, obj)
        store.ingest_row(label, subject_id, object_id)
        statistics.apply_edge(Edge(subject, label, obj))
        applied.append((subject, label, obj))
    if applied:
        statistics.finish_mutation()
    return graph, applied, duplicates
