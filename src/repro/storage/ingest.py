"""Applying live triple ingest to a loaded graph/statistics/store bundle.

One shared core serves every ingest entry point (``GQBE.ingest``, the
serving frontends, pool-worker delta replay): validate the triples,
deduplicate them against the *current* graph (base and delta), then
apply the survivors to the graph, the vocabulary and the per-label
tables in one deterministic order.

Determinism is what makes ingest testable and poolable: applying the
same applied-triple sequence to the same base always produces identical
ids, identical adjacency orders, and therefore byte-identical answers —
a pool worker reopening the snapshot replays the parent's applied
triples and lands in exactly the parent's state.

A bundle's graph is a :class:`~repro.graph.mapped.MappedKnowledgeGraph`
(a snapshot, or a graph built in memory into the same arrays).  Its base
arrays are never written: an ingest adds to the graph's own delta (id
triples and a small CSR over them) and replaces each touched label's
table with one over its old and new rows.  The statistics hold no counts
of their own: they probe those tables, and only refresh |E| and drop
their memoized weights.  Every object of the bundle stays the one it
was, so nothing has to adopt a new graph.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.exceptions import GraphError
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
) -> tuple[list[tuple[str, str, str]], int]:
    """Apply ``triples`` to a loaded bundle, in place.

    Returns ``(applied, duplicates)``: the triples that actually landed
    (original order, duplicates removed) and how many did not.  A
    duplicate interns nothing and touches nothing — the same contract as
    ``KnowledgeGraph.add_edge``, which deduplicates before adding nodes —
    so replaying only the applied triples reproduces this exact state.
    The graph takes each triple in order; each label's table then takes
    the batch's rows at once, labels in the order the batch first names
    them, and the statistics read the new tables.
    """
    normalized = normalize_triples(triples)
    applied: list[tuple[str, str, str]] = []
    rows: dict[str, tuple[list[int], list[int]]] = {}
    for subject, label, obj in normalized:
        if graph.has_edge(subject, label, obj):
            continue
        subject_id, object_id = graph.add_delta_edge(subject, label, obj)
        subjects, objects = rows.setdefault(label, ([], []))
        subjects.append(subject_id)
        objects.append(object_id)
        applied.append((subject, label, obj))
    if applied:
        graph.finish_mutation()
        for label, (subjects, objects) in rows.items():
            store.ingest_rows(label, subjects, objects)
        statistics.finish_mutation()
    return applied, len(normalized) - len(applied)
