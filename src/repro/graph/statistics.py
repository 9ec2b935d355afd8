"""Offline, query-independent graph statistics (Sec. III-B of the paper).

Two statistics drive GQBE's edge weighting.  They do not depend on the
query, and both are read off the per-label edge tables the offline phase
builds once per data graph (Sec. V-A):

* **Inverse edge-label frequency** (Eq. 3)::

      ief(e) = log(|E(G)| / #label(e))

  Labels that appear rarely in the whole graph (e.g. ``founded``) receive a
  larger weight than ubiquitous ones (e.g. ``nationality``).

* **Participation degree** (Eq. 4)::

      p(e) = |{e' = (u', v') : label(e') = label(e) and (u' = u or v' = v)}|

  An edge is locally less important if many edges with the same label share
  one of its endpoints on the same side (e.g. the ``employment`` edges of a
  large company).  Note the asymmetry in Eq. 4: the *subject* of ``e'`` is
  compared against the subject of ``e`` and the *object* against the object;
  an edge with the same label that merely touches an endpoint on the other
  side does not count.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from typing import TYPE_CHECKING

import numpy as np

from repro.exceptions import GraphError
from repro.graph.knowledge_graph import Edge

if TYPE_CHECKING:  # pragma: no cover - both modules import the graphs
    from repro.graph.neighborhood import NeighborhoodColumns
    from repro.storage.store import VerticalPartitionStore


class GraphStatistics:
    """Label-frequency and participation statistics of a data graph.

    The statistics refer to the *whole* data graph even when weights are
    later assigned to edges of a neighborhood subgraph, exactly as the
    paper prescribes.  They are a view over the
    :class:`~repro.storage.store.VerticalPartitionStore` and keep no
    counts of their own: #label is a table's row count (the snapshot
    manifest's, until the table is opened) and |E| their sum; the two
    terms of Eq. 4 are a subject probe and an object probe of ``e``'s
    label table, whose rows are the label's distinct edges sorted by
    (subject, object) with a persisted object order.  Live ingest
    replaces the tables it touches, so the counts follow; only the
    cached |E| is refreshed (:meth:`finish_mutation`).

    A query never hands these statistics a string: its neighborhood
    comes from the same graph as id columns, and :meth:`column_weights`
    computes Eq. 2 for all of its rows on those ids.  The per-edge
    methods (``ief`` / ``participation_degree`` / ``base_edge_weight``)
    answer for any :class:`Edge`, through one vocabulary binary search
    per endpoint; they are the spec the array path is tested against.
    """

    def __init__(self, store: "VerticalPartitionStore") -> None:
        self._store = store
        self._total_edges = store.num_rows
        if self._total_edges <= 0:
            raise GraphError("cannot compute statistics of an empty graph")
        # Per-edge spec calls are memoized; a query never makes one (see
        # column_weights), so serving does not fill this.
        self._base_weight_cache: dict[Edge, float] = {}

    # ------------------------------------------------------------------
    @property
    def graph(self):
        """The data graph these statistics were computed from."""
        return self._store.graph

    @property
    def total_edges(self) -> int:
        """|E(G)| — the total number of edges in the data graph."""
        return self._total_edges

    @property
    def label_counts(self) -> dict[str, int]:
        """#label per label, in the graph's first-seen label order."""
        store = self._store
        return {label: store.cardinality(label) for label in store.labels()}

    def label_frequency(self, label: str) -> int:
        """#label(e) — number of edges in G bearing ``label``."""
        return self._store.cardinality(label)

    def inverse_edge_label_frequency(self, edge: Edge | str) -> float:
        """ief(e) per Eq. 3; accepts an :class:`Edge` or a bare label.

        Unknown labels are treated as having frequency 1 (the rarest
        possible), which keeps the function total and monotone.
        """
        label = edge.label if isinstance(edge, Edge) else edge
        frequency = max(self._store.cardinality(label), 1)
        return math.log(self._total_edges / frequency)

    # Short aliases mirroring the paper's notation -----------------------
    def ief(self, edge: Edge | str) -> float:
        """Alias for :meth:`inverse_edge_label_frequency`."""
        return self.inverse_edge_label_frequency(edge)

    def participation_degree(self, edge: Edge) -> int:
        """p(e) per Eq. 4 (at least 1, since ``e`` itself participates)."""
        table = self._store.table_or_empty(edge.label)
        vocabulary = self._store.vocabulary
        same_subject = same_object = 0
        subject_id = vocabulary.id_of(edge.subject)
        if subject_id is not None:
            same_subject = int(table.probe_subject(np.array([subject_id], np.int32))[0][0])
        object_id = vocabulary.id_of(edge.object)
        if object_id is not None:
            same_object = int(table.probe_object(np.array([object_id], np.int32))[0][0])
        # Edges counted by both terms are exactly those with the same
        # subject *and* object and the same label; in a set-of-triples
        # multigraph that is just the edge itself (if present).
        overlap = 1 if self.graph.has_edge(*edge) else 0
        degree = same_subject + same_object - overlap
        return max(degree, 1)

    def p(self, edge: Edge) -> int:
        """Alias for :meth:`participation_degree`."""
        return self.participation_degree(edge)

    def base_edge_weight(self, edge: Edge) -> float:
        """w(e) = ief(e) / p(e) — Eq. 2, used for MQG discovery (memoized)."""
        weight = self._base_weight_cache.get(edge)
        if weight is None:
            weight = self.inverse_edge_label_frequency(edge) / self.participation_degree(edge)
            self._base_weight_cache[edge] = weight
        return weight

    def weights_for(self, edges: Iterable[Edge]) -> dict[Edge, float]:
        """Eq. 2 weights for every edge in ``edges`` — the discovery weights."""
        return {edge: self.base_edge_weight(edge) for edge in edges}

    def column_weights(self, columns: "NeighborhoodColumns") -> "np.ndarray":
        """Eq. 2 for every row of ``columns``, as one float64 array.

        Bit for bit what :meth:`base_edge_weight` returns for the decoded
        rows: the same integers, ``ief`` from the same ``math.log``, one
        float64 division.  A row of ``H_t`` *is* an edge of the graph, so
        the overlap term of Eq. 4 is 1 without a membership probe.  The
        rows are grouped by label once, and each group probes its label's
        table: only the tables of labels in ``H_t`` are opened.
        """
        order = np.argsort(columns.labels, kind="stable")
        labels = columns.labels[order]
        in_use, starts = np.unique(labels, return_index=True)
        bounds = np.append(starts, len(labels)).tolist()
        # Every id is at most MAX_ENTITY_ID, ingested ones too: at the
        # tables' int32 width a probe searches without a widening pass.
        node_ids = columns.node_ids.astype(np.int32)
        subjects = node_ids[columns.subjects[order]]
        objects = node_ids[columns.objects[order]]
        ief = np.empty(len(labels))
        degrees = np.empty(len(labels), dtype=np.int64)
        store = self._store
        for index, label_id in enumerate(in_use.tolist()):
            label = columns.label_strings[label_id]
            rows = slice(bounds[index], bounds[index + 1])
            # A label the store never saw has no rows anywhere.
            table = store.table_or_empty(label)
            same_subject = table.probe_subject(subjects[rows])[0]
            same_object = table.probe_object(objects[rows])[0]
            degrees[rows] = same_subject + same_object - 1
            ief[rows] = self.inverse_edge_label_frequency(label)
        weights = np.empty(len(labels))
        weights[order] = ief / np.maximum(degrees, 1)
        return weights

    # ------------------------------------------------------------------
    def finish_mutation(self) -> None:
        """Refresh |E| and drop memoized Eq. 2 weights after an ingest
        batch reached the store.

        ``ief`` depends on the global edge total, so every memoized
        weight is stale once any edge lands.
        """
        self._total_edges = self._store.num_rows
        self._base_weight_cache.clear()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(edges={self._total_edges}, "
            f"labels={self._store.num_tables})"
        )
