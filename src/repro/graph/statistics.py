"""Offline, query-independent graph statistics (Sec. III-B of the paper).

Two statistics drive GQBE's edge weighting and are precomputed once per
data graph because they do not depend on the query:

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

if TYPE_CHECKING:  # pragma: no cover - repro.graph.neighborhood imports the graphs
    from repro.graph.neighborhood import NeighborhoodColumns


class _CountColumns:
    """A ``(node, label) -> count`` mapping over two int64 columns.

    A snapshot persists each participation count of Eq. 4 as a pair of
    columns: sorted composite keys (``node_id * num_labels + label_id``)
    and their counts.  Node ids are the vocabulary's; label ids are the
    *statistics shard's own* (its label table is sorted, the graph
    shard's is in first-seen order), extended past ``num_labels`` by the
    labels live ingest brings.  Live-ingest writes (:meth:`add_one`)
    land in a small overlay dict of absolute values, keyed by the same
    id pair, that reads prefer.

    Two read surfaces: :meth:`counts_of` answers a whole column of id
    pairs with one ``np.searchsorted`` and is what a query uses; the
    string-keyed :meth:`get` serves the per-edge spec methods, at one
    vocabulary binary search per key.
    """

    __slots__ = ("_keys", "_counts", "_vocabulary", "_labels", "_label_ids", "_width", "_overlay")

    def __init__(self, keys, counts, vocabulary, labels, label_ids) -> None:
        self._keys = keys
        self._counts = counts
        self._vocabulary = vocabulary
        # Shared with the sibling columns, so both agree on an ingested label's id.
        self._labels = labels
        self._label_ids = label_ids
        self._width = max(len(labels), 1)  # the shard's num_labels
        self._overlay: dict[tuple[int, int], int] = {}

    def counts_of(self, node_ids: "np.ndarray", label_ids: "np.ndarray") -> "np.ndarray":
        """The counts at ``(node_ids[i], label_ids[i])`` as one owned array
        (0 where there is none)."""
        keys = self._keys
        composite = node_ids * self._width + label_ids
        slots = np.searchsorted(keys, composite)  # past the end: clipped below
        # A label that came with an ingest has no base key at all: its
        # composite would alias a key of the next node.  (An ingested
        # node's composite lies past every key.)
        found = (keys.take(slots, mode="clip") == composite) & (label_ids < self._width)
        counts = np.where(found, self._counts.take(slots, mode="clip"), 0)
        if self._overlay:
            # Overlay values are absolute: laid over the base count, not added.
            overlay = self._overlay.get
            for row, key in enumerate(zip(node_ids.tolist(), label_ids.tolist())):
                value = overlay(key)
                if value is not None:
                    counts[row] = value
        return counts

    def _count_at(self, node_id: int, label_id: int) -> int:
        """:meth:`counts_of` for one id pair, on Python ints (ingest asks
        twice per triple; a one-row array costs several times this)."""
        value = self._overlay.get((node_id, label_id))
        if value is None and label_id < self._width:
            composite = node_id * self._width + label_id
            slot = int(np.searchsorted(self._keys, composite))
            if slot < len(self._keys) and int(self._keys[slot]) == composite:
                return int(self._counts[slot])
        return value or 0

    def get(self, key: tuple[str, str], default: int = 0):
        term, label = key
        label_id = self._label_ids.get(label)
        node_id = None if label_id is None else self._vocabulary.id_of(term)
        if node_id is None:
            return default
        return self._count_at(node_id, label_id) or default

    def add_one(self, key: tuple[str, str]) -> None:
        """Count one more edge at ``key`` (live ingest); a label or an
        entity the snapshot never saw gets its id here."""
        term, label = key
        label_id = self._label_ids.get(label)
        if label_id is None:
            label_id = self._label_ids[label] = len(self._labels)
            self._labels.append(label)
        node_id = self._vocabulary.intern(term)
        self._overlay[node_id, label_id] = self._count_at(node_id, label_id) + 1

    def rekeyed(self, label_map: "np.ndarray", width: int) -> tuple["np.ndarray", "np.ndarray"]:
        """Sorted ``(keys, counts)`` columns with the overlay folded in,
        label id ``l`` renumbered ``label_map[l]`` in keys of ``width``."""
        nodes, labels = np.divmod(self._keys, self._width)
        keys = nodes * width + label_map[labels]
        counts = self._counts
        if self._overlay:
            pairs = np.array(list(self._overlay), dtype=np.int64)
            extra = pairs[:, 0] * width + label_map[pairs[:, 1]]
            kept = ~np.isin(keys, extra)
            keys = np.concatenate((keys[kept], extra))
            values = np.array(list(self._overlay.values()), dtype=np.int64)
            counts = np.concatenate((counts[kept], values))
        order = np.argsort(keys)
        return keys[order], counts[order]


class GraphStatistics:
    """Label-frequency and participation statistics of a data graph.

    The statistics refer to the *whole* data graph even when weights are
    later assigned to edges of a neighborhood subgraph, exactly as the
    paper prescribes.  The edge total and per-label counts are a small
    header; the two ``(node, label)`` participation counts of Eq. 4 are
    sorted composite-key / count int64 column pairs
    (:class:`_CountColumns`), mapped zero-copy from a snapshot's
    statistics shard (so N serving workers over one snapshot share their
    physical pages) or computed in memory by ``GraphStore.build``.  Live
    ingest accumulates into per-column overlay dicts.

    A query never hands these statistics a string: its neighborhood
    comes from the same graph as id columns, and :meth:`column_weights`
    computes Eq. 2 for all of its rows on those ids.  The per-edge
    methods (``ief`` / ``participation_degree`` / ``base_edge_weight``)
    answer for any :class:`Edge`, through one vocabulary binary search
    per lookup; they are the spec the array path is tested against.
    """

    def __init__(
        self,
        graph,
        vocabulary,
        labels: list[str],
        total_edges: int,
        label_counts: dict[str, int],
        out_keys,
        out_counts,
        in_keys,
        in_counts,
    ) -> None:
        if total_edges <= 0:
            raise GraphError("cannot compute statistics of an empty graph")
        self._graph = graph
        self._total_edges = int(total_edges)
        self._label_counts = dict(label_counts)
        labels = list(labels)
        self._label_ids = {label: index for index, label in enumerate(labels)}
        self._out_label_counts = _CountColumns(
            out_keys, out_counts, vocabulary, labels, self._label_ids
        )
        self._in_label_counts = _CountColumns(
            in_keys, in_counts, vocabulary, labels, self._label_ids
        )
        # Per-edge spec calls are memoized; a query never makes one (see
        # column_weights), so serving does not fill this.
        self._base_weight_cache: dict[Edge, float] = {}

    # ------------------------------------------------------------------
    @property
    def graph(self):
        """The data graph these statistics were computed from."""
        return self._graph

    @property
    def total_edges(self) -> int:
        """|E(G)| — the total number of edges in the data graph."""
        return self._total_edges

    @property
    def label_counts(self) -> dict[str, int]:
        """#label per label, in the graph's first-seen label order."""
        return dict(self._label_counts)

    def label_frequency(self, label: str) -> int:
        """#label(e) — number of edges in G bearing ``label``."""
        return self._label_counts.get(label, 0)

    def inverse_edge_label_frequency(self, edge: Edge | str) -> float:
        """ief(e) per Eq. 3; accepts an :class:`Edge` or a bare label.

        Unknown labels are treated as having frequency 1 (the rarest
        possible), which keeps the function total and monotone.
        """
        label = edge.label if isinstance(edge, Edge) else edge
        frequency = max(self._label_counts.get(label, 1), 1)
        return math.log(self._total_edges / frequency)

    # Short aliases mirroring the paper's notation -----------------------
    def ief(self, edge: Edge | str) -> float:
        """Alias for :meth:`inverse_edge_label_frequency`."""
        return self.inverse_edge_label_frequency(edge)

    def participation_degree(self, edge: Edge) -> int:
        """p(e) per Eq. 4 (at least 1, since ``e`` itself participates)."""
        same_subject = self._out_label_counts.get((edge.subject, edge.label), 0)
        same_object = self._in_label_counts.get((edge.object, edge.label), 0)
        # Edges counted by both terms are exactly those with the same
        # subject *and* object and the same label; in a set-of-triples
        # multigraph that is just the edge itself (if present).
        overlap = 1 if self._graph.has_edge(*edge) else 0
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
        the overlap term of Eq. 4 is 1 without a membership probe.
        """
        graph_labels = columns.label_strings
        # Graph label id -> this shard's label id and ief, per label in use.
        # A label the statistics never saw has no count anywhere.
        unseen = len(self._label_ids)
        own_ids = np.full(len(graph_labels), unseen, dtype=np.int64)
        ief = np.zeros(len(graph_labels))
        for label_id in set(columns.labels.tolist()):
            label = graph_labels[label_id]
            own_ids[label_id] = self._label_ids.get(label, unseen)
            ief[label_id] = self.inverse_edge_label_frequency(label)
        labels = own_ids[columns.labels]
        same_subject = self._out_label_counts.counts_of(
            columns.node_ids[columns.subjects], labels
        )
        same_object = self._in_label_counts.counts_of(
            columns.node_ids[columns.objects], labels
        )
        return ief[columns.labels] / np.maximum(same_subject + same_object - 1, 1)

    def count_columns(self) -> tuple[list[str], tuple["np.ndarray", ...]]:
        """The participation counts as a statistics shard lays them out:
        the sorted labels and ``(out_keys, out_counts, in_keys, in_counts)``,
        overlay included."""
        labels = sorted(self._label_ids)
        order = {label: index for index, label in enumerate(labels)}
        label_map = np.array(
            [order[label] for label in self._out_label_counts._labels], dtype=np.int64
        )
        width = max(len(labels), 1)
        return labels, (
            *self._out_label_counts.rekeyed(label_map, width),
            *self._in_label_counts.rekeyed(label_map, width),
        )

    # ------------------------------------------------------------------
    # live ingest (delta overlay) support
    # ------------------------------------------------------------------
    def apply_edge(self, edge: Edge) -> None:
        """Account one newly ingested edge (the caller deduplicated it).

        Increments exactly the counters a from-scratch build of the
        merged graph would hold.  The caller runs :meth:`finish_mutation`
        once per ingest batch.
        """
        self._total_edges += 1
        self._label_counts[edge.label] = self._label_counts.get(edge.label, 0) + 1
        self._out_label_counts.add_one((edge.subject, edge.label))
        self._in_label_counts.add_one((edge.object, edge.label))

    def finish_mutation(self) -> None:
        """Drop memoized Eq. 2 weights after a mutation batch.

        ``ief`` depends on the global edge total, so every memoized
        weight is stale once any edge lands.
        """
        self._base_weight_cache.clear()

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(edges={self._total_edges}, "
            f"labels={len(self._label_counts)})"
        )
