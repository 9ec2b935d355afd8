"""A knowledge-graph view over CSR adjacency arrays, plus an ingested delta.

A snapshot (:mod:`repro.storage.shards`) persists the data graph as six
columns — out- and in-adjacency in CSR form over the vocabulary's
entity ids: int32 ids and label ids under index pointers as wide as the
edge count needs — plus the label strings; ``GraphStore.build``
computes the same columns in memory.  This module's :class:`MappedKnowledgeGraph`
serves the read API of
:class:`~repro.graph.knowledge_graph.KnowledgeGraph` directly over those
columns, so a serve worker reopening a snapshot carries **no** private
copy of the adjacency: the hot consumer — neighborhood extraction
(:mod:`repro.graph.neighborhood`) — runs on the int arrays and
materializes :class:`~repro.graph.knowledge_graph.Edge` objects only for
the edges that survive the reduction, and the Eq. 2 weights of those
edges are computed on the same ids (:mod:`repro.graph.statistics`).  The
string-keyed read API below (``has_edge``, ``out_edges``, ...) pays one
vocabulary binary search per entity it is handed; a query calls it for
its own entities only.

Two ordering invariants tie the base columns to the edge set they were
built from (both the streaming build and ``GraphStore.build`` keep them):

* node id ``i`` is the ``i``-th node in the stream's first-occurrence
  (insertion) order;
* each node's out (in) slice lists its edges sorted by (label id, other
  node id), whatever order the stream listed them in.

The base columns are never written.  Live ingest (``POST /admin/ingest``)
adds a **delta**: new terms intern into the vocabulary's overlay
(``MappedVocabulary.intern``), so new nodes take the ids past the base's,
and the delta's edges are kept as id triples in ingest order with a small
CSR per direction over them (:class:`DeltaSlices`, int32 ids like the
base's), rebuilt once per ingest batch
(:meth:`MappedKnowledgeGraph.finish_mutation`).  Every
reader sees a node's base slice first and its delta slice after it.
A fresh build of the merged edge set sorts each slice, so it holds the
same edges in another order; no answer depends on that order
(``tests/test_engine_invariance.py``), and ids agree because the overlay
interns new terms in the order a build of base followed by delta meets
them (``tests/test_ingest_equivalence.py``).
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro._kernels import kernels
from repro.graph.knowledge_graph import Edge

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (storage imports us)
    from repro.storage.vocabulary import MappedVocabulary


class DeltaSlices:
    """One direction of the ingested delta as a CSR over the nodes it touches.

    ``nodes`` are the distinct owner ids, sorted; the slice of
    ``nodes[i]`` is ``indptr[i]:indptr[i + 1]`` of ``label_ids`` /
    ``others``, in ingest order.  ``indptr`` has one more, empty slot at
    ``len(nodes)``: :meth:`slots` sends every node without delta edges
    there, so a whole frontier reads its delta slices with the same run
    expansion as the base CSR.
    """

    __slots__ = ("nodes", "indptr", "label_ids", "others")

    def __init__(self, owners: "np.ndarray", label_ids: "np.ndarray", others: "np.ndarray") -> None:
        order = np.argsort(owners, kind="stable")
        self.nodes, counts = np.unique(owners[order], return_counts=True)
        self.indptr = np.zeros(len(self.nodes) + 2, dtype=np.int64)
        np.cumsum(counts, out=self.indptr[1:-1])
        self.indptr[-1] = self.indptr[-2]
        self.label_ids = label_ids[order]
        self.others = others[order]

    def slots(self, node_ids: "np.ndarray") -> "np.ndarray":
        """The ``indptr`` slot of each node's slice."""
        slots = np.searchsorted(self.nodes, node_ids)
        slots[self.nodes.take(slots, mode="clip") != node_ids] = len(self.nodes)
        return slots

    def slice(self, node_id: int) -> tuple[int, int]:
        """``node_id``'s slice bounds (empty without delta edges)."""
        slot = int(self.slots(np.array([node_id]))[0])
        return int(self.indptr[slot]), int(self.indptr[slot + 1])


class MappedKnowledgeGraph:
    """CSR adjacency over a graph shard's arrays, plus the ingested delta.

    Parameters are the arrays exactly as the shard lays them out (see
    :func:`repro.storage.shards.graph_shards`); ``vocabulary``
    decodes node ids to entity strings and back.  The instance owns no
    base array data — over a snapshot everything stays in the shared
    mapped pages; only the delta (:meth:`add_delta_edge`) is its own.
    """

    __slots__ = (
        "_vocabulary",
        "_labels",
        "_label_ids",
        "_label_count_map",
        "out_indptr",
        "out_objects",
        "out_label_ids",
        "in_indptr",
        "in_subjects",
        "in_label_ids",
        "_base_nodes",
        "_base_labels",
        "_num_nodes",
        "_delta_triples",
        "_delta_edges",
        "delta_out",
        "delta_in",
    )

    def __init__(
        self,
        vocabulary: MappedVocabulary,
        labels: Sequence[str],
        out_indptr,
        out_objects,
        out_labels,
        in_indptr,
        in_subjects,
        in_labels,
    ) -> None:
        self._vocabulary = vocabulary
        self._labels = list(labels)
        self._label_ids: dict[str, int] | None = None
        self._label_count_map: dict[str, int] | None = None
        self.out_indptr = out_indptr
        self.out_objects = out_objects
        self.out_label_ids = out_labels
        self.in_indptr = in_indptr
        self.in_subjects = in_subjects
        self.in_label_ids = in_labels
        self._base_nodes = len(out_indptr) - 1
        self._base_labels = len(self._labels)
        self._num_nodes = self._base_nodes
        #: The ingested ``(subject, label, object)`` id triples, in ingest order.
        self._delta_triples: list[tuple[int, int, int]] = []
        self._delta_edges: set[tuple[int, int, int]] = set()
        #: The delta's out (in) slices; ``None`` until the first ingest.
        self.delta_out: DeltaSlices | None = None
        self.delta_in: DeltaSlices | None = None

    # ------------------------------------------------------------------
    # id-level surface (the CSR fast paths)
    # ------------------------------------------------------------------
    @property
    def vocabulary(self) -> MappedVocabulary:
        """The vocabulary decoding node ids to entity strings."""
        return self._vocabulary

    @property
    def label_strings(self) -> list[str]:
        """Label id → label string (the shard's labels, ingested ones appended)."""
        return self._labels

    @property
    def base_num_nodes(self) -> int:
        """Number of nodes with a base CSR slice (the ones past it came with ingest)."""
        return self._base_nodes

    def node_id(self, node: str) -> int | None:
        """The node's dense id, or ``None`` for unknown nodes."""
        entity_id = self._vocabulary.id_of(node)
        if entity_id is None or entity_id >= self._num_nodes:
            return None
        return entity_id

    def term(self, node_id: int) -> str:
        """The entity string of ``node_id``."""
        return self._vocabulary.term_of(node_id)

    def _label_id(self, label: str) -> int | None:
        if self._label_ids is None:
            self._label_ids = {
                label: index for index, label in enumerate(self._labels)
            }
        return self._label_ids.get(label)

    def _adjacent(self, node_id: int, outgoing: bool) -> tuple[list[int], list[int]]:
        """``node_id``'s out (in) list as (label ids, other node ids):
        its base slice, then its delta slice."""
        if outgoing:
            indptr, label_column, others = self.out_indptr, self.out_label_ids, self.out_objects
            delta = self.delta_out
        else:
            indptr, label_column, others = self.in_indptr, self.in_label_ids, self.in_subjects
            delta = self.delta_in
        label_ids: list[int] = []
        other_ids: list[int] = []
        if node_id < self._base_nodes:
            start, end = int(indptr[node_id]), int(indptr[node_id + 1])
            label_ids = label_column[start:end].tolist()
            other_ids = others[start:end].tolist()
        if delta is not None:
            start, end = delta.slice(node_id)
            label_ids += delta.label_ids[start:end].tolist()
            other_ids += delta.others[start:end].tolist()
        return label_ids, other_ids

    # ------------------------------------------------------------------
    # live ingest
    # ------------------------------------------------------------------
    def add_delta_edge(self, subject: str, label: str, object: str) -> tuple[int, int]:
        """Add one triple to the delta; returns ``(subject_id, object_id)``.

        Callers must have rejected duplicates already (:meth:`has_edge`):
        interning happens here, and a duplicate must not intern anything,
        as ``KnowledgeGraph.add_edge`` deduplicates before adding nodes.
        Readers see the edge after :meth:`finish_mutation`; :meth:`has_edge`
        sees it at once, so one batch cannot add an edge twice.
        """
        subject_id = self._intern_node(subject)
        object_id = self._intern_node(object)
        label_id = self._label_id(label)
        if label_id is None:
            label_id = self._label_ids[label] = len(self._labels)
            self._labels.append(label)
        key = (subject_id, label_id, object_id)
        self._delta_edges.add(key)
        self._delta_triples.append(key)
        return subject_id, object_id

    def _intern_node(self, term: str) -> int:
        # The node count is tracked, not read off the vocabulary: the
        # overlay may hold terms that are not nodes.
        node_id = self._vocabulary.intern(term)
        if node_id >= self._num_nodes:
            self._num_nodes = node_id + 1
        return node_id

    def finish_mutation(self) -> None:
        """Rebuild the delta's slices after an ingest batch."""
        if self._delta_triples:
            # Ids at the snapshot's width: every id is at most MAX_ENTITY_ID.
            subjects, labels, objects = np.array(self._delta_triples, dtype=np.int32).T
            self.delta_out = DeltaSlices(subjects, labels, objects)
            self.delta_in = DeltaSlices(objects, labels, subjects)

    # ------------------------------------------------------------------
    # KnowledgeGraph read API
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes in the graph."""
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        """Number of distinct edges (triples) in the graph."""
        return len(self.out_objects) + len(self._delta_triples)

    @property
    def num_labels(self) -> int:
        """Number of distinct edge labels."""
        return len(self._labels)

    @property
    def labels(self) -> Iterator[str]:
        """Iterate over the distinct edge labels (base order, ingested appended)."""
        return iter(self._labels)

    @property
    def nodes(self) -> Iterator[str]:
        """Iterate over all node identifiers in insertion (= id) order."""
        term_of = self._vocabulary.term_of
        return (term_of(node_id) for node_id in range(self._num_nodes))

    @property
    def edges(self) -> Iterator[Edge]:
        """Every edge: the base's node by node, then the delta's in ingest order."""
        term_of = self._vocabulary.term_of
        labels = self._labels
        for node_id in range(self._base_nodes):
            subject = term_of(node_id)
            start = int(self.out_indptr[node_id])
            end = int(self.out_indptr[node_id + 1])
            for position in range(start, end):
                yield Edge(
                    subject,
                    labels[int(self.out_label_ids[position])],
                    term_of(int(self.out_objects[position])),
                )
        for subject_id, label_id, object_id in self._delta_triples:
            yield Edge(term_of(subject_id), labels[label_id], term_of(object_id))

    def has_node(self, node: str) -> bool:
        """Return whether ``node`` is present."""
        return self.node_id(node) is not None

    def has_edge(self, subject: str, label: str, object: str) -> bool:
        """Exact triple membership: the delta's set, else a vectorized scan
        of the subject's base slice."""
        subject_id = self.node_id(subject)
        object_id = self.node_id(object)
        label_id = self._label_id(label)
        if subject_id is None or object_id is None or label_id is None:
            return False
        if (subject_id, label_id, object_id) in self._delta_edges:
            return True
        if subject_id >= self._base_nodes or label_id >= self._base_labels:
            return False
        start = int(self.out_indptr[subject_id])
        end = int(self.out_indptr[subject_id + 1])
        if start == end:
            return False
        objects = self.out_objects[start:end]
        label_column = self.out_label_ids[start:end]
        return bool(((objects == object_id) & (label_column == label_id)).any())

    def label_count(self, label: str) -> int:
        """Number of edges bearing ``label`` (0 if unknown)."""
        return self.label_counts().get(label, 0)

    def label_counts(self) -> dict[str, int]:
        """Per-label edge counts (the base's computed once from its label column)."""
        if self._label_count_map is None:
            counts: dict[str, int] = {}
            column = self.out_label_ids
            if len(column):
                for label_id, count in enumerate(
                    np.bincount(column, minlength=self._base_labels)
                ):
                    if count:
                        counts[self._labels[label_id]] = int(count)
            self._label_count_map = counts
        counts = dict(self._label_count_map)
        for _, label_id, _ in self._delta_triples:
            label = self._labels[label_id]
            counts[label] = counts.get(label, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # adjacency (Edge-materializing; the BFS fast path bypasses these)
    # ------------------------------------------------------------------
    def _out_edges_of_id(self, node_id: int) -> list[Edge]:
        term_of = self._vocabulary.term_of
        labels = self._labels
        subject = term_of(node_id)
        return [
            Edge(subject, labels[label_id], term_of(object_id))
            for label_id, object_id in zip(*self._adjacent(node_id, True))
        ]

    def _in_edges_of_id(self, node_id: int) -> list[Edge]:
        term_of = self._vocabulary.term_of
        labels = self._labels
        object_term = term_of(node_id)
        return [
            Edge(term_of(subject_id), labels[label_id], object_term)
            for label_id, subject_id in zip(*self._adjacent(node_id, False))
        ]

    def out_edges(self, node: str) -> list[Edge]:
        """Edges whose subject is ``node`` (empty list for unknown nodes)."""
        node_id = self.node_id(node)
        return [] if node_id is None else self._out_edges_of_id(node_id)

    def in_edges(self, node: str) -> list[Edge]:
        """Edges whose object is ``node`` (empty list for unknown nodes)."""
        node_id = self.node_id(node)
        return [] if node_id is None else self._in_edges_of_id(node_id)

    def incident_edges(self, node: str) -> list[Edge]:
        """All edges incident on ``node`` (self-loops once), like
        :meth:`KnowledgeGraph.incident_edges`."""
        node_id = self.node_id(node)
        if node_id is None:
            return []
        incident = self._out_edges_of_id(node_id)
        incident.extend(
            edge
            for edge in self._in_edges_of_id(node_id)
            if edge.subject != edge.object
        )
        return incident

    def degree(self, node: str) -> int:
        """Total number of incident edges (self-loops counted once)."""
        return len(self.incident_edges(node))

    def out_degree(self, node: str) -> int:
        """Number of outgoing edges."""
        node_id = self.node_id(node)
        return 0 if node_id is None else len(self._adjacent(node_id, True)[1])

    def in_degree(self, node: str) -> int:
        """Number of incoming edges."""
        node_id = self.node_id(node)
        return 0 if node_id is None else len(self._adjacent(node_id, False)[1])

    def neighbors(self, node: str) -> set[str]:
        """Undirected neighbours of ``node`` (excluding ``node`` itself)."""
        node_id = self.node_id(node)
        if node_id is None:
            return set()
        term_of = self._vocabulary.term_of
        adjacent = {
            term_of(neighbor_id) for neighbor_id in self.neighbor_ids(node_id)
        }
        adjacent.discard(node)
        return adjacent

    def neighbor_ids(self, node_id: int) -> list[int]:
        """Undirected neighbor ids: the out list, then the in list."""
        if self.delta_out is None:
            return kernels.csr_neighbors(
                node_id,
                self.out_indptr,
                self.out_objects,
                self.in_indptr,
                self.in_subjects,
            )
        return self._adjacent(node_id, True)[1] + self._adjacent(node_id, False)[1]

    def __contains__(self, item: object) -> bool:
        if isinstance(item, Edge):
            return self.has_edge(*item)
        if isinstance(item, str):
            return self.has_node(item)
        return False

    def __len__(self) -> int:
        return self.num_edges

    def __iter__(self) -> Iterator[Edge]:
        return iter(self.edges)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(nodes={self.num_nodes}, "
            f"edges={self.num_edges}, labels={self.num_labels}, "
            f"delta_edges={len(self._delta_triples)})"
        )
