"""A read-only knowledge-graph view over CSR adjacency arrays.

A snapshot (:mod:`repro.storage.shards`) persists the data graph as six
int64 columns — out- and in-adjacency in CSR form over the vocabulary's
entity ids — plus the label strings; ``GraphStore.build`` computes the
same columns in memory.  This module's :class:`MappedKnowledgeGraph`
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

Two ordering invariants tie the columns to the triple stream they were
built from (and are guaranteed by both writers):

* node id ``i`` is the ``i``-th node in the stream's first-occurrence
  (insertion) order;
* each node's out (in) slice lists its edges in the same order as a
  :class:`~repro.graph.knowledge_graph.KnowledgeGraph` of that stream
  lists them in its per-node adjacency.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from typing import TYPE_CHECKING

from repro._kernels import kernels
from repro.graph.knowledge_graph import Edge

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (storage imports us)
    from repro.storage.vocabulary import MappedVocabulary


class MappedKnowledgeGraph:
    """Read-only CSR adjacency over a graph shard's arrays.

    Parameters are the arrays exactly as the shard lays them out (see
    :func:`repro.storage.shards.write_graph_shard`); ``vocabulary``
    decodes node ids to entity strings and back.  The instance owns no
    array data — over a snapshot everything stays in the shared mapped
    pages.
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
        "_num_edges",
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
        self._num_edges = len(out_objects)

    # ------------------------------------------------------------------
    # id-level surface (the CSR fast paths)
    # ------------------------------------------------------------------
    @property
    def vocabulary(self) -> MappedVocabulary:
        """The vocabulary decoding node ids to entity strings."""
        return self._vocabulary

    @property
    def label_strings(self) -> list[str]:
        """Label id → label string (the shard's label table)."""
        return self._labels

    def node_id(self, node: str) -> int | None:
        """The node's dense id, or ``None`` for unknown nodes."""
        entity_id = self._vocabulary.id_of(node)
        if entity_id is None or entity_id >= self.num_nodes:
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

    # ------------------------------------------------------------------
    # KnowledgeGraph read API
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes in the graph."""
        return len(self.out_indptr) - 1

    @property
    def num_edges(self) -> int:
        """Number of distinct edges (triples) in the graph."""
        return self._num_edges

    @property
    def num_labels(self) -> int:
        """Number of distinct edge labels."""
        return len(self._labels)

    @property
    def labels(self) -> Iterator[str]:
        """Iterate over the distinct edge labels."""
        return iter(self._labels)

    @property
    def nodes(self) -> Iterator[str]:
        """Iterate over all node identifiers in insertion (= id) order."""
        term_of = self._vocabulary.term_of
        return (term_of(node_id) for node_id in range(self.num_nodes))

    @property
    def edges(self) -> Iterator[Edge]:
        """Iterate every edge (materialized lazily, one at a time)."""
        term_of = self._vocabulary.term_of
        labels = self._labels
        for node_id in range(self.num_nodes):
            subject = term_of(node_id)
            start = int(self.out_indptr[node_id])
            end = int(self.out_indptr[node_id + 1])
            for position in range(start, end):
                yield Edge(
                    subject,
                    labels[int(self.out_label_ids[position])],
                    term_of(int(self.out_objects[position])),
                )

    def has_node(self, node: str) -> bool:
        """Return whether ``node`` is present."""
        return self.node_id(node) is not None

    def has_edge(self, subject: str, label: str, object: str) -> bool:
        """Exact triple membership: a vectorized scan of the subject's slice."""
        subject_id = self.node_id(subject)
        object_id = self.node_id(object)
        label_id = self._label_id(label)
        if subject_id is None or object_id is None or label_id is None:
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
        """Per-label edge counts (computed once from the label column)."""
        if self._label_count_map is None:
            counts: dict[str, int] = {}
            labels = self._labels
            column = self.out_label_ids
            if len(column):
                import numpy as np

                for label_id, count in enumerate(
                    np.bincount(column, minlength=len(labels))
                ):
                    if count:
                        counts[labels[label_id]] = int(count)
            self._label_count_map = counts
        return dict(self._label_count_map)

    # ------------------------------------------------------------------
    # adjacency (Edge-materializing; the BFS fast path bypasses these)
    # ------------------------------------------------------------------
    def _out_edges_of_id(self, node_id: int) -> list[Edge]:
        term_of = self._vocabulary.term_of
        labels = self._labels
        subject = term_of(node_id)
        start = int(self.out_indptr[node_id])
        end = int(self.out_indptr[node_id + 1])
        return [
            Edge(
                subject,
                labels[int(self.out_label_ids[position])],
                term_of(int(self.out_objects[position])),
            )
            for position in range(start, end)
        ]

    def _in_edges_of_id(self, node_id: int) -> list[Edge]:
        term_of = self._vocabulary.term_of
        labels = self._labels
        object_term = term_of(node_id)
        start = int(self.in_indptr[node_id])
        end = int(self.in_indptr[node_id + 1])
        return [
            Edge(
                term_of(int(self.in_subjects[position])),
                labels[int(self.in_label_ids[position])],
                object_term,
            )
            for position in range(start, end)
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
        if node_id is None:
            return 0
        return int(self.out_indptr[node_id + 1] - self.out_indptr[node_id])

    def in_degree(self, node: str) -> int:
        """Number of incoming edges."""
        node_id = self.node_id(node)
        if node_id is None:
            return 0
        return int(self.in_indptr[node_id + 1] - self.in_indptr[node_id])

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
        """Undirected neighbor ids, out-slice order then in-slice order."""
        return kernels.csr_neighbors(
            node_id,
            self.out_indptr,
            self.out_objects,
            self.in_indptr,
            self.in_subjects,
        )

    def __contains__(self, item: object) -> bool:
        if isinstance(item, Edge):
            return self.has_edge(*item)
        if isinstance(item, str):
            return self.has_node(item)
        return False

    def __len__(self) -> int:
        return self._num_edges

    def __iter__(self) -> Iterator[Edge]:
        return iter(self.edges)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(nodes={self.num_nodes}, "
            f"edges={self.num_edges}, labels={self.num_labels})"
        )
