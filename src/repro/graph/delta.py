"""A mutable delta overlay over a mapped (read-only) knowledge graph.

The v3 snapshot serves its graph as memory-mapped CSR columns
(:class:`~repro.graph.mapped.MappedKnowledgeGraph`) — fast, shared
between worker processes, and immutable.  Live ingest
(``POST /admin/ingest``) needs mutation, so this module layers an
owned, in-memory **delta** over the mapped base: new nodes intern into
the vocabulary's existing overlay (``MappedVocabulary.intern``), new
edges append to per-node extra-adjacency lists, and every reader sees
the union *base slice first, delta appends after*.

A fresh build of the merged edge set sorts each node's slice by (label,
other), so its slices hold the same edges as this union in another
order.  No answer depends on that order
(``tests/test_engine_invariance.py`` permutes every slice and table), and
ids agree because the overlay interns new terms in ingest order, the
order a build of base followed by delta meets them: answers over (base +
delta) are byte-identical to a from-scratch build of the merged graph
(``tests/test_ingest_equivalence.py`` pins this).

Compaction (``GraphStore.save``) writes the union's vocabulary and label
tables through the build's finalize, which sorts them again.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.exceptions import GraphError
from repro.graph.knowledge_graph import Edge
from repro.graph.mapped import MappedKnowledgeGraph


class DeltaKnowledgeGraph:
    """Union view of a mapped base graph plus an owned in-memory delta.

    The instance shares the base's :class:`MappedVocabulary` — delta
    nodes land in its intern overlay, so the store tables, statistics
    and this graph agree on ids without any translation layer.  The
    base's CSR pages are never written; all mutation lives in plain
    Python lists and dicts owned by this object.
    """

    __slots__ = (
        "_base",
        "_vocabulary",
        "_labels",
        "_label_ids",
        "_base_nodes",
        "_base_labels",
        "_num_nodes",
        "_num_edges",
        "_out_extra",
        "_in_extra",
        "_delta_edges",
        "_delta_triples",
        "_delta_label_counts",
    )

    def __init__(self, base: MappedKnowledgeGraph) -> None:
        self._base = base
        self._vocabulary = base.vocabulary
        self._labels: list[str] = list(base.label_strings)
        self._label_ids: dict[str, int] = {
            label: index for index, label in enumerate(self._labels)
        }
        self._base_nodes = base.num_nodes
        self._base_labels = len(self._labels)
        # Track our own node count rather than deriving it from the
        # vocabulary: the overlay may intern terms that are not nodes.
        self._num_nodes = base.num_nodes
        self._num_edges = base.num_edges
        self._out_extra: dict[int, list[tuple[int, int]]] = {}
        self._in_extra: dict[int, list[tuple[int, int]]] = {}
        self._delta_edges: set[tuple[int, int, int]] = set()
        self._delta_triples: list[tuple[int, int, int]] = []
        self._delta_label_counts: dict[str, int] = {}

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add_delta_edge(self, subject: str, label: str, object: str) -> tuple[int, int]:
        """Add one triple to the delta; returns ``(subject_id, object_id)``.

        Callers must have rejected duplicates already (:meth:`has_edge`)
        — interning happens here, and a duplicate must not intern
        anything, mirroring ``KnowledgeGraph.add_edge``'s dedup-before-
        add-node order.
        """
        if not subject or not label or not object:
            raise GraphError(
                f"triple terms must be non-empty strings, got "
                f"({subject!r}, {label!r}, {object!r})"
            )
        subject_id = self._intern_node(subject)
        object_id = self._intern_node(object)
        label_id = self._label_ids.get(label)
        if label_id is None:
            label_id = len(self._labels)
            self._labels.append(label)
            self._label_ids[label] = label_id
        key = (subject_id, label_id, object_id)
        if key in self._delta_edges:
            return subject_id, object_id
        self._delta_edges.add(key)
        self._delta_triples.append(key)
        self._out_extra.setdefault(subject_id, []).append((label_id, object_id))
        self._in_extra.setdefault(object_id, []).append((label_id, subject_id))
        self._delta_label_counts[label] = self._delta_label_counts.get(label, 0) + 1
        self._num_edges += 1
        return subject_id, object_id

    def _intern_node(self, term: str) -> int:
        node_id = self._vocabulary.intern(term)
        if node_id >= self._num_nodes:
            self._num_nodes = node_id + 1
        return node_id

    # ------------------------------------------------------------------
    # id-level surface (BFS and statistics fast paths)
    # ------------------------------------------------------------------
    @property
    def base(self) -> MappedKnowledgeGraph:
        """The immutable mapped base graph under the delta."""
        return self._base

    @property
    def vocabulary(self):
        """The shared (overlay-carrying) vocabulary."""
        return self._vocabulary

    @property
    def label_strings(self) -> list[str]:
        """Label id → label string (base labels first, delta appended)."""
        return self._labels

    @property
    def delta_edge_count(self) -> int:
        """Number of edges living in the delta overlay."""
        return len(self._delta_triples)

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
        return self._label_ids.get(label)

    def out_extras(self, node_id: int) -> list[tuple[int, int]]:
        """Delta out-edges of ``node_id`` as ``(label_id, object_id)``."""
        return self._out_extra.get(node_id, _EMPTY)

    def in_extras(self, node_id: int) -> list[tuple[int, int]]:
        """Delta in-edges of ``node_id`` as ``(label_id, subject_id)``."""
        return self._in_extra.get(node_id, _EMPTY)

    def _base_out_slice(self, node_id: int) -> tuple[int, int]:
        if node_id >= self._base_nodes:
            return 0, 0
        indptr = self._base.out_indptr
        return int(indptr[node_id]), int(indptr[node_id + 1])

    def _base_in_slice(self, node_id: int) -> tuple[int, int]:
        if node_id >= self._base_nodes:
            return 0, 0
        indptr = self._base.in_indptr
        return int(indptr[node_id]), int(indptr[node_id + 1])

    def _base_has_edge_ids(self, subject_id: int, label_id: int, object_id: int) -> bool:
        if (
            subject_id >= self._base_nodes
            or object_id >= self._base_nodes
            or label_id >= self._base_labels
        ):
            return False
        start, end = self._base_out_slice(subject_id)
        if start == end:
            return False
        objects = self._base.out_objects[start:end]
        label_column = self._base.out_label_ids[start:end]
        return bool(((objects == object_id) & (label_column == label_id)).any())

    # ------------------------------------------------------------------
    # KnowledgeGraph read API
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes in the union graph."""
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        """Number of distinct edges in the union graph."""
        return self._num_edges

    @property
    def num_labels(self) -> int:
        """Number of distinct edge labels."""
        return len(self._labels)

    @property
    def labels(self) -> Iterator[str]:
        """Iterate the distinct labels (base order, delta appended)."""
        return iter(self._labels)

    @property
    def nodes(self) -> Iterator[str]:
        """Iterate all node identifiers in id (= insertion) order."""
        term_of = self._vocabulary.term_of
        return (term_of(node_id) for node_id in range(self._num_nodes))

    @property
    def edges(self) -> Iterator[Edge]:
        """Every edge: the base's stream, then delta edges in ingest order."""
        yield from self._base.edges
        term_of = self._vocabulary.term_of
        labels = self._labels
        for subject_id, label_id, object_id in self._delta_triples:
            yield Edge(term_of(subject_id), labels[label_id], term_of(object_id))

    def has_node(self, node: str) -> bool:
        """Return whether ``node`` is present in base or delta."""
        return self.node_id(node) is not None

    def has_edge(self, subject: str, label: str, object: str) -> bool:
        """Exact triple membership across base slice and delta set."""
        subject_id = self.node_id(subject)
        object_id = self.node_id(object)
        label_id = self._label_ids.get(label)
        if subject_id is None or object_id is None or label_id is None:
            return False
        if (subject_id, label_id, object_id) in self._delta_edges:
            return True
        return self._base_has_edge_ids(subject_id, label_id, object_id)

    def label_count(self, label: str) -> int:
        """Number of edges bearing ``label`` (0 if unknown)."""
        return self.label_counts().get(label, 0)

    def label_counts(self) -> dict[str, int]:
        """Per-label edge counts over the union."""
        counts = self._base.label_counts()
        for label, count in self._delta_label_counts.items():
            counts[label] = counts.get(label, 0) + count
        return counts

    # ------------------------------------------------------------------
    # adjacency (Edge-materializing; the BFS fast path bypasses these)
    # ------------------------------------------------------------------
    def _out_edges_of_id(self, node_id: int) -> list[Edge]:
        term_of = self._vocabulary.term_of
        labels = self._labels
        subject = term_of(node_id)
        edges = (
            self._base._out_edges_of_id(node_id)
            if node_id < self._base_nodes
            else []
        )
        edges.extend(
            Edge(subject, labels[label_id], term_of(object_id))
            for label_id, object_id in self.out_extras(node_id)
        )
        return edges

    def _in_edges_of_id(self, node_id: int) -> list[Edge]:
        term_of = self._vocabulary.term_of
        labels = self._labels
        object_term = term_of(node_id)
        edges = (
            self._base._in_edges_of_id(node_id)
            if node_id < self._base_nodes
            else []
        )
        edges.extend(
            Edge(term_of(subject_id), labels[label_id], object_term)
            for label_id, subject_id in self.in_extras(node_id)
        )
        return edges

    def out_edges(self, node: str) -> list[Edge]:
        """Edges whose subject is ``node`` (empty list for unknown nodes)."""
        node_id = self.node_id(node)
        return [] if node_id is None else self._out_edges_of_id(node_id)

    def in_edges(self, node: str) -> list[Edge]:
        """Edges whose object is ``node`` (empty list for unknown nodes)."""
        node_id = self.node_id(node)
        return [] if node_id is None else self._in_edges_of_id(node_id)

    def incident_edges(self, node: str) -> list[Edge]:
        """All edges incident on ``node``, self-loops listed once."""
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
        start, end = self._base_out_slice(node_id)
        return (end - start) + len(self.out_extras(node_id))

    def in_degree(self, node: str) -> int:
        """Number of incoming edges."""
        node_id = self.node_id(node)
        if node_id is None:
            return 0
        start, end = self._base_in_slice(node_id)
        return (end - start) + len(self.in_extras(node_id))

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
        """Undirected neighbor ids: base out, delta out, base in, delta in."""
        start, end = self._base_out_slice(node_id)
        ids = self._base.out_objects[start:end].tolist() if end > start else []
        ids.extend(object_id for _, object_id in self.out_extras(node_id))
        start, end = self._base_in_slice(node_id)
        if end > start:
            ids.extend(self._base.in_subjects[start:end].tolist())
        ids.extend(subject_id for _, subject_id in self.in_extras(node_id))
        return ids

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
            f"edges={self.num_edges}, delta_edges={self.delta_edge_count})"
        )


_EMPTY: list[tuple[int, int]] = []
