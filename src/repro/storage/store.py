"""The vertical-partition triple store: one edge table per label.

The store is built once from a :class:`~repro.graph.knowledge_graph.KnowledgeGraph`
and is the only structure the join engine touches at query time, mirroring
the paper's setup where "the whole data graph is hashed in memory ... before
any query comes in".

Building the store also builds its :class:`~repro.storage.vocabulary.Vocabulary`:
every node of the data graph is interned to a dense integer id (in node
insertion order, so ids are deterministic per graph), and the per-label
tables store ``(subj_id, obj_id)`` int rows.  Query-time joins therefore
never touch an entity string; decoding happens only when answers are
materialized.

Tables use the columnar struct-of-arrays layout
(:class:`~repro.storage.table.ColumnarEdgeTable`) that the vectorized
numpy join engine runs on.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.exceptions import GraphError
from repro.graph.knowledge_graph import KnowledgeGraph
from repro.storage.table import ColumnarEdgeTable
from repro.storage.vocabulary import MappedVocabulary, Vocabulary


class VerticalPartitionStore:
    """All per-label edge tables of a data graph, hash-indexed in memory."""

    def __init__(
        self, graph: KnowledgeGraph, vocabulary: Vocabulary | None = None
    ) -> None:
        self._graph = graph
        self._vocabulary = vocabulary if vocabulary is not None else Vocabulary()
        intern = self._vocabulary.intern
        # Intern every node first (not just edge endpoints) so the
        # vocabulary covers isolated nodes too and ids follow the graph's
        # deterministic node insertion order.
        for node in graph.nodes:
            intern(node)
        # After the node pass every endpoint is interned, so table rows are
        # filled through plain lookups.
        lookup = self._vocabulary.id_of
        self._tables: dict[str, ColumnarEdgeTable] = {}
        # Lazy-table state: a snapshot attaches a loader plus the
        # manifest's per-label row counts, so unopened labels can answer
        # cardinality/labels questions without mapping a shard.
        self._lazy_loader = None
        self._lazy_rows: dict[str, int] | None = None
        tables = self._tables
        for edge in graph.edges:
            table = tables.get(edge.label)
            if table is None:
                table = ColumnarEdgeTable(edge.label)
                tables[edge.label] = table
            table.add_row(lookup(edge.subject), lookup(edge.object))

    @classmethod
    def from_graph(cls, graph: KnowledgeGraph) -> "VerticalPartitionStore":
        """Build a store for ``graph`` (alias of the constructor)."""
        return cls(graph)

    @classmethod
    def skeleton(cls) -> "VerticalPartitionStore":
        """A store with no graph, vocabulary or tables: what a snapshot's
        ``store.section`` pickles.  Loading a snapshot attaches the mapped
        graph, vocabulary and table shards to it."""
        store = cls.__new__(cls)
        store._graph = None
        store._vocabulary = None
        store._tables = {}
        store._lazy_loader = None
        store._lazy_rows = None
        return store

    # The store pickles *without* the graph back-reference (the graph is
    # its own snapshot shard); the loader re-wires ``_graph``.  A lazily
    # sharded store resolves every pending table first — the pickle must
    # be self-contained, never a handle onto someone else's snapshot
    # directory.
    def __getstate__(self):
        self._resolve_all_tables()
        state = dict(self.__dict__)
        state["_graph"] = None
        state["_lazy_loader"] = None
        state["_lazy_rows"] = None
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        # Keys a ``store.section`` written by an older build still carries.
        self.__dict__.pop("_columnar", None)
        self.__dict__.pop("_prefetch_hints", None)

    # ------------------------------------------------------------------
    # lazy table resolution (snapshot shards)
    # ------------------------------------------------------------------
    def _attach_lazy_tables(self, loader, label_rows: dict[str, int]) -> None:
        """Adopt a shard loader: tables materialize per label on demand.

        ``loader`` must expose ``load_table(label) -> table``;
        ``label_rows`` is the manifest's per-label row count, which backs
        :meth:`cardinality` / :meth:`labels` / :meth:`num_rows` without
        opening a single shard (the join planner ranks edges by
        cardinality *before* deciding which tables to probe, so this is
        what keeps unprobed shards unmapped).
        """
        self._lazy_loader = loader
        self._lazy_rows = dict(label_rows)

    def _resolve_table(self, label: str):
        """The table for ``label``, mapping its shard on first access."""
        table = self._tables.get(label)
        if (
            table is None
            and self._lazy_loader is not None
            and label in self._lazy_rows
        ):
            table = self._lazy_loader.load_table(label)
            self._tables[label] = table
        return table

    def _resolve_all_tables(self) -> None:
        if self._lazy_loader is not None:
            for label in self._lazy_rows:
                self._resolve_table(label)

    def prefetch_labels(self, labels) -> int:
        """Open (and read-ahead hint) the shards of ``labels`` now.

        Called by the join engine with the labels of a freshly planned
        join so the kernel can fault the shards in (the reader issues
        ``madvise(WILLNEED)`` at open) while execution is still setting
        up, instead of blocking on the first probe of each table.  A
        no-op for already-resolved labels, unknown labels and stores
        built in memory.  Returns how many shards were opened.
        """
        if self._lazy_loader is None:
            return 0
        opened = 0
        for label in labels:
            if label not in self._tables and label in self._lazy_rows:
                self._resolve_table(label)
                opened += 1
        return opened

    @property
    def graph(self) -> KnowledgeGraph:
        """The data graph this store was built from."""
        return self._graph

    @property
    def vocabulary(self) -> Vocabulary | MappedVocabulary:
        """The entity vocabulary the tables were interned with."""
        return self._vocabulary

    def build_indexes(self) -> None:
        """Materialize every lazy probe index now.

        Queries build indexes on demand; snapshot builds call this so the
        serialized tables carry warm indexes and a loaded snapshot answers
        its first query without an index-build pause.  On a lazily sharded
        store this resolves every pending table first.
        """
        self._resolve_all_tables()
        for table in self._tables.values():
            table.build_indexes()

    def ingest_row(self, label: str, subject_id: int, object_id: int) -> None:
        """Insert one interned row, creating the label's table if needed.

        The write path for live ingest: an existing table (mapped or
        owned — ``add_row`` copy-on-write-promotes mapped columns) gets
        the row appended; a label the snapshot has never seen gets a
        fresh owned table.  Duplicate rows are table-level no-ops, but
        callers deduplicate against the *graph* first so vocabulary and
        statistics never see a duplicate either.
        """
        table = self._resolve_table(label)
        if table is None:
            table = ColumnarEdgeTable(label)
            self._tables[label] = table
        table.add_row(subject_id, object_id)

    def _delta_labels(self) -> list[str]:
        """Labels created by ingest that the shard manifest doesn't know."""
        if self._lazy_rows is None:
            return []
        return [label for label in self._tables if label not in self._lazy_rows]

    @property
    def num_tables(self) -> int:
        """Number of per-label tables (== number of distinct labels)."""
        if self._lazy_rows is not None:
            return len(self._lazy_rows) + len(self._delta_labels())
        return len(self._tables)

    @property
    def num_rows(self) -> int:
        """Total number of rows across all tables (== number of edges)."""
        if self._lazy_rows is not None:
            # Loaded tables answer for themselves (they may have been
            # mutated); unopened labels answer from the manifest; tables
            # ingest created exist only in ``_tables``.
            return sum(
                len(self._tables[label])
                if label in self._tables
                else manifest_rows
                for label, manifest_rows in self._lazy_rows.items()
            ) + sum(len(self._tables[label]) for label in self._delta_labels())
        return sum(len(table) for table in self._tables.values())

    def labels(self) -> Iterator[str]:
        """Iterate the labels with a table in the store.

        Manifest (base) labels come first in manifest order, then labels
        ingest created, in creation order — the same label order the
        union graph reports.
        """
        if self._lazy_rows is not None:
            delta = self._delta_labels()
            if delta:
                return iter([*self._lazy_rows, *delta])
            return iter(self._lazy_rows)
        return iter(self._tables)

    def has_label(self, label: str) -> bool:
        """Whether a table for ``label`` exists."""
        if self._lazy_rows is not None:
            return label in self._lazy_rows or label in self._tables
        return label in self._tables

    def table(self, label: str) -> ColumnarEdgeTable:
        """Return the table for ``label``; raise for unknown labels."""
        table = self._resolve_table(label)
        if table is None:
            raise GraphError(f"no edges with label {label!r} in the data graph")
        return table

    def table_or_empty(self, label: str) -> ColumnarEdgeTable:
        """Return the table for ``label`` or an empty table if unknown.

        The lookup must distinguish "label unknown" from "table present":
        a table with zero rows is falsy, so the obvious
        ``get(label) or ColumnarEdgeTable(label)`` would silently replace
        a stored (possibly indexed-but-empty) table with a fresh throwaway
        one.
        """
        table = self._resolve_table(label)
        if table is None:
            return ColumnarEdgeTable(label)
        return table

    def cardinality(self, label: str) -> int:
        """Number of rows in the table for ``label`` (0 if unknown).

        Never maps a shard: unopened labels answer from the manifest's
        row counts, so query *planning* stays shard-free.
        """
        table = self._tables.get(label)
        if table is not None:
            return len(table)
        if self._lazy_rows is not None:
            return self._lazy_rows.get(label, 0)
        return 0

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(tables={self.num_tables}, rows={self.num_rows})"
        )
