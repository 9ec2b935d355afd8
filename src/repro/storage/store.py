"""The vertical-partition triple store: one edge table per label.

The store is the only structure the join engine touches at query time,
mirroring the paper's setup where "the whole data graph is hashed in
memory ... before any query comes in".  Its per-label tables hold
``(subj_id, obj_id)`` rows of dense vocabulary ids in the columnar
struct-of-arrays layout (:class:`~repro.storage.table.ColumnarEdgeTable`)
that the vectorized numpy join engine runs on, so query-time joins never
touch an entity string; decoding happens only when answers are
materialized.

A store starts empty; :class:`~repro.storage.snapshot.GraphStore` gives
it the graph, the vocabulary and a loader that hands out each label's
table on first use — mapped from a snapshot shard, or built in memory.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.exceptions import GraphError
from repro.storage.table import ColumnarEdgeTable
from repro.storage.vocabulary import MappedVocabulary


class VerticalPartitionStore:
    """All per-label edge tables of a data graph, opened per label on demand."""

    def __init__(self) -> None:
        # An empty store is what a snapshot's ``store.section`` pickles;
        # GraphStore attaches the graph, vocabulary and table loader.
        self._graph = None
        self._vocabulary: MappedVocabulary | None = None
        self._tables: dict[str, ColumnarEdgeTable] = {}
        self._lazy_loader = None
        self._lazy_rows: dict[str, int] | None = None

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
        if table is None and label in self._lazy_rows:
            table = self._lazy_loader.load_table(label)
            self._tables[label] = table
        return table

    def prefetch_labels(self, labels) -> int:
        """Open (and read-ahead hint) the shards of ``labels`` now.

        Called by the join engine with the labels of a freshly planned
        join so the kernel can fault the shards in (the reader issues
        ``madvise(WILLNEED)`` at open) while execution is still setting
        up, instead of blocking on the first probe of each table.  A
        no-op for already-resolved and unknown labels.  Returns how many
        shards were opened.
        """
        opened = 0
        for label in labels:
            if label not in self._tables and label in self._lazy_rows:
                self._resolve_table(label)
                opened += 1
        return opened

    @property
    def graph(self):
        """The data graph this store holds the tables of."""
        return self._graph

    @property
    def vocabulary(self) -> MappedVocabulary:
        """The entity vocabulary the tables were interned with."""
        return self._vocabulary

    def build_indexes(self) -> None:
        """Materialize every lazy probe index now.

        Queries build indexes on demand; ``GraphStore.save`` calls this
        so the written tables carry warm indexes and a loaded snapshot
        answers its first query without an index-build pause.  Every
        pending table is resolved first.
        """
        for label in self._lazy_rows:
            self._resolve_table(label)
        for table in self._tables.values():
            table.build_indexes()

    def ingest_row(self, label: str, subject_id: int, object_id: int) -> None:
        """Insert one interned row, creating the label's table if needed.

        The write path for live ingest: an existing table gets the row
        appended (``add_row`` copy-on-write-promotes mapped columns); a
        label the snapshot has never seen gets a fresh owned table.  Duplicate rows are table-level no-ops, but
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
        return [label for label in self._tables if label not in self._lazy_rows]

    @property
    def num_tables(self) -> int:
        """Number of per-label tables (== number of distinct labels)."""
        return len(self._lazy_rows) + len(self._delta_labels())

    @property
    def num_rows(self) -> int:
        """Total number of rows across all tables (== number of edges)."""
        # Loaded tables answer for themselves (they may have been
        # mutated); unopened labels answer from the manifest; tables
        # ingest created exist only in ``_tables``.
        return sum(
            len(self._tables[label]) if label in self._tables else manifest_rows
            for label, manifest_rows in self._lazy_rows.items()
        ) + sum(len(self._tables[label]) for label in self._delta_labels())

    def labels(self) -> Iterator[str]:
        """Iterate the labels with a table in the store.

        Manifest (base) labels come first in manifest order, then labels
        ingest created, in creation order — the same label order the
        union graph reports.
        """
        delta = self._delta_labels()
        if delta:
            return iter([*self._lazy_rows, *delta])
        return iter(self._lazy_rows)

    def has_label(self, label: str) -> bool:
        """Whether a table for ``label`` exists."""
        return label in self._lazy_rows or label in self._tables

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
        return self._lazy_rows.get(label, 0)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(tables={self.num_tables}, rows={self.num_rows})"
        )
