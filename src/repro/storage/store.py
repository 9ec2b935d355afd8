"""The vertical-partition triple store: one edge table per label.

The store is the only structure the join engine touches at query time,
mirroring the paper's setup where "the whole data graph is hashed in
memory ... before any query comes in".  Its per-label tables hold
``(subj_id, obj_id)`` rows of dense vocabulary ids in the columnar
struct-of-arrays layout (:class:`~repro.storage.table.ColumnarEdgeTable`)
that the vectorized numpy join engine runs on, so query-time joins never
touch an entity string; decoding happens only when answers are
materialized.

:class:`~repro.storage.snapshot.GraphStore` constructs a store from the
graph, the vocabulary and a loader that hands out each label's table on
first use — mapped from a snapshot shard, or built in memory.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.exceptions import GraphError
from repro.storage.table import ColumnarEdgeTable
from repro.storage.vocabulary import MappedVocabulary


class VerticalPartitionStore:
    """All per-label edge tables of a data graph, opened per label on demand."""

    def __init__(
        self, graph, vocabulary: MappedVocabulary, loader, label_rows: dict[str, int]
    ) -> None:
        """A store over ``graph`` whose tables ``loader`` opens per label.

        ``loader`` must expose ``load_table(label) -> table``;
        ``label_rows`` is the manifest's per-label row count, which backs
        :meth:`cardinality` / :meth:`labels` / :meth:`num_rows` without
        opening a single shard (the join planner ranks edges by
        cardinality *before* deciding which tables to probe, so this is
        what keeps unprobed shards unmapped).
        """
        self._graph = graph
        self._vocabulary = vocabulary
        self._tables: dict[str, ColumnarEdgeTable] = {}
        self._lazy_loader = loader
        self._lazy_rows = dict(label_rows)

    # ------------------------------------------------------------------
    # lazy table resolution (snapshot shards)
    # ------------------------------------------------------------------
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

    def ingest_rows(self, label: str, subject_ids: list[int], object_ids: list[int]) -> None:
        """Append interned rows to ``label``'s table (live ingest).

        The table is replaced by one over its old and new rows, sorted
        by (subject, object) into new arrays (the old columns may be a
        shard's mapped views); a label the snapshot has never seen gets
        its first table, after every existing label.  A table never
        changes under a reader, so no index it built goes stale.  The
        rows must be new: callers deduplicate against the *graph*, so
        vocabulary and statistics never see a duplicate either.
        """
        # Ids at the snapshot's width: every id is at most MAX_ENTITY_ID.
        subjects = np.array(subject_ids, dtype=np.int32)
        objects = np.array(object_ids, dtype=np.int32)
        table = self._resolve_table(label)
        if table is not None:
            subjects = np.concatenate((table.subject_ids(), subjects))
            objects = np.concatenate((table.object_ids(), objects))
        order = np.lexsort((objects, subjects))
        self._tables[label] = ColumnarEdgeTable.from_mapped(
            label, subjects[order], objects[order]
        )

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
        # Loaded tables answer for themselves (ingest may have replaced
        # them); unopened labels answer from the manifest; tables
        # ingest created exist only in ``_tables``.
        return sum(
            len(self._tables[label]) if label in self._tables else manifest_rows
            for label, manifest_rows in self._lazy_rows.items()
        ) + sum(len(self._tables[label]) for label in self._delta_labels())

    def labels(self) -> Iterator[str]:
        """Iterate the labels with a table in the store.

        Manifest (base) labels come first in manifest order, then labels
        ingest created, in creation order — the same label order the
        graph reports.
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
