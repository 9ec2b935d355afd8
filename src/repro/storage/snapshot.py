"""On-disk index snapshots: persist the offline build for instant warm starts.

GQBE's offline phase — interning the vocabulary, filling the per-label
edge tables, building probe indexes and computing the graph statistics —
is query-independent, so it only ever needs to run once per data graph.
:class:`GraphStore` bundles everything that phase produces (the data
graph, its :class:`~repro.graph.statistics.GraphStatistics` and the
:class:`~repro.storage.store.VerticalPartitionStore` with its vocabulary)
and serializes the bundle to a snapshot directory.  Built in memory
(:meth:`GraphStore.build`) or mapped from disk (:meth:`GraphStore.load`),
the bundle holds the same arrays in the same classes.

A snapshot is a **rebuildable cache** of the offline phase, not a
document format: there is one layout (the sharded directory of
:mod:`repro.storage.shards`), no migration path, and a directory written
by a build that laid it out differently is refused with a
:class:`~repro.exceptions.SnapshotError` that says to rebuild it with
``gqbe build-index``.

Loading is **lazy**: :meth:`GraphStore.load` reads only the manifest.
The vocabulary arena, the graph CSR shard and the statistics counts
shard map on first access (zero-copy, read-only ``mmap`` views shared
between every process that opens the same snapshot), each label table
maps its shard on first probe, and only two small pickles — the
statistics header and the empty store — deserialize per process.
Every file is verified against the SHA-256 the manifest records the
first time it is opened.  The section pickles make a snapshot a
**trusted local artifact** — load only directories you built yourself,
like any cache directory.

CLI workflow
------------

Build once, then query against the snapshot::

    gqbe build-index data.tsv data.snap
    gqbe query --snapshot data.snap --tuple "Jerry Yang,Yahoo!"

Programmatically::

    GraphStore.build(graph).save("data.snap")
    system = GQBE.from_snapshot("data.snap")
"""

from __future__ import annotations

import pickle
from os import PathLike
from pathlib import Path

from repro.exceptions import SnapshotError
from repro.graph.knowledge_graph import KnowledgeGraph
from repro.graph.statistics import GraphStatistics
from repro.storage.shards import (
    ShardedSnapshotReader,
    graph_shards,
    write_graph_shard,
    write_manifest,
    write_statistics_shard,
    write_table_shard,
    write_vocabulary_shard,
)
from repro.storage.store import VerticalPartitionStore


class GraphStore:
    """The complete offline state of GQBE for one data graph.

    Bundles the data graph, its precomputed statistics and the
    vertical-partition store (which owns the vocabulary and the probe
    indexes), and knows how to round-trip the bundle through a snapshot
    directory.  :class:`~repro.core.gqbe.GQBE` accepts a ``GraphStore``
    in place of a raw graph to skip the entire offline build.

    A bundle is one shape whichever way it came: a snapshot directory
    mapped by :meth:`load`, or the same arrays computed in memory by
    :meth:`build`.  It starts *lazy*: each section is wrapped (or, for
    the two small pickles, deserialized) on first property access, so
    constructing a warm system is nearly free and the cost lands on the
    first query that needs each section.
    """

    def __init__(self, reader: ShardedSnapshotReader) -> None:
        self._reader = reader
        self._meta: dict | None = dict(reader.meta)
        self._graph = None
        self._statistics: GraphStatistics | None = None
        self._store: VerticalPartitionStore | None = None
        self._mapped_vocabulary = None
        self._delta_triples: list[tuple[str, str, str]] = []

    @classmethod
    def build(cls, graph: KnowledgeGraph) -> "GraphStore":
        """Run the offline phase for ``graph`` in memory (the cold start).

        Computes the arrays :meth:`save` writes — vocabulary arena, graph
        CSR, participation counts, label tables with their probe indexes
        — and serves them as :meth:`load` serves a snapshot's, so a built
        bundle is queried, ingested into and saved like a loaded one.

        Raises
        ------
        GraphError
            If ``graph`` has no edges.
        """
        return cls(graph_shards(graph))

    def _vocabulary_from_arena(self):
        """The snapshot's mapped vocabulary, shared by graph and store."""
        if self._mapped_vocabulary is None:
            self._mapped_vocabulary = self._reader.load_vocabulary()
        return self._mapped_vocabulary

    # ------------------------------------------------------------------
    # sections (lazy)
    # ------------------------------------------------------------------
    @property
    def graph(self):
        """The data graph (mapped on first access).

        A :class:`~repro.graph.mapped.MappedKnowledgeGraph` over the graph
        CSR arrays (a snapshot's shared pages, not a private copy), or
        after an ingest the :class:`~repro.graph.delta.DeltaKnowledgeGraph`
        over it.
        """
        if self._graph is None:
            self._graph = self._reader.load_graph(self._vocabulary_from_arena())
        return self._graph

    @property
    def statistics(self) -> GraphStatistics:
        """The precomputed graph statistics (mapped on first access).

        The two ``(node, label)`` participation counts are mapped
        binary-searchable columns (shared pages) and only the small
        header — edge total and per-label counts — unpickles per process.
        """
        if self._statistics is None:
            header = pickle.loads(self._reader.load_section("statistics"))
            labels, columns = self._reader.load_statistics_counts()
            self._statistics = GraphStatistics(
                self.graph,
                self._vocabulary_from_arena(),
                labels,
                header["total_edges"],
                header["label_counts"],
                *columns,
            )
        return self._statistics

    @property
    def store(self) -> VerticalPartitionStore:
        """The vertical-partition store (materialized on first access).

        Only the empty store deserializes here; it adopts the mapped
        graph and vocabulary, and the per-label tables stay as unopened
        shards that the reader maps on first probe.
        """
        if self._store is None:
            store = pickle.loads(self._reader.load_section("store"))
            store._graph = self.graph
            store._vocabulary = self._vocabulary_from_arena()
            store._attach_lazy_tables(self._reader, self._reader.label_rows())
            self._store = store
        return self._store

    def materialize(self) -> "GraphStore":
        """Force all three sections to load now; returns ``self``.

        Lazily sharded tables are *not* resolved here — that is what
        keeps partial loading useful; call ``store.build_indexes()``
        (or :meth:`save`) to force every shard open.
        """
        _ = self.graph
        _ = self.statistics
        _ = self.store
        return self

    def lazy_report(self) -> dict:
        """What this bundle has actually loaded so far.

        Which sections were read and which label shards were mapped
        (``tables_opened`` / ``tables_total``).  Used by tests and
        benchmarks to prove partial loading.
        """
        return {
            "format": f"v{self._reader.format_version}",
            "sections_loaded": list(self._reader.sections_loaded),
            "tables_opened": self._reader.tables_opened,
            "tables_total": len(self._reader.label_rows()),
            "opened_labels": list(self._reader.opened_labels),
        }

    # ------------------------------------------------------------------
    def meta(self) -> dict:
        """The snapshot metadata describing this bundle."""
        if self._meta is not None:
            return dict(self._meta)
        return {
            "num_nodes": self.graph.num_nodes,
            "num_edges": self.graph.num_edges,
            "num_labels": self.graph.num_labels,
        }

    # ------------------------------------------------------------------
    # live ingest (delta overlay)
    # ------------------------------------------------------------------
    @property
    def delta_triples(self) -> list[tuple[str, str, str]]:
        """Triples applied since load, in application order.

        Replaying exactly this list against a fresh load of the same
        snapshot reproduces this bundle's state (pool workers do).
        """
        return list(self._delta_triples)

    def ingest(self, triples) -> dict:
        """Apply ``triples`` to the live bundle; returns what happened.

        Materializes the three sections, routes them through
        :func:`repro.storage.ingest.apply_triples`, and adopts the
        returned graph (the mapped graph gets wrapped in a
        :class:`~repro.graph.delta.DeltaKnowledgeGraph` union view).  Returns ``{"applied": n,
        "duplicates": m, "delta_edges": total}``.
        """
        from repro.storage.ingest import apply_triples

        self.materialize()
        graph = self._graph
        new_graph, applied, duplicates = apply_triples(
            graph, self._statistics, self._store, triples
        )
        if new_graph is not graph:
            self._graph = new_graph
            self._statistics._graph = new_graph
            self._store._graph = new_graph
        if applied:
            self._delta_triples.extend(applied)
            # Shape counters (num_nodes/num_edges/num_labels) are stale;
            # meta() recomputes them from the live union graph.
            self._meta = None
        return {
            "applied": len(applied),
            "duplicates": duplicates,
            "delta_edges": len(self._delta_triples),
        }

    # ------------------------------------------------------------------
    def save(self, path: str | PathLike) -> int:
        """Write the bundle as a snapshot directory; returns the bytes written.

        One memory-mappable shard per label table, the vocabulary as a
        string arena, the data graph as a CSR adjacency shard and the
        participation counts as sorted columns (see
        :mod:`repro.storage.shards`) — what ``gqbe build-index``
        produces.  Probe indexes are materialized first so the snapshot
        carries them and a loaded store answers its first query without
        an index-build pause.  ``MANIFEST.json`` is written last: a
        crash leaves an unreadable directory, never a torn snapshot.

        Example::

            from repro.storage.snapshot import GraphStore

            bundle = GraphStore.build(graph)        # offline phase, once
            size = bundle.save("data.snap")
            assert size > 0

        Raises
        ------
        SnapshotError
            If the directory cannot be written.
        """
        directory = Path(path)
        self.materialize()
        store = self.store
        store.build_indexes()
        vocabulary = store.vocabulary
        try:
            (directory / "tables").mkdir(parents=True, exist_ok=True)
            vocabulary_entry = write_vocabulary_shard(
                directory / "vocabulary.arena", vocabulary
            )
            graph_entry = write_graph_shard(directory / "graph.csr", self.graph)
            statistics_entry = write_statistics_shard(
                directory / "statistics.counts", self.statistics
            )
            tables = []
            # Snapshot the label list first: resolving a lazy table in
            # store.table() mutates the _tables dict mid-iteration.
            for index, label in enumerate(list(store.labels())):
                file_name = f"tables/{index:05d}.shard"
                entry = write_table_shard(directory / file_name, store.table(label))
                tables.append({**entry, "file": file_name})
            return write_manifest(
                directory,
                meta=self.meta(),
                total_edges=self.statistics.total_edges,
                label_counts=self.statistics.label_counts,
                vocabulary={**vocabulary_entry, "file": "vocabulary.arena"},
                graph={**graph_entry, "file": "graph.csr"},
                statistics_counts={**statistics_entry, "file": "statistics.counts"},
                tables=tables,
            )
        except OSError as error:
            raise SnapshotError(
                f"cannot write snapshot {directory!s}: {error}"
            ) from error

    @classmethod
    def load(cls, path: str | PathLike) -> "GraphStore":
        """Open a snapshot directory; sections stay lazy until accessed.

        Only the manifest is read here — sections load on first access,
        each label table maps its shard on first probe.

        Example::

            from repro.core.gqbe import GQBE
            from repro.storage.snapshot import GraphStore

            bundle = GraphStore.load("data.snap")   # manifest only
            system = GQBE(graph_store=bundle)       # warm start
            # or in one step: GQBE.from_snapshot("data.snap")

        Raises
        ------
        SnapshotError
            If ``path`` is not a snapshot directory this build can read:
            missing, a regular file, an unreadable or foreign manifest,
            or one laid out by another version of the format.
        """
        return cls(ShardedSnapshotReader(path))


def read_snapshot_meta(path: str | PathLike) -> dict:
    """Validate a snapshot's manifest and return only its ``meta`` mapping.

    Never opens a shard or a section; used by tooling that only needs to
    inspect what a snapshot contains, and by
    :func:`~repro.storage.generations.resolve_latest_generation` to skip
    generations whose write never completed.
    """
    return dict(ShardedSnapshotReader(path).meta)
