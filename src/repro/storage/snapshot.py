"""On-disk index snapshots: persist the offline build for instant warm starts.

GQBE's offline phase — interning the vocabulary, filling the per-label
edge tables and building their probe indexes, which the graph
statistics read — is query-independent, so it only ever needs to run
once per data graph.
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
The vocabulary arena and the graph CSR shard map on first access
(zero-copy, read-only ``mmap`` views shared between every process that
opens the same snapshot), each label table maps its shard on first
probe.  Nothing is unpickled: the store is constructed over the mapped
graph and vocabulary, and the statistics are a view over the store (the
edge total and per-label counts are the manifest's table row counts,
the participation counts probes of the tables).  Every file is verified
against the SHA-256 the manifest records the first time it is opened.

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

from os import PathLike
from pathlib import Path

from repro.exceptions import SnapshotError
from repro.graph.knowledge_graph import KnowledgeGraph
from repro.graph.statistics import GraphStatistics
from repro.storage.shards import ShardedSnapshotReader, graph_shards
from repro.storage.store import VerticalPartitionStore


class GraphStore:
    """The complete offline state of GQBE for one data graph.

    Bundles the data graph, its statistics and the
    vertical-partition store (which owns the vocabulary and the probe
    indexes), and knows how to round-trip the bundle through a snapshot
    directory.  :class:`~repro.core.gqbe.GQBE` accepts a ``GraphStore``
    in place of a raw graph to skip the entire offline build.

    A bundle is one shape whichever way it came: a snapshot directory
    mapped by :meth:`load`, or the same arrays computed in memory by
    :meth:`build`.  It starts *lazy*: each section is wrapped on first
    property access, so constructing a warm system is nearly free and the
    cost lands on the first query that needs each section.
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
        CSR, label tables with their probe indexes — and serves them as
        :meth:`load` serves a snapshot's, so a built bundle is queried,
        ingested into and saved like a loaded one.

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
        CSR arrays (a snapshot's shared pages, not a private copy), with
        whatever :meth:`ingest` added as its delta.
        """
        if self._graph is None:
            self._graph = self._reader.load_graph(self._vocabulary_from_arena())
        return self._graph

    @property
    def statistics(self) -> GraphStatistics:
        """The graph statistics: a view over :attr:`store`, which opens
        no shard of its own (a table maps when a count first probes it)."""
        if self._statistics is None:
            self._statistics = GraphStatistics(self.store)
        return self._statistics

    @property
    def store(self) -> VerticalPartitionStore:
        """The vertical-partition store (constructed on first access).

        It holds the mapped graph and vocabulary; the per-label tables
        stay unopened shards that the reader maps on first probe.
        """
        if self._store is None:
            reader = self._reader
            self._store = VerticalPartitionStore(
                self.graph, self._vocabulary_from_arena(), reader, reader.label_rows()
            )
        return self._store

    def materialize(self) -> "GraphStore":
        """Force all three sections to load now; returns ``self``.

        Lazily sharded tables are *not* resolved here — that is what
        keeps partial loading useful; ``store.table(label)`` opens one
        (:meth:`save` opens them all).
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

        Materializes the three sections and routes them through
        :func:`repro.storage.ingest.apply_triples`, which adds to each in
        place: the graph's delta and the touched labels' tables, which
        the statistics read.  Returns ``{"applied": n, "duplicates": m,
        "delta_edges": total}``.
        """
        from repro.storage.ingest import apply_triples

        self.materialize()
        applied, duplicates = apply_triples(
            self._graph, self._statistics, self._store, triples
        )
        if applied:
            self._delta_triples.extend(applied)
            # Shape counters (num_nodes/num_edges/num_labels) are stale;
            # meta() recomputes them from the live graph.
            self._meta = None
        return {
            "applied": len(applied),
            "duplicates": duplicates,
            "delta_edges": len(self._delta_triples),
        }

    # ------------------------------------------------------------------
    def save(self, path: str | PathLike) -> int:
        """Write the bundle as a snapshot directory; returns the bytes written.

        The write ``gqbe build-index`` finishes with (see
        :mod:`repro.storage.build`): the live vocabulary as the arena,
        then each label's id rows — base and ingested delta alike, in
        :meth:`VerticalPartitionStore.labels` order — through the build's
        finalize, which sorts them into the table shards (probe indexes
        included) and the graph CSR.  Ids do
        not move, so a compacted generation is the snapshot a build of the
        base dump followed by the applied delta writes, byte for byte.
        ``MANIFEST.json`` is written last, and one already in ``path`` is
        unlinked first: a crash leaves an unreadable directory, never a
        torn snapshot.

        Example::

            from repro.storage.snapshot import GraphStore

            bundle = GraphStore.build(graph)        # offline phase, once
            size = bundle.save("data.snap")
            assert size > 0

        Raises
        ------
        SnapshotError
            If the directory cannot be written, or is the one this bundle
            maps (it reads the very shards the write would replace).
        """
        from repro.storage.build import write_bundle_snapshot

        directory = Path(path)
        mapped = self._reader.directory
        if mapped is not None and directory.resolve() == mapped.resolve():
            raise SnapshotError(
                f"cannot write snapshot {directory!s}: this bundle maps its "
                "shards; save to another directory"
            )
        self.materialize()
        store = self.store
        return write_bundle_snapshot(
            directory,
            store.vocabulary,
            self.graph.num_nodes,
            [store.table(label) for label in store.labels()],
        )

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
