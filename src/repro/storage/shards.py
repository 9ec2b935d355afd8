"""The snapshot layout: a directory of memory-mappable shards.

A snapshot splits the offline state into a *directory* of independently
verifiable files:

``MANIFEST.json``
    The envelope: magic, format version, the snapshot ``meta`` mapping,
    and a catalog of every other file with its SHA-256 digest, byte size
    and (for table shards) label and row count.  Reading the manifest is
    the whole cost of opening a snapshot.  It is written last, so a
    directory without a valid one is a build that never finished.
``statistics.section`` / ``store.section``
    Two small pickles: the statistics header (edge total and per-label
    counts) and the store *skeleton* (no graph, vocabulary or tables;
    loading attaches the mapped ones).  Each deserializes lazily on first
    access.
``tables/NNNNN.shard``
    One binary shard per label's
    :class:`~repro.storage.table.ColumnarEdgeTable`: the two int64 id
    columns **plus the persisted probe indexes** (both CSR-style sorted
    group indexes and the pair-membership index), written as raw
    little-endian arrays at 64-byte-aligned offsets.  A shard is opened
    with one ``mmap`` and the arrays become zero-copy read-only
    ``np.frombuffer`` views — no deserialization, no sorting, no copy —
    so N worker processes mapping the same snapshot share one set of
    physical pages, and a label table that no query probes is never
    faulted in at all.
``vocabulary.arena``
    The entity vocabulary as a string arena: every term's UTF-8 bytes
    concatenated in id order (``blob``), an int64 offset column
    (``offsets``, ``n + 1`` entries) and a byte-order sort permutation
    of the ids (``sorted_ids``).  Reopens as a zero-copy
    :class:`~repro.storage.vocabulary.MappedVocabulary`: ``term_of`` is
    an offset slice, ``id_of`` a binary search — no dict rebuild.
``graph.csr``
    The data graph as CSR adjacency over the interned ids: ``out_indptr``
    / ``out_objects`` / ``out_labels`` and ``in_indptr`` / ``in_subjects``
    / ``in_labels`` (label ids index the label list carried in the shard
    header).  Per-node slices preserve the graph's adjacency-list
    orders, which is what keeps neighborhood extraction — and therefore
    every ranked answer — byte-identical to the in-memory graph.  Reopens
    as a :class:`~repro.graph.mapped.MappedKnowledgeGraph`.
``statistics.counts``
    The ``(node, label)`` participation counts of Eq. 4 as sorted
    composite-key / count int64 column pairs, reopened as the columns of
    a :class:`~repro.graph.statistics.GraphStatistics`.

So the only per-worker private memory is the two small sections plus
interpreter state.  The manifest's ``format_version`` is
:data:`FORMAT_VERSION`; a directory that says anything else, or lacks
one of the three mapped-shard entries, is refused — a snapshot is a
cache of the offline build, and the fix is to rebuild it.

Shard binary layout (little-endian)::

    offset  size  field
    0       8     magic ``b"GQBESHRD"``
    8       4     shard format version (uint32, currently 1)
    12      4     header JSON length H (uint32)
    16      H     header JSON (kind-specific fields + array catalog)
    ...           arrays, each starting at a 64-byte-aligned offset

The header's ``arrays`` mapping gives each array's item count, byte
offset *relative to the data base* — the first 64-byte boundary after
the header — and dtype (``"<i8"`` int64, the default, or ``"u1"`` raw
bytes for the vocabulary blob), so header length and array layout never
depend on each other.

Integrity: every file's SHA-256 is recorded in the manifest.  Sections
are verified when they deserialize; a binary shard is verified the first
time it is opened (one streamed read that also warms the page cache),
then structurally validated (offset bounds, CSR monotonicity) before any
view is handed out, so corruption is still caught per shard without
forcing an eager read of shards the workload never touches.  The section
pickles are **trusted local artifacts** — load only snapshots you built
yourself.

Opened shards are hinted with ``madvise(MADV_WILLNEED)`` (where the
platform supports it) so the kernel reads ahead while the engine is
still planning; the store issues the open itself for every label a join
plan is about to probe (see
:meth:`~repro.storage.store.VerticalPartitionStore.prefetch_labels`).
"""

from __future__ import annotations

import hashlib
import json
import mmap
import pickle
import struct
from collections.abc import Callable, Sequence
from os import PathLike
from pathlib import Path

import numpy as np

from repro.exceptions import GraphError, SnapshotError
from repro.graph.delta import DeltaKnowledgeGraph
from repro.graph.knowledge_graph import KnowledgeGraph
from repro.graph.mapped import MappedKnowledgeGraph
from repro.storage.store import VerticalPartitionStore
from repro.storage.table import ColumnarEdgeTable, _SortedGroupIndex
from repro.storage.vocabulary import MappedVocabulary, arena_arrays

SHARD_MAGIC = b"GQBESHRD"
SHARD_VERSION = 1
MANIFEST_NAME = "MANIFEST.json"
MANIFEST_MAGIC = "GQBESNAP2"
#: The manifest ``format_version`` this build writes and reads.
FORMAT_VERSION = 3
_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL
_ALIGNMENT = 64
_SHARD_HEADER = struct.Struct("<8sII")

#: int64, little-endian — the default dtype of a shard array.
_DTYPE = "<i8"
#: Raw bytes — the vocabulary blob's dtype.
_BYTE_DTYPE = "u1"
_ITEMSIZES = {_DTYPE: 8, _BYTE_DTYPE: 1}


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            block = handle.read(1 << 20)
            if not block:
                break
            digest.update(block)
    return digest.hexdigest()


def _align(offset: int) -> int:
    return (offset + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT


# ----------------------------------------------------------------------
# writing
# ----------------------------------------------------------------------
class ShardStreamWriter:
    """Incrementally write one binary shard without materializing it.

    The array catalog — ``(name, count, dtype)`` per array, in file order —
    must be declared up front (the header JSON embeds every offset), but the
    array *contents* are then appended chunk by chunk, so peak memory is one
    chunk rather than one shard.  The byte layout (header struct, catalog
    JSON, 64-byte-aligned zero-padded arrays) is identical to what the
    one-shot :func:`_write_shard_file` produced historically; that function
    is now a thin wrapper over this class, which is what pins the streaming
    build's shards byte-identical to the in-memory build's.

    Chunks must arrive in catalog order; ``close`` verifies every declared
    element was written and returns the manifest entry.  A shard left behind
    by a crash is harmless — the snapshot manifest is always written last.
    """

    def __init__(
        self,
        path: Path,
        header_fields: dict,
        array_specs: Sequence[tuple[str, int, str]],
    ) -> None:
        catalog: dict[str, dict] = {}
        relative = 0
        for name, count, dtype in array_specs:
            if dtype not in _ITEMSIZES:
                raise SnapshotError(f"unknown shard array dtype {dtype!r}")
            if name in catalog:
                raise SnapshotError(f"duplicate shard array name {name!r}")
            relative = _align(relative)
            catalog[name] = {
                "offset": relative,
                "count": int(count),
                "dtype": dtype,
            }
            relative += int(count) * _ITEMSIZES[dtype]
        header_bytes = json.dumps(
            {**header_fields, "arrays": catalog}, sort_keys=True
        ).encode("utf-8")
        self._base = _align(_SHARD_HEADER.size + len(header_bytes))
        self._total = self._base + relative
        self._catalog = catalog
        self._order = [name for name, _, _ in array_specs]
        self._cursor = 0  # index into _order
        self._written = 0  # elements written into the current array
        self._digest = hashlib.sha256()
        self._position = 0
        self._handle = open(path, "wb")
        prefix = bytearray(self._base)
        _SHARD_HEADER.pack_into(
            prefix, 0, SHARD_MAGIC, SHARD_VERSION, len(header_bytes)
        )
        prefix[_SHARD_HEADER.size : _SHARD_HEADER.size + len(header_bytes)] = (
            header_bytes
        )
        self._emit(bytes(prefix))

    def _emit(self, data: bytes) -> None:
        self._handle.write(data)
        self._digest.update(data)
        self._position += len(data)

    def _pad_to(self, target: int) -> None:
        if target > self._position:
            self._emit(bytes(target - self._position))

    def _finish_current(self) -> None:
        """Assert the current array is complete and advance past it."""
        name = self._order[self._cursor]
        expected = self._catalog[name]["count"]
        if self._written != expected:
            raise SnapshotError(
                f"shard array {name!r} is incomplete: declared {expected} "
                f"elements, got {self._written}"
            )
        self._cursor += 1
        self._written = 0

    def append(self, name: str, data: "np.ndarray") -> None:
        """Append a chunk of array ``name`` (arrays strictly in catalog order)."""
        while self._cursor < len(self._order) and self._order[self._cursor] != name:
            self._finish_current()
        if self._cursor >= len(self._order):
            raise SnapshotError(f"shard array {name!r} is not in the catalog")
        entry = self._catalog[name]
        itemsize = _ITEMSIZES[entry["dtype"]]
        chunk = np.ascontiguousarray(
            data, dtype=np.uint8 if itemsize == 1 else np.int64
        )
        if self._written == 0:
            self._pad_to(self._base + entry["offset"])
        if self._written + len(chunk) > entry["count"]:
            raise SnapshotError(
                f"shard array {name!r} overflows its declared count "
                f"({entry['count']})"
            )
        self._emit(chunk.tobytes())
        self._written += len(chunk)

    def close(self) -> dict:
        """Finish the shard; returns ``{"bytes", "sha256"}`` for the manifest."""
        while self._cursor < len(self._order):
            self._finish_current()
        self._pad_to(self._total)
        self._handle.close()
        return {"bytes": self._total, "sha256": self._digest.hexdigest()}

    def abort(self) -> None:
        """Close the file handle without completeness checks (error paths)."""
        self._handle.close()


def _write_shard_file(
    path: Path, header_fields: dict, arrays: dict[str, "np.ndarray"]
) -> dict:
    """Write one binary shard; returns ``{"bytes", "sha256"}`` for the manifest.

    ``arrays`` may mix int64 and uint8 (byte-blob) arrays; each lands at
    a 64-byte-aligned offset and is cataloged in the header JSON with its
    dtype, so readers never guess a layout.
    """
    specs = [
        (name, len(data), _BYTE_DTYPE if data.dtype.itemsize == 1 else _DTYPE)
        for name, data in arrays.items()
    ]
    writer = ShardStreamWriter(path, header_fields, specs)
    try:
        for name, data in arrays.items():
            writer.append(name, data)
    # gqbe: ignore[EXC001] -- last-resort net: whatever append raises
    # (I/O failure, bad array shape), the half-written shard file must be
    # closed before the error propagates; the exception itself is re-raised.
    except Exception:
        writer.abort()
        raise
    return writer.close()


def _table_shard(table: ColumnarEdgeTable) -> tuple[dict, dict[str, "np.ndarray"]]:
    """The header and arrays a shard persists for ``table`` (indexes prebuilt)."""
    table.build_indexes()
    arrays: dict[str, np.ndarray] = {
        "subjects": np.ascontiguousarray(table.subject_ids(), dtype=_DTYPE),
        "objects": np.ascontiguousarray(table.object_ids(), dtype=_DTYPE),
    }
    pair_stride = 0
    if len(table):
        subject_index = table._subject_group_index()
        object_index = table._object_group_index()
        table._ensure_pair_index()
        arrays["subject_order"] = np.ascontiguousarray(subject_index.order, dtype=_DTYPE)
        arrays["subject_keys"] = np.ascontiguousarray(subject_index.keys, dtype=_DTYPE)
        arrays["subject_bounds"] = np.ascontiguousarray(subject_index.bounds, dtype=_DTYPE)
        arrays["object_order"] = np.ascontiguousarray(object_index.order, dtype=_DTYPE)
        arrays["object_keys"] = np.ascontiguousarray(object_index.keys, dtype=_DTYPE)
        arrays["object_bounds"] = np.ascontiguousarray(object_index.bounds, dtype=_DTYPE)
        arrays["pair_keys"] = np.ascontiguousarray(table._pair_keys, dtype=_DTYPE)
        pair_stride = table._pair_stride
    header = {"label": table.label, "rows": len(table), "pair_stride": int(pair_stride)}
    return header, arrays


def write_table_shard(path: Path, table: ColumnarEdgeTable) -> dict:
    """Write one label table as a binary shard; returns its catalog entry.

    The returned mapping (file-relative name excluded — the caller knows
    where it put the file) carries ``sha256``, ``bytes``, ``rows`` and
    ``label`` for the manifest.
    """
    entry = _write_shard_file(path, *_table_shard(table))
    return {"label": table.label, "rows": len(table), **entry}


def write_vocabulary_shard(path: Path, vocabulary) -> dict:
    """Write a vocabulary as a string arena; returns its manifest entry.

    ``vocabulary`` is anything iterating its terms in id order (a
    :class:`~repro.storage.vocabulary.MappedVocabulary` with its ingest
    overlay, when a snapshot is resaved).
    """
    terms = list(vocabulary)
    entry = _write_shard_file(
        path, {"kind": "vocabulary", "terms": len(terms)}, arena_arrays(terms)
    )
    return {"terms": len(terms), **entry}


def _statistics_arrays(columns) -> dict[str, "np.ndarray"]:
    return dict(zip(("out_keys", "out_counts", "in_keys", "in_counts"), columns))


def write_statistics_shard(path: Path, statistics) -> dict:
    """Write the (node, label) participation counts as mapped columns.

    Each count becomes a pair of int64 columns — composite keys
    ``node_id * num_labels + label_id`` in sorted order, and the counts —
    that reopen as zero-copy binary-searchable views; the sorted label
    list rides in the shard header (see
    :meth:`~repro.graph.statistics.GraphStatistics.count_columns`).
    """
    labels, columns = statistics.count_columns()
    entry = _write_shard_file(
        path, {"kind": "statistics", "labels": labels}, _statistics_arrays(columns)
    )
    return {"entries": int(len(columns[0]) + len(columns[2])), **entry}


_CSR_NAMES = ("out_indptr", "out_objects", "out_labels", "in_indptr", "in_subjects", "in_labels")


def _graph_csr_arrays(graph) -> tuple[list[str], dict[str, "np.ndarray"]]:
    """CSR adjacency arrays of a mapped graph, or of a delta overlay folded
    back into CSR form (compaction).

    The merged per-node order of an overlay (base slice, then delta
    appends) is the order every live reader saw, so the compacted
    generation keeps answering byte-identically.
    """
    if isinstance(graph, DeltaKnowledgeGraph):
        labels, *columns = graph.csr_lists()
    else:
        labels = list(graph.label_strings)
        columns = (
            graph.out_indptr,
            graph.out_objects,
            graph.out_label_ids,
            graph.in_indptr,
            graph.in_subjects,
            graph.in_label_ids,
        )
    return labels, {
        name: np.ascontiguousarray(column, dtype=_DTYPE)
        for name, column in zip(_CSR_NAMES, columns)
    }


def _graph_header(labels: list[str], nodes: int, edges: int) -> dict:
    return {"kind": "graph", "nodes": nodes, "edges": edges, "labels": labels}


def write_graph_shard(path: Path, graph) -> dict:
    """Write the data graph as a CSR adjacency shard; returns its entry.

    Node ids are vocabulary ids, so the graph shard and the vocabulary
    arena of one snapshot decode each other; the label list rides in the
    shard header.
    """
    labels, arrays = _graph_csr_arrays(graph)
    header = _graph_header(labels, graph.num_nodes, graph.num_edges)
    entry = _write_shard_file(path, header, arrays)
    return {"nodes": graph.num_nodes, "edges": graph.num_edges, **entry}


def graph_shards(graph: KnowledgeGraph) -> "BuiltSnapshot":
    """The offline phase for ``graph``, in memory: every array a snapshot
    of it holds, served by a :class:`BuiltSnapshot`.

    Node ids follow ``graph.nodes`` (insertion order), label ids of the
    CSR ``graph.labels`` (first-seen order), each node's CSR slices its
    adjacency lists and each label table ``graph.edges`` order — the
    shards :func:`~repro.storage.build.build_streaming_snapshot` writes
    for the graph's edge stream, byte for byte.
    """
    if graph.num_edges == 0:
        raise GraphError("cannot compute statistics of an empty graph")
    terms = list(graph.nodes)
    ids = {term: index for index, term in enumerate(terms)}
    labels = list(graph.labels)
    label_ids = {label: index for index, label in enumerate(labels)}
    csr = []
    # Edge tuples are (subject, label, object): an out list's other end is
    # field 2, an in list's field 0.
    for adjacency, other in ((graph.out_adjacency, 2), (graph.in_adjacency, 0)):
        lists = [adjacency.get(term, ()) for term in terms]
        indptr = np.zeros(len(terms) + 1, dtype=np.int64)
        np.cumsum([len(edges) for edges in lists], out=indptr[1:])
        flat = [edge for edges in lists for edge in edges]
        csr += [
            indptr,
            np.array([ids[edge[other]] for edge in flat], dtype=np.int64),
            np.array([label_ids[edge[1]] for edge in flat], dtype=np.int64),
        ]
    files = {
        "vocabulary.arena": ({"kind": "vocabulary", "terms": len(terms)}, arena_arrays(terms)),
        "graph.csr": (
            _graph_header(labels, len(terms), graph.num_edges),
            dict(zip(_CSR_NAMES, csr)),
        ),
    }

    # Every edge once, in graph.edges order: the rows of the label tables.
    edges = list(graph.edges)
    subjects = np.array([ids[edge.subject] for edge in edges], dtype=np.int64)
    objects = np.array([ids[edge.object] for edge in edges], dtype=np.int64)
    edge_labels = np.array([label_ids[edge.label] for edge in edges], dtype=np.int64)
    tables = []
    by_label = np.argsort(edge_labels, kind="stable")
    bounds = np.searchsorted(edge_labels[by_label], np.arange(len(labels) + 1))
    for label_id, label in enumerate(labels):
        rows = by_label[bounds[label_id] : bounds[label_id + 1]]
        name = f"tables/{label_id:05d}.shard"
        table = ColumnarEdgeTable.from_mapped(label, subjects[rows], objects[rows])
        files[name] = _table_shard(table)
        tables.append({"label": label, "rows": len(rows), "file": name})

    # Participation counts, keyed on the sorted label order.
    stat_labels = sorted(labels)
    stat_order = {label: index for index, label in enumerate(stat_labels)}
    stat_ids = np.array([stat_order[label] for label in labels], dtype=np.int64)
    width = max(len(labels), 1)
    columns = []
    for nodes in (subjects, objects):
        columns += np.unique(nodes * width + stat_ids[edge_labels], return_counts=True)
    files["statistics.counts"] = (
        {"kind": "statistics", "labels": stat_labels},
        _statistics_arrays(columns),
    )
    label_counts = graph.label_counts()
    manifest = {
        "meta": {"num_nodes": len(terms), "num_edges": len(edges), "num_labels": len(labels)},
        "vocabulary": {"terms": len(terms), "file": "vocabulary.arena"},
        "graph": {"nodes": len(terms), "edges": len(edges), "file": "graph.csr"},
        "statistics_counts": {"file": "statistics.counts"},
        "tables": tables,
    }
    sections = _section_payloads(len(edges), label_counts)
    return BuiltSnapshot(manifest, files, sections)


def _section_payloads(total_edges: int, label_counts: dict[str, int]) -> dict[str, bytes]:
    """The two section pickles: the statistics header and the store skeleton."""
    statistics_header = {
        "kind": "mapped-statistics",
        "total_edges": total_edges,
        "label_counts": label_counts,
    }
    return {
        "statistics": pickle.dumps(statistics_header, protocol=_PICKLE_PROTOCOL),
        "store": pickle.dumps(VerticalPartitionStore(), protocol=_PICKLE_PROTOCOL),
    }


def write_manifest(
    directory: Path,
    *,
    meta: dict,
    total_edges: int,
    label_counts: dict[str, int],
    vocabulary: dict,
    graph: dict,
    statistics_counts: dict,
    tables: list[dict],
) -> int:
    """Finish a snapshot whose shards are on disk; returns its total bytes.

    Writes the two section pickles — the statistics header and the store
    skeleton — and then ``MANIFEST.json``, which catalogs them with the
    shard entries passed in (each carrying its ``file``).  The manifest
    is the commit point: until it lands, ``directory`` is an unreadable
    work area, never a torn snapshot.  Both writers, ``GraphStore.save``
    and the streaming build, finish here, so their manifests are equal
    byte for byte whenever their shards are.
    """
    payloads = _section_payloads(total_edges, label_counts)
    sections = {}
    for name, payload in payloads.items():
        file_name = f"{name}.section"
        (directory / file_name).write_bytes(payload)
        sections[name] = {
            "file": file_name,
            "bytes": len(payload),
            "sha256": hashlib.sha256(payload).hexdigest(),
        }
    manifest = {
        "magic": MANIFEST_MAGIC,
        "format_version": FORMAT_VERSION,
        "pickle_protocol": _PICKLE_PROTOCOL,
        "meta": meta,
        "sections": sections,
        "vocabulary": vocabulary,
        "graph": graph,
        "statistics_counts": statistics_counts,
        "tables": tables,
    }
    manifest_bytes = json.dumps(manifest, indent=1, sort_keys=True).encode("utf-8")
    (directory / MANIFEST_NAME).write_bytes(manifest_bytes)
    return sum(
        entry["bytes"]
        for entry in (*sections.values(), vocabulary, graph, statistics_counts, *tables)
    ) + len(manifest_bytes)


# ----------------------------------------------------------------------
# reading
# ----------------------------------------------------------------------
def _close_quietly(mapped: mmap.mmap) -> None:
    """Close a map unless numpy views still reference it (GC frees it then)."""
    try:
        mapped.close()
    except BufferError:  # views created before validation failed still exist
        pass


def parse_shard(
    path: Path, mapped: mmap.mmap
) -> tuple[dict, Callable[[str], "np.ndarray | None"]]:
    """Check a mapped shard's magic and version and read its JSON header;
    returns the header and a factory of read-only views of its arrays."""
    if len(mapped) < _SHARD_HEADER.size:
        raise SnapshotError(f"snapshot shard {path!s} is truncated (no header)")
    magic, version, header_length = _SHARD_HEADER.unpack_from(mapped, 0)
    if magic != SHARD_MAGIC:
        raise SnapshotError(f"snapshot shard {path!s} has a bad magic ({magic!r})")
    if version != SHARD_VERSION:
        raise SnapshotError(
            f"snapshot shard {path!s} uses shard version {version}; "
            f"this build supports {SHARD_VERSION}"
        )
    header_end = _SHARD_HEADER.size + header_length
    if len(mapped) < header_end:
        raise SnapshotError(f"snapshot shard {path!s} is truncated (header)")
    try:
        header = json.loads(mapped[_SHARD_HEADER.size : header_end])
    except ValueError as error:
        raise SnapshotError(
            f"snapshot shard {path!s} has an unreadable header: {error}"
        ) from error
    base = _align(header_end)

    def view(name: str) -> "np.ndarray | None":
        spec = header.get("arrays", {}).get(name)
        if spec is None:
            return None
        dtype = spec.get("dtype", _DTYPE)
        start = base + spec["offset"]
        end = start + spec["count"] * _ITEMSIZES.get(dtype, 8)
        if end > len(mapped):
            raise SnapshotError(
                f"snapshot shard {path!s} is truncated: array {name!r} "
                f"ends at byte {end}, file has {len(mapped)}"
            )
        return np.frombuffer(mapped, dtype=dtype, count=spec["count"], offset=start)

    return header, view


class ShardedSnapshotReader:
    """Opens a snapshot directory and hands out sections and shards.

    Construction reads and validates only ``MANIFEST.json``.  Sections,
    table shards, the vocabulary arena, the graph CSR and the statistics
    counts load lazily through :meth:`load_section` /
    :meth:`load_table` / :meth:`load_vocabulary` / :meth:`load_graph` /
    :meth:`load_statistics_counts`; the reader counts what it opened
    (:attr:`tables_opened`, :attr:`opened_labels`,
    :attr:`sections_loaded`) so tests can prove that a warm start
    touched nothing it did not need.
    """

    def __init__(self, directory: str | PathLike) -> None:
        self.directory = Path(directory)
        if self.directory.is_file():
            raise SnapshotError(
                f"{self.directory!s} is a regular file; a snapshot is a "
                "directory — rebuild it with `gqbe build-index`"
            )
        manifest_path = self.directory / MANIFEST_NAME
        try:
            raw = manifest_path.read_bytes()
        except OSError as error:
            raise SnapshotError(
                f"cannot read snapshot manifest {manifest_path!s}: {error}"
            ) from error
        try:
            manifest = json.loads(raw)
        except ValueError as error:
            raise SnapshotError(
                f"snapshot manifest {manifest_path!s} is not valid JSON: {error}"
            ) from error
        if not isinstance(manifest, dict) or manifest.get("magic") != MANIFEST_MAGIC:
            raise SnapshotError(
                f"{manifest_path!s} is not a snapshot manifest (magic "
                f"{manifest.get('magic') if isinstance(manifest, dict) else None!r}, "
                f"expected {MANIFEST_MAGIC!r}) — rebuild it with "
                "`gqbe build-index`"
            )
        version = manifest.get("format_version")
        if version != FORMAT_VERSION:
            raise SnapshotError(
                f"snapshot {self.directory!s} uses format version {version}; "
                f"this build supports version {FORMAT_VERSION} — rebuild it "
                "with `gqbe build-index`"
            )
        for name in ("vocabulary", "graph", "statistics_counts"):
            if not isinstance(manifest.get(name), dict):
                raise SnapshotError(
                    f"snapshot {self.directory!s} has no {name!r} shard in "
                    "its manifest — rebuild it with `gqbe build-index`"
                )
        self._adopt(manifest)

    def _adopt(self, manifest: dict) -> None:
        self.manifest = manifest
        self.format_version: int = FORMAT_VERSION
        self.meta: dict = dict(manifest.get("meta", {}))
        self._tables: dict[str, dict] = {
            entry["label"]: entry for entry in manifest.get("tables", [])
        }
        self.sections_loaded: list[str] = []
        self.opened_labels: list[str] = []
        #: The mmap objects backing opened shards (kept alive here so the
        #: frombuffer views never outlive their buffer).
        self._maps: list[mmap.mmap] = []

    # ------------------------------------------------------------------
    @property
    def tables_opened(self) -> int:
        """How many table shards have been mapped so far."""
        return len(self.opened_labels)

    def label_rows(self) -> dict[str, int]:
        """Per-label row counts straight from the manifest (no shard I/O)."""
        return {label: entry["rows"] for label, entry in self._tables.items()}

    # ------------------------------------------------------------------
    def _verify_file(self, name: str, expected: str) -> Path:
        path = self.directory / name
        try:
            actual = _sha256_file(path)
        except OSError as error:
            raise SnapshotError(
                f"cannot read snapshot shard {path!s}: {error}"
            ) from error
        if actual != expected:
            raise SnapshotError(
                f"snapshot shard {path!s} is corrupt (checksum mismatch)"
            )
        return path

    def load_section(self, name: str) -> bytes:
        """Read and verify one section file; returns its pickle bytes.

        One read: the returned bytes are exactly the bytes that were
        hashed (no verify-then-reread window, and no double I/O on the
        biggest non-shard files).
        """
        sections = self.manifest.get("sections", {})
        entry = sections.get(name)
        if entry is None:
            raise SnapshotError(
                f"snapshot {self.directory!s} has no {name!r} section in its manifest"
            )
        path = self.directory / entry["file"]
        try:
            data = path.read_bytes()
        except OSError as error:
            raise SnapshotError(
                f"cannot read snapshot shard {path!s}: {error}"
            ) from error
        if hashlib.sha256(data).hexdigest() != entry["sha256"]:
            raise SnapshotError(
                f"snapshot shard {path!s} is corrupt (checksum mismatch)"
            )
        self.sections_loaded.append(name)
        return data

    # ------------------------------------------------------------------
    def _load_shard(self, entry: dict, build: Callable):
        """Verify, map and parse one binary shard; returns
        ``build(path, header, view)``, whose views keep the map alive.

        On any :class:`SnapshotError` the map is closed again.
        """
        path = self._verify_file(entry["file"], entry["sha256"])
        try:
            with open(path, "rb") as handle:
                mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError) as error:
            raise SnapshotError(
                f"cannot map snapshot shard {path!s}: {error}"
            ) from error
        try:
            # Read-ahead hint: the kernel starts faulting the shard in
            # while the engine is still planning (no-op where absent).
            mapped.madvise(mmap.MADV_WILLNEED)
        # gqbe: ignore[EXC002] -- madvise is a purely advisory
        # read-ahead hint; its failure changes timing, not
        # correctness, so it must never surface as SnapshotError.
        except (AttributeError, ValueError, OSError):  # pragma: no cover
            pass
        try:
            result = build(path, *parse_shard(path, mapped))
        except SnapshotError:
            _close_quietly(mapped)
            raise
        self._maps.append(mapped)
        return result

    # ------------------------------------------------------------------
    def load_table(self, label: str) -> ColumnarEdgeTable:
        """Map one label's shard as a read-only :class:`ColumnarEdgeTable`."""
        entry = self._tables.get(label)
        if entry is None:
            raise SnapshotError(
                f"snapshot {self.directory!s} has no shard for label {label!r}"
            )
        table = self._load_shard(
            entry,
            lambda path, header, view: self._table_from_header(
                path, header, view, label, entry["rows"]
            ),
        )
        self.opened_labels.append(label)
        return table

    def _table_from_header(
        self, path: Path, header: dict, view, label: str, rows: int
    ) -> ColumnarEdgeTable:
        if header.get("label") != label or header.get("rows") != rows:
            raise SnapshotError(
                f"snapshot shard {path!s} does not match its manifest entry "
                f"(label {header.get('label')!r} rows {header.get('rows')!r}, "
                f"expected {label!r}/{rows})"
            )
        subjects = view("subjects")
        objects = view("objects")
        if subjects is None or objects is None or len(subjects) != rows:
            raise SnapshotError(
                f"snapshot shard {path!s} is missing its id columns"
            )
        subject_index = object_index = None
        order = view("subject_order")
        if order is not None:
            subject_index = _SortedGroupIndex.from_arrays(
                view("subject_keys"), view("subject_bounds"), order
            )
            object_index = _SortedGroupIndex.from_arrays(
                view("object_keys"), view("object_bounds"), view("object_order")
            )
        return ColumnarEdgeTable.from_mapped(
            label,
            subjects,
            objects,
            subject_index=subject_index,
            object_index=object_index,
            pair_keys=view("pair_keys"),
            pair_stride=int(header.get("pair_stride", 0)),
        )

    # ------------------------------------------------------------------
    def load_vocabulary(self) -> MappedVocabulary:
        """Map the vocabulary arena as a :class:`MappedVocabulary`."""
        vocabulary = self._load_shard(
            self.manifest["vocabulary"], self._vocabulary_from_header
        )
        self.sections_loaded.append("vocabulary")
        return vocabulary

    def _vocabulary_from_header(self, path: Path, header: dict, view) -> MappedVocabulary:
        if header.get("kind") != "vocabulary":
            raise SnapshotError(
                f"snapshot shard {path!s} is not a vocabulary arena "
                f"(kind {header.get('kind')!r})"
            )
        terms = header.get("terms")
        offsets = view("offsets")
        sorted_ids = view("sorted_ids")
        blob = view("blob")
        if (
            not isinstance(terms, int)
            or offsets is None
            or sorted_ids is None
            or blob is None
            or len(offsets) != terms + 1
            or len(sorted_ids) != terms
        ):
            raise SnapshotError(
                f"snapshot shard {path!s} is missing vocabulary arena arrays"
            )
        if int(offsets[0]) != 0 or (terms and bool((np.diff(offsets) < 0).any())):
            raise SnapshotError(
                f"snapshot shard {path!s} has a corrupt vocabulary arena: "
                "offsets are not monotonically non-decreasing"
            )
        if int(offsets[-1]) != len(blob):
            raise SnapshotError(
                f"snapshot shard {path!s} has a corrupt vocabulary arena: "
                f"offsets address byte {int(offsets[-1])} of a "
                f"{len(blob)}-byte blob (offsets out of range)"
            )
        if terms and (
            int(sorted_ids.min()) < 0 or int(sorted_ids.max()) >= terms
        ):
            raise SnapshotError(
                f"snapshot shard {path!s} has a corrupt vocabulary arena: "
                "sort permutation references ids outside the term range"
            )
        # The permutation must actually sort the terms by UTF-8 bytes —
        # id_of binary-searches it, and a scrambled permutation would
        # silently turn present terms into UnknownEntityError instead of
        # corruption.  Full string comparison per adjacent pair would be
        # an O(n) Python sweep per worker open (against this format's
        # whole point), so the check is the vectorized first-byte
        # projection: gross scrambles fail here, and the per-file
        # SHA-256 already caught random corruption before this point.
        if terms > 1 and len(blob):
            starts = offsets[:-1][sorted_ids]
            lengths = (offsets[1:] - offsets[:-1])[sorted_ids]
            # Signed: np.diff on the raw uint8 gather would wrap mod 256
            # and hide every descent.
            first_bytes = np.where(
                lengths > 0,
                blob[np.minimum(starts, len(blob) - 1)].astype(np.int64),
                -1,  # the empty term sorts before every byte
            )
            if bool((np.diff(first_bytes) < 0).any()):
                raise SnapshotError(
                    f"snapshot shard {path!s} has a corrupt vocabulary "
                    "arena: the sort permutation is not in term byte order"
                )
        return MappedVocabulary(offsets, sorted_ids, blob)

    # ------------------------------------------------------------------
    def load_statistics_counts(self) -> tuple[list[str], tuple]:
        """Map the statistics counts shard; returns ``(labels, columns)``.

        ``columns`` is ``(out_keys, out_counts, in_keys, in_counts)`` —
        zero-copy int64 views ready for
        :class:`~repro.graph.statistics.GraphStatistics`.
        """
        result = self._load_shard(
            self.manifest["statistics_counts"], self._statistics_from_header
        )
        self.sections_loaded.append("statistics_counts")
        return result

    def _statistics_from_header(self, path: Path, header: dict, view):
        if header.get("kind") != "statistics":
            raise SnapshotError(
                f"snapshot shard {path!s} is not a statistics counts shard "
                f"(kind {header.get('kind')!r})"
            )
        labels = header.get("labels")
        if not isinstance(labels, list):
            raise SnapshotError(
                f"snapshot shard {path!s} has a malformed statistics header"
            )
        columns = []
        for side in ("out", "in"):
            keys = view(f"{side}_keys")
            counts = view(f"{side}_counts")
            if keys is None or counts is None or len(keys) != len(counts):
                raise SnapshotError(
                    f"snapshot shard {path!s} is missing its {side} "
                    "participation columns"
                )
            if len(keys) and (
                bool((np.diff(keys) <= 0).any()) or int(counts.min()) < 1
            ):
                raise SnapshotError(
                    f"snapshot shard {path!s} has corrupt statistics "
                    f"columns: {side} keys must be strictly increasing "
                    "and counts positive"
                )
            columns.extend((keys, counts))
        return labels, tuple(columns)

    # ------------------------------------------------------------------
    def load_graph(self, vocabulary: MappedVocabulary) -> MappedKnowledgeGraph:
        """Map the graph CSR shard as a :class:`MappedKnowledgeGraph`."""
        graph = self._load_shard(
            self.manifest["graph"],
            lambda path, header, view: self._graph_from_header(
                path, header, view, vocabulary
            ),
        )
        self.sections_loaded.append("graph")
        return graph

    def _graph_from_header(
        self, path: Path, header: dict, view, vocabulary: MappedVocabulary
    ) -> MappedKnowledgeGraph:
        if header.get("kind") != "graph":
            raise SnapshotError(
                f"snapshot shard {path!s} is not a graph CSR shard "
                f"(kind {header.get('kind')!r})"
            )
        nodes = header.get("nodes")
        edges = header.get("edges")
        labels = header.get("labels")
        if not isinstance(nodes, int) or not isinstance(edges, int) or not isinstance(labels, list):
            raise SnapshotError(
                f"snapshot shard {path!s} has a malformed graph CSR header"
            )
        arrays = {}
        for name in (
            "out_indptr",
            "out_objects",
            "out_labels",
            "in_indptr",
            "in_subjects",
            "in_labels",
        ):
            array = view(name)
            if array is None:
                raise SnapshotError(
                    f"snapshot shard {path!s} is missing CSR array {name!r}"
                )
            arrays[name] = array
        for name in ("out_indptr", "in_indptr"):
            indptr = arrays[name]
            if len(indptr) != nodes + 1:
                raise SnapshotError(
                    f"snapshot shard {path!s} has a corrupt graph CSR: "
                    f"{name} has {len(indptr)} entries for {nodes} nodes"
                )
            if len(indptr) and (
                int(indptr[0]) != 0
                or int(indptr[-1]) != edges
                or bool((np.diff(indptr) < 0).any())
            ):
                raise SnapshotError(
                    f"snapshot shard {path!s} has a corrupt graph CSR: "
                    f"{name} is non-monotonic or does not span the "
                    f"{edges} edges"
                )
        for name, bound in (
            ("out_objects", nodes),
            ("out_labels", len(labels)),
            ("in_subjects", nodes),
            ("in_labels", len(labels)),
        ):
            column = arrays[name]
            if len(column) != edges:
                raise SnapshotError(
                    f"snapshot shard {path!s} has a corrupt graph CSR: "
                    f"{name} has {len(column)} entries for {edges} edges"
                )
            if edges and (
                int(column.min()) < 0 or int(column.max()) >= bound
            ):
                raise SnapshotError(
                    f"snapshot shard {path!s} has a corrupt graph CSR: "
                    f"{name} references ids outside [0, {bound})"
                )
        return MappedKnowledgeGraph(
            vocabulary,
            labels,
            arrays["out_indptr"],
            arrays["out_objects"],
            arrays["out_labels"],
            arrays["in_indptr"],
            arrays["in_subjects"],
            arrays["in_labels"],
        )


class BuiltSnapshot(ShardedSnapshotReader):
    """The shards of a graph built in memory (:func:`graph_shards`), handed
    out like a snapshot directory's: the same header checks, the same
    classes wrapped around the arrays, nothing on disk."""

    def __init__(
        self,
        manifest: dict,
        files: dict[str, tuple[dict, dict[str, "np.ndarray"]]],
        sections: dict[str, bytes],
    ) -> None:
        self.directory = None
        self._files = files
        self._sections = sections
        self._adopt(manifest)

    def load_section(self, name: str) -> bytes:
        self.sections_loaded.append(name)
        return self._sections[name]

    def _load_shard(self, entry: dict, build: Callable):
        header, arrays = self._files[entry["file"]]
        return build(Path(entry["file"]), header, arrays.get)
