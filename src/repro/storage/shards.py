"""The snapshot layout: a directory of memory-mappable shards.

A snapshot splits the offline state into a *directory* of independently
verifiable files:

``MANIFEST.json``
    The envelope: magic, format version, the snapshot ``meta`` mapping,
    and a catalog of every other file with its path, SHA-256 digest, byte
    size and (for table shards) label and row count.  The row counts are
    also the statistics' per-label edge counts, and |E| is their sum.
    Reading and checking the manifest is the whole cost of opening a
    snapshot.  It is written last, so a directory without a valid one is
    a build that never finished.
``tables/NNNNN.shard``
    One binary shard per label's
    :class:`~repro.storage.table.ColumnarEdgeTable`: the two int32 id
    columns, sorted by (subject, object), plus ``object_order``, the
    stable permutation that sorts the objects, written as raw
    little-endian arrays at 64-byte-aligned offsets.  Each side's probe
    index is rebuilt from its sorted keys on the side's first probe.
    A shard is opened with one ``mmap`` and the arrays become zero-copy
    read-only ``np.frombuffer`` views — no deserialization, no sorting,
    no copy — so N worker processes mapping the same snapshot share one
    set of physical pages, and a label table that no query probes is
    never faulted in at all.  The table is also the statistics' participation
    counts of Eq. 4: a subject probe and an object probe of a label's
    table count the edges that leave a subject and enter an object.
``vocabulary.arena``
    The entity vocabulary as a string arena: every term's UTF-8 bytes
    concatenated in id order (``blob``), an offset column (``offsets``,
    ``n + 1`` entries) and a byte-order sort permutation of the ids
    (``sorted_ids``).  Reopens as a zero-copy
    :class:`~repro.storage.vocabulary.MappedVocabulary`: ``term_of`` is
    an offset slice, ``id_of`` a binary search — no dict rebuild.
``graph.csr``
    The data graph as CSR adjacency over the interned ids: ``out_indptr``
    / ``out_objects`` / ``out_labels`` and ``in_indptr`` / ``in_subjects``
    / ``in_labels`` (label ids index the label list carried in the shard
    header).  Each node's slices are sorted by (label, other); no answer
    depends on that order, it only makes the bytes a function of the
    edge set.  Reopens as a :class:`~repro.graph.mapped.MappedKnowledgeGraph`.

So the only per-worker private memory is the parsed manifest plus
interpreter state, and loading unpickles nothing.  The manifest's
``format_version`` is :data:`FORMAT_VERSION`; a directory that says
anything else, or whose ``vocabulary``, ``graph`` or table entries do
not each name a file inside the directory with a SHA-256 digest and
integer sizes, is refused at open — a snapshot is a cache of the
offline build, and the fix is to rebuild it.

Shard binary layout (little-endian)::

    offset  size  field
    0       8     magic ``b"GQBESHRD"``
    8       4     shard format version (uint32, currently 1)
    12      4     header JSON length H (uint32)
    16      H     header JSON (kind-specific fields + array catalog)
    ...           arrays, each starting at a 64-byte-aligned offset

The header's ``arrays`` mapping gives each array's item count, byte
offset *relative to the data base* — the first 64-byte boundary after
the header — and dtype, so header length and array layout never depend
on each other.  A dtype is ``"<i4"`` int32, ``"<i8"`` int64 (the
default when none is named) or ``"u1"`` raw bytes (the vocabulary blob);
a catalog naming any other is refused.  Every integer array is int32
when a bound its writer knows before writing it fits int32, else int64
(:func:`int_dtype`): ids are at most
:data:`~repro.storage.vocabulary.MAX_ENTITY_ID`, so id columns are
always int32; positions (CSR index pointers, arena offsets, the object
order) are bounded by the array's row, edge or byte count.
Readers take each array at the dtype its catalog names, so a snapshot
written all-int64 opens and answers the same.

Integrity: every file's SHA-256 is recorded in the manifest.  A shard
is verified the first time it is opened (one streamed read that also
warms the page cache), then structurally validated (offset bounds, CSR
monotonicity) before any view is handed out, so corruption is still
caught per shard without forcing an eager read of shards the workload
never touches.

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
import struct
from collections.abc import Callable, Sequence
from os import PathLike
from pathlib import Path

import numpy as np

from repro.exceptions import GraphError, SnapshotError
from repro.graph.knowledge_graph import KnowledgeGraph
from repro.graph.mapped import MappedKnowledgeGraph
from repro.storage.table import ColumnarEdgeTable
from repro.storage.vocabulary import MAX_ENTITY_ID, MappedVocabulary, arena_arrays

SHARD_MAGIC = b"GQBESHRD"
SHARD_VERSION = 1
MANIFEST_NAME = "MANIFEST.json"
MANIFEST_MAGIC = "GQBESNAP2"
#: The manifest ``format_version`` this build writes and reads.  Version
#: 3 tables may be unsorted, which a sorted-column search answers wrongly;
#: version 4 directories carry pickled sections, which this build never
#: unpickles; version 5 directories carry a participation-counts shard
#: that this build neither writes nor reads; version 6 table shards carry
#: object keys and bounds, which this build derives from the columns.
FORMAT_VERSION = 7
_ALIGNMENT = 64
_SHARD_HEADER = struct.Struct("<8sII")

#: int64, little-endian — the dtype of an array whose catalog names none.
_DTYPE = "<i8"
#: int32, little-endian — what an integer array is stored as when it fits.
_NARROW_DTYPE = "<i4"
#: Raw bytes — the vocabulary blob's dtype.
_BYTE_DTYPE = "u1"
#: Every dtype a shard array may have; a catalog naming another is corrupt.
_ITEMSIZES = {_DTYPE: 8, _NARROW_DTYPE: 4, _BYTE_DTYPE: 1}


def int_dtype(bound: int) -> str:
    """The shard dtype of an integer array whose values lie in ``[0,
    bound]``: ``"<i4"`` when ``bound`` fits int32, ``"<i8"`` otherwise.

    Every integer array of a snapshot is written at the width this gives
    for a bound its writer knows before the first value: ids are capped
    at :data:`~repro.storage.vocabulary.MAX_ENTITY_ID`, positions at the
    array's row, edge or byte count.
    """
    return _NARROW_DTYPE if bound <= np.iinfo(np.int32).max else _DTYPE


#: The dtype of an entity id array: every id is at most MAX_ENTITY_ID.
ID_DTYPE = int_dtype(MAX_ENTITY_ID)


def arena_dtypes(blob_bytes: int) -> dict[str, str]:
    """The dtypes of a vocabulary arena's arrays over a ``blob_bytes`` blob."""
    return {"offsets": int_dtype(blob_bytes), "sorted_ids": ID_DTYPE, "blob": _BYTE_DTYPE}


def graph_dtypes(edges: int, labels: int) -> dict[str, str]:
    """The dtypes of a graph CSR shard's arrays."""
    positions, label_ids = int_dtype(edges), int_dtype(labels)
    return {
        "out_indptr": positions,
        "out_objects": ID_DTYPE,
        "out_labels": label_ids,
        "in_indptr": positions,
        "in_subjects": ID_DTYPE,
        "in_labels": label_ids,
    }


def _as_dtype(name: str, data, dtype: str) -> "np.ndarray":
    """``data`` as a contiguous array of ``dtype``; refuses a value the
    dtype cannot hold rather than let a cast wrap it."""
    array = np.asarray(data)
    target = np.dtype(dtype)
    if array.dtype != target and (
        array.dtype.kind not in "iu"
        or len(array)
        and not (np.iinfo(target).min <= array.min() and array.max() <= np.iinfo(target).max)
    ):
        raise SnapshotError(
            f"shard array {name!r} holds a value outside its declared dtype {dtype!r}"
        )
    return np.ascontiguousarray(array, dtype=target)


def _narrowed(arrays: dict[str, "np.ndarray"], dtypes: dict[str, str]) -> dict[str, "np.ndarray"]:
    """``arrays``, each cast to its dtype in ``dtypes``: the in-memory
    build holds the widths a written shard has."""
    return {name: _as_dtype(name, array, dtypes[name]) for name, array in arrays.items()}


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
        # A new file, not the old one truncated: a process still mapping a
        # shard written here before keeps its pages.
        path.unlink(missing_ok=True)
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
        chunk = _as_dtype(name, data, entry["dtype"])
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

    ``arrays`` may mix int32, int64 and uint8 (byte-blob) arrays; each
    lands at a 64-byte-aligned offset and is cataloged in the header JSON
    with its own dtype, so readers never guess a layout.
    """
    specs = [
        (name, len(data), _BYTE_DTYPE if data.dtype.itemsize == 1 else data.dtype.str)
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
    """The header and arrays a shard persists for ``table``: its sorted
    columns and the permutation sorting its objects."""
    arrays: dict[str, np.ndarray] = {
        "subjects": table.subject_ids(),
        "objects": table.object_ids(),
    }
    dtypes = {"subjects": ID_DTYPE, "objects": ID_DTYPE}
    if len(table):
        arrays["object_order"] = table.object_order()
        dtypes["object_order"] = int_dtype(len(table))
    header = {"label": table.label, "rows": len(table)}
    return header, _narrowed(arrays, dtypes)


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
        path, {"kind": "vocabulary", "terms": len(terms)}, _arena(terms)
    )
    return {"terms": len(terms), **entry}


def _arena(terms: list[str]) -> dict[str, "np.ndarray"]:
    arrays = arena_arrays(terms)
    return _narrowed(arrays, arena_dtypes(len(arrays["blob"])))


_CSR_NAMES = ("out_indptr", "out_objects", "out_labels", "in_indptr", "in_subjects", "in_labels")


def graph_shards(graph: KnowledgeGraph) -> "BuiltSnapshot":
    """The offline phase for ``graph``, in memory: every array a snapshot
    of it holds, served by a :class:`BuiltSnapshot`.

    Node ids follow ``graph.nodes`` (insertion order) and label ids
    ``graph.labels`` (first-seen order).  Rows are sorted as the build's
    finalize sorts them — each label table by (subject, object), each
    node's CSR slices by (label, other) — so these are the shards
    :func:`~repro.storage.build.build_streaming_snapshot` writes for the
    graph's edge stream, byte for byte, whatever order the edges came in.
    """
    if graph.num_edges == 0:
        raise GraphError("cannot compute statistics of an empty graph")
    terms = list(graph.nodes)
    ids = {term: index for index, term in enumerate(terms)}
    labels = list(graph.labels)
    label_ids = {label: index for index, label in enumerate(labels)}
    edges = list(graph.edges)
    subjects = np.array([ids[edge.subject] for edge in edges], dtype=np.int64)
    objects = np.array([ids[edge.object] for edge in edges], dtype=np.int64)
    edge_labels = np.array([label_ids[edge.label] for edge in edges], dtype=np.int64)

    csr = []
    for nodes, others in ((subjects, objects), (objects, subjects)):
        order = np.lexsort((others, edge_labels, nodes))
        indptr = np.zeros(len(terms) + 1, dtype=np.int64)
        np.cumsum(np.bincount(nodes, minlength=len(terms)), out=indptr[1:])
        csr += [indptr, others[order], edge_labels[order]]
    files = {
        "vocabulary.arena": ({"kind": "vocabulary", "terms": len(terms)}, _arena(terms)),
        "graph.csr": (
            {"kind": "graph", "nodes": len(terms), "edges": len(edges), "labels": labels},
            _narrowed(dict(zip(_CSR_NAMES, csr)), graph_dtypes(len(edges), len(labels))),
        ),
    }

    # The label tables: rows grouped by label, each sorted by (subject, object).
    by_label = np.lexsort((objects, subjects, edge_labels))
    bounds = np.searchsorted(edge_labels[by_label], np.arange(len(labels) + 1))
    tables = []
    for label_id, label in enumerate(labels):
        rows = by_label[bounds[label_id] : bounds[label_id + 1]]
        name = f"tables/{label_id:05d}.shard"
        table = ColumnarEdgeTable.from_mapped(label, subjects[rows], objects[rows])
        files[name] = _table_shard(table)
        tables.append({"label": label, "rows": len(rows), "file": name})

    manifest = {
        "meta": {"num_nodes": len(terms), "num_edges": len(edges), "num_labels": len(labels)},
        "vocabulary": {"terms": len(terms), "file": "vocabulary.arena"},
        "graph": {"nodes": len(terms), "edges": len(edges), "file": "graph.csr"},
        "tables": tables,
    }
    return BuiltSnapshot(manifest, files)


def write_manifest(
    directory: Path,
    *,
    meta: dict,
    vocabulary: dict,
    graph: dict,
    tables: list[dict],
) -> int:
    """Finish a snapshot whose shards are on disk; returns its total bytes.

    Writes ``MANIFEST.json``, which catalogs the shard entries passed in
    (each carrying its ``file``).  The manifest is the commit point: until
    it lands, ``directory`` is an unreadable work area, never a torn
    snapshot.  The build's finalize, which both ``GraphStore.save`` and
    ``gqbe build-index`` run, finishes here.
    """
    manifest = {
        "magic": MANIFEST_MAGIC,
        "format_version": FORMAT_VERSION,
        "meta": meta,
        "vocabulary": vocabulary,
        "graph": graph,
        "tables": tables,
    }
    manifest_bytes = json.dumps(manifest, indent=1, sort_keys=True).encode("utf-8")
    (directory / MANIFEST_NAME).write_bytes(manifest_bytes)
    return sum(
        entry["bytes"]
        for entry in (vocabulary, graph, *tables)
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
        if dtype not in _ITEMSIZES:
            raise SnapshotError(
                f"snapshot shard {path!s} catalogs array {name!r} with "
                f"dtype {dtype!r}; a shard array is one of {sorted(_ITEMSIZES)}"
            )
        start = base + spec["offset"]
        end = start + spec["count"] * _ITEMSIZES[dtype]
        if end > len(mapped):
            raise SnapshotError(
                f"snapshot shard {path!s} is truncated: array {name!r} "
                f"ends at byte {end}, file has {len(mapped)}"
            )
        return np.frombuffer(mapped, dtype=dtype, count=spec["count"], offset=start)

    return header, view


def _catalog_fault(entries: list, counts: tuple[str, ...] = ()) -> str | None:
    """What is wrong with some manifest shard entries, or ``None``.

    Each must be a mapping whose ``file`` is a relative path that stays
    inside the snapshot directory, whose ``sha256`` is 64 lowercase hex
    digits, and whose ``bytes`` and each of ``counts`` are non-negative
    ints.  A manifest has an entry per label, so each check is one pass
    over all of them in C-level builtins: opening a snapshot stays well
    under a millisecond.
    """
    if set(map(type, entries)) - {dict}:
        return "an entry is not a mapping"
    files = [entry.get("file") for entry in entries]
    # Joined by "/", the files' path parts are exactly the parts of each.
    if (
        set(map(type, files)) - {str}
        or not all(files)
        or "/" in {file[0] for file in files}
        or ".." in "/".join(files).split("/")
    ):
        return "a file is not a relative path inside the snapshot"
    digests = [entry.get("sha256") for entry in entries]
    if entries and (
        set(map(type, digests)) != {str}
        or set(map(len, digests)) != {64}
        # Left with nothing once the hex digits are deleted.
        or "".join(digests).encode().translate(None, b"0123456789abcdef")
    ):
        return "a sha256 is not 64 hex digits"
    for key in ("bytes", *counts):
        values = [entry.get(key) for entry in entries]
        if set(map(type, values)) - {int} or (values and min(values) < 0):
            return f"a {key} is not a non-negative int"
    return None


class ShardedSnapshotReader:
    """Opens a snapshot directory and hands out its shards.

    Construction reads and validates only ``MANIFEST.json``: every shard
    entry it will ever open is checked there (:func:`_catalog_fault`),
    so a malformed catalog fails at open, not at the first query that
    reaches it.  Table shards, the vocabulary arena and the graph CSR
    load lazily through :meth:`load_table` / :meth:`load_vocabulary` /
    :meth:`load_graph`; the reader counts what it opened
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
        for name in ("vocabulary", "graph"):
            fault = _catalog_fault([manifest.get(name)])
            if fault:
                raise SnapshotError(
                    f"snapshot {self.directory!s} has a malformed {name!r} "
                    f"shard entry in its manifest ({fault}) — rebuild it with "
                    "`gqbe build-index`"
                )
        # The row counts are also the statistics' label counts and |E|.
        tables = manifest.get("tables")
        if not isinstance(tables, list):
            fault = "the catalog is not a list"
        else:
            fault = _catalog_fault(tables, ("rows",))
            if fault is None and {type(entry.get("label")) for entry in tables} - {str}:
                fault = "a table has no string label"
        if fault:
            raise SnapshotError(
                f"snapshot {self.directory!s} has a malformed table catalog in "
                f"its manifest ({fault}) — rebuild it with `gqbe build-index`"
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
        order = view("object_order")
        if (
            subjects is None
            or objects is None
            or not len(subjects) == len(objects) == rows
            or (order is not None and len(order) != rows)
        ):
            raise SnapshotError(
                f"snapshot shard {path!s} is missing its id columns"
            )
        return ColumnarEdgeTable.from_mapped(label, subjects, objects, order)

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
        for name in _CSR_NAMES:
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
        return MappedKnowledgeGraph(vocabulary, labels, *(arrays[name] for name in _CSR_NAMES))


class BuiltSnapshot(ShardedSnapshotReader):
    """The shards of a graph built in memory (:func:`graph_shards`), handed
    out like a snapshot directory's: the same header checks, the same
    classes wrapped around the arrays, nothing on disk."""

    def __init__(
        self, manifest: dict, files: dict[str, tuple[dict, dict[str, "np.ndarray"]]]
    ) -> None:
        self.directory = None
        self._files = files
        self._adopt(manifest)

    def _load_shard(self, entry: dict, build: Callable):
        header, arrays = self._files[entry["file"]]
        return build(Path(entry["file"]), header, arrays.get)
