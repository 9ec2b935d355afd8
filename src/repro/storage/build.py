"""Out-of-core streaming build: triple dump → snapshot in bounded memory.

``GraphStore.build`` materializes the whole :class:`KnowledgeGraph` in
Python objects before saving, which caps the offline phase (paper Sec. V-A)
at graphs that fit in one box's RAM.  :func:`build_streaming_snapshot`
produces the *byte-identical* snapshot directory from a triple file
without ever holding the graph, the vocabulary dict, or more than one
label's columns at a time:

Pass 1 — vocabulary (external merge sort)
    Stream the dump in bounded chunks (:func:`iter_triples_chunked`) and
    record each term's first global occurrence index.  Term buffers spill
    to byte-sorted runs on disk; a k-way merge dedups them (keeping the
    minimum occurrence), a second external sort re-orders the merged terms
    by first occurrence — which *is* the dense-id order the in-memory
    build assigns (``VerticalPartitionStore`` interns nodes in graph
    insertion order: subject before object, duplicates skipped) — and the
    ordered stream is written straight into the vocabulary arena shard
    through :class:`~repro.storage.shards.ShardStreamWriter`.

Pass 2 — tables (spill runs → per-label shards)
    Re-read the dump, map terms to dense ids through the *mapped* arena
    (binary search plus a bounded cache; per-chunk unique-term batching
    keeps lookups off the hot path), and route ``(subject, object, seq)``
    rows to per-label spill runs, each run sorted and locally deduped with
    numpy before it hits disk.

Finalize — per-label k-way merges (parallelizable)
    Each label's runs merge into globally ``(subject, object, seq)``-sorted
    rows; duplicates collapse to their first occurrence, a stable re-sort
    by ``seq`` restores stream order, and the label's table shard is
    written through the same ``write_table_shard`` as the in-memory path —
    so the shard bytes cannot differ.  Workers own disjoint labels
    (``workers > 1`` fans the per-label work out over processes); each
    label also contributes sorted statistics columns and ``(node, seq)``-
    sorted CSR runs, which a final merge streams into the statistics and
    graph shards.  ``MANIFEST.json`` is written last, so a crash at any
    point leaves no torn snapshot — just an unreadable directory.

Memory-budget semantics: ``memory_budget_mb`` bounds the *streaming state*
— read chunks, spill buffers, and the id-lookup cache are all sized from
it.  Three footprints scale with the data instead and are the documented
floor: the O(nodes) int64 arrays behind the arena permutation and CSR
index pointers, the columns of the single largest label while its shard is
written (the same transient the in-memory writer has per label), and the
interpreter + numpy baseline.
"""

from __future__ import annotations

import heapq
import itertools
import json
import mmap
import shutil
import struct
import tempfile
import time
from array import array
from pathlib import Path

import numpy as np

from repro.exceptions import GraphError, SnapshotError
from repro.graph.triples import iter_triples_chunked
from repro.storage.shards import (
    SHARD_MAGIC,
    SHARD_VERSION,
    ShardStreamWriter,
    _SHARD_HEADER,
    _align,
    write_manifest,
    write_table_shard,
)
from repro.storage.table import ColumnarEdgeTable
from repro.storage.vocabulary import MappedVocabulary, check_entity_id

#: Disk record layouts for the spill files (all little-endian).
_TERM_RECORD = struct.Struct("<IQ")  # term length, occurrence — then term bytes
_OCC_RECORD = struct.Struct("<QQI")  # occurrence, byte rank, term length — then term
_ORDERED_RECORD = struct.Struct("<QI")  # byte rank, term length — then term bytes
_ROW_WIDTH = 3  # (subject_id, object_id, seq) int64 row-run records
_CSR_WIDTH = 4  # (node_id, seq, label_id, other_id) int64 CSR-run records

_DTYPE = "<i8"
_BYTE_DTYPE = "u1"


class BuildPlan:
    """Buffer sizes derived from ``memory_budget_mb``.

    The budget is split across the structures that are live at the same
    time; every figure is clamped to a floor that keeps tiny budgets
    functional (they just spill more).
    """

    def __init__(self, memory_budget_mb: int) -> None:
        if memory_budget_mb <= 0:
            raise SnapshotError(
                f"memory budget must be positive, got {memory_budget_mb} MB"
            )
        budget = memory_budget_mb * 1_000_000
        #: Parsed triples resident per read chunk (~300 B per Triple of
        #: three short strings).
        self.chunk_triples = max(1024, min(budget // 6 // 300, 1_000_000))
        #: Pass-1 term-buffer entries before a spill (~150 B per dict slot
        #: + short string + int).
        self.term_buffer = max(1024, budget // 3 // 150)
        #: Pass-2 buffered rows across all labels before a spill (24 B of
        #: payload per row; array('q') storage, so no per-row objects).
        self.row_buffer = max(1024, budget // 3 // 48)
        #: Bounded term → id cache entries for pass-2 lookups (~120 B per
        #: entry; cleared, not evicted, at the cap).
        self.lookup_cache = max(1024, budget // 6 // 120)
        #: int64 elements per I/O chunk when scanning runs and writing
        #: shard arrays.
        self.io_elements = max(8192, min(budget // 6 // 8, 4_000_000))


# ----------------------------------------------------------------------
# spill-run I/O helpers
# ----------------------------------------------------------------------
def _iter_term_run(path: Path):
    """Yield ``(term_bytes, occurrence)`` records from a byte-sorted run."""
    with open(path, "rb", buffering=1 << 20) as handle:
        while True:
            head = handle.read(_TERM_RECORD.size)
            if not head:
                return
            length, occurrence = _TERM_RECORD.unpack(head)
            yield handle.read(length), occurrence


def _iter_occ_run(path: Path):
    """Yield ``(occurrence, byte_rank, term_bytes)`` from an occ-sorted run."""
    with open(path, "rb", buffering=1 << 20) as handle:
        while True:
            head = handle.read(_OCC_RECORD.size)
            if not head:
                return
            occurrence, rank, length = _OCC_RECORD.unpack(head)
            yield occurrence, rank, handle.read(length)


def _iter_row_segments(path: Path, segments: list[int], io_elements: int):
    """Yield each sorted segment of a label run file as row-tuple iterators."""
    offset = 0
    for rows in segments:
        yield _iter_rows(path, offset, rows, io_elements)
        offset += rows * _ROW_WIDTH * 8


def _iter_rows(path: Path, offset: int, rows: int, io_elements: int):
    """Yield ``(subject, object, seq)`` tuples from one sorted segment."""
    per_read = max(1, io_elements // _ROW_WIDTH)
    with open(path, "rb", buffering=1 << 20) as handle:
        handle.seek(offset)
        remaining = rows
        while remaining:
            take = min(per_read, remaining)
            block = handle.read(take * _ROW_WIDTH * 8)
            chunk = np.frombuffer(block, dtype=np.int64).reshape(-1, _ROW_WIDTH)
            if not len(chunk):
                raise SnapshotError(
                    f"row run {path!s} is shorter than its recorded segments"
                )
            remaining -= len(chunk)
            for row in chunk:
                yield (int(row[0]), int(row[1]), int(row[2]))


def _iter_csr_run(path: Path, io_elements: int):
    """Yield ``(node, seq, label, other)`` tuples from one sorted CSR run."""
    per_read = max(1, io_elements // _CSR_WIDTH)
    with open(path, "rb", buffering=1 << 20) as handle:
        while True:
            block = handle.read(per_read * _CSR_WIDTH * 8)
            if not block:
                return
            chunk = np.frombuffer(block, dtype=np.int64).reshape(-1, _CSR_WIDTH)
            for row in chunk:
                yield (int(row[0]), int(row[1]), int(row[2]), int(row[3]))


# ----------------------------------------------------------------------
# pass 1: external-sort the vocabulary
# ----------------------------------------------------------------------
def _spill_term_run(buffer: dict[str, int], scratch: Path, index: int) -> Path:
    """Write one byte-sorted ``(term, first occurrence)`` run to disk."""
    path = scratch / f"terms.{index:05d}.run"
    items = sorted(
        (term.encode("utf-8"), occurrence) for term, occurrence in buffer.items()
    )
    with open(path, "wb", buffering=1 << 20) as handle:
        for encoded, occurrence in items:
            handle.write(_TERM_RECORD.pack(len(encoded), occurrence))
            handle.write(encoded)
    return path


def _build_vocabulary_arena(
    source: Path,
    fmt: str,
    arena_path: Path,
    scratch: Path,
    plan: BuildPlan,
) -> tuple[dict, int, int]:
    """Pass 1: stream the dump into the vocabulary arena shard.

    Returns ``(manifest entry, term count, raw triple count)``.  Peak
    memory is one term buffer + one occurrence buffer; the only O(nodes)
    structure is the int64 sort permutation the arena itself stores.
    """
    buffer: dict[str, int] = {}
    runs: list[Path] = []
    occurrence = 0
    triples = 0
    for chunk in iter_triples_chunked(source, fmt=fmt, chunk_size=plan.chunk_triples):
        for subject, _, obj in chunk:
            if subject not in buffer:
                buffer[subject] = occurrence
            occurrence += 1
            if obj not in buffer:
                buffer[obj] = occurrence
            occurrence += 1
        triples += len(chunk)
        if len(buffer) >= plan.term_buffer:
            runs.append(_spill_term_run(buffer, scratch, len(runs)))
            buffer = {}
    if buffer:
        runs.append(_spill_term_run(buffer, scratch, len(runs)))
        buffer = {}
    if triples == 0:
        # Match the in-memory path: GraphStatistics refuses empty graphs.
        raise GraphError("cannot compute statistics of an empty graph")

    # Merge the byte-sorted runs: assign each distinct term its rank in
    # UTF-8 byte order (the arena's binary-search permutation) and keep
    # its minimum occurrence, re-spilling sorted-by-occurrence runs for
    # the second external sort.
    occ_runs: list[Path] = []
    occ_buffer: list[tuple[int, int, bytes]] = []
    blob_bytes = 0
    terms = 0

    def spill_occ_buffer() -> None:
        occ_buffer.sort()
        path = scratch / f"occ.{len(occ_runs):05d}.run"
        with open(path, "wb", buffering=1 << 20) as handle:
            for occ, rank, encoded in occ_buffer:
                handle.write(_OCC_RECORD.pack(occ, rank, len(encoded)))
                handle.write(encoded)
        occ_runs.append(path)
        occ_buffer.clear()

    merged = heapq.merge(*(_iter_term_run(path) for path in runs))
    for encoded, group in itertools.groupby(merged, key=lambda item: item[0]):
        first = min(occ for _, occ in group)
        occ_buffer.append((first, terms, encoded))
        blob_bytes += len(encoded)
        terms += 1
        if len(occ_buffer) >= plan.term_buffer:
            spill_occ_buffer()
    if occ_buffer:
        spill_occ_buffer()
    for path in runs:
        path.unlink()
    # Terms get ids 0 .. terms - 1; refuse before any of them is written.
    check_entity_id(terms - 1)

    # Merge by occurrence → terms stream past in dense-id order.  The
    # arena writer needs two scans (offsets + permutation, then the
    # blob), so the merged order lands in one flat file first.
    ordered_path = scratch / "terms.ordered"
    with open(ordered_path, "wb", buffering=1 << 20) as handle:
        for _, rank, encoded in heapq.merge(*(_iter_occ_run(p) for p in occ_runs)):
            handle.write(_ORDERED_RECORD.pack(rank, len(encoded)))
            handle.write(encoded)
    for path in occ_runs:
        path.unlink()

    writer = ShardStreamWriter(
        arena_path,
        {"kind": "vocabulary", "terms": terms},
        [
            ("offsets", terms + 1, _DTYPE),
            ("sorted_ids", terms, _DTYPE),
            ("blob", blob_bytes, _BYTE_DTYPE),
        ],
    )
    # sorted_ids[rank] = id — the inverse permutation, O(terms) int64 by
    # construction (the arena stores exactly this array).
    sorted_ids = np.empty(terms, dtype=np.int64)
    offsets = array("q", [0])
    position = 0
    with open(ordered_path, "rb", buffering=1 << 20) as handle:
        for term_id in range(terms):
            rank, length = _ORDERED_RECORD.unpack(handle.read(_ORDERED_RECORD.size))
            handle.seek(length, 1)
            position += length
            sorted_ids[rank] = term_id
            offsets.append(position)
            if len(offsets) >= plan.io_elements:
                writer.append("offsets", np.frombuffer(offsets, dtype=np.int64))
                offsets = array("q")
    if len(offsets):
        writer.append("offsets", np.frombuffer(offsets, dtype=np.int64))
    writer.append("sorted_ids", sorted_ids)
    del sorted_ids
    blob_chunk = bytearray()
    with open(ordered_path, "rb", buffering=1 << 20) as handle:
        for _ in range(terms):
            _, length = _ORDERED_RECORD.unpack(handle.read(_ORDERED_RECORD.size))
            blob_chunk += handle.read(length)
            if len(blob_chunk) >= plan.io_elements:
                writer.append("blob", np.frombuffer(blob_chunk, dtype=np.uint8))
                blob_chunk = bytearray()
    if blob_chunk:
        writer.append("blob", np.frombuffer(blob_chunk, dtype=np.uint8))
    entry = writer.close()
    ordered_path.unlink()
    return {"terms": terms, **entry}, terms, triples


def _map_arena(path: Path) -> MappedVocabulary:
    """Open the just-written arena shard as a :class:`MappedVocabulary`.

    A private mini-reader: the full :class:`ShardedSnapshotReader` needs a
    manifest, which by design does not exist until the build finishes.
    """
    with open(path, "rb") as handle:
        mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    magic, version, header_length = _SHARD_HEADER.unpack_from(mapped, 0)
    if magic != SHARD_MAGIC or version != SHARD_VERSION:
        raise SnapshotError(f"freshly written arena {path!s} failed to verify")
    header = json.loads(
        mapped[_SHARD_HEADER.size : _SHARD_HEADER.size + header_length].decode("utf-8")
    )
    base = _align(_SHARD_HEADER.size + header_length)
    views = {}
    for name, entry in header["arrays"].items():
        start = base + entry["offset"]
        dtype = np.uint8 if entry["dtype"] == _BYTE_DTYPE else np.int64
        views[name] = np.frombuffer(
            mapped, dtype=dtype, count=entry["count"], offset=start
        )
    return MappedVocabulary(views["offsets"], views["sorted_ids"], views["blob"])


# ----------------------------------------------------------------------
# pass 2: route rows to per-label spill runs
# ----------------------------------------------------------------------
def _spill_row_buffers(
    buffers: dict[int, array],
    run_dir: Path,
    segments: dict[int, list[int]],
) -> None:
    """Sort, locally dedup, and append every label buffer to its run file."""
    for label_id in sorted(buffers):
        flat = buffers[label_id]
        rows = np.frombuffer(flat, dtype=np.int64).reshape(-1, _ROW_WIDTH)
        order = np.lexsort((rows[:, 2], rows[:, 1], rows[:, 0]))
        rows = rows[order]
        # Duplicates are adjacent after the sort; keep the first (minimum
        # seq) so the eventual stream-order restore matches add_edge's
        # first-wins dedup.
        if len(rows) > 1:
            keep = np.empty(len(rows), dtype=bool)
            keep[0] = True
            keep[1:] = (rows[1:, 0] != rows[:-1, 0]) | (rows[1:, 1] != rows[:-1, 1])
            rows = rows[keep]
        with open(run_dir / f"{label_id:05d}.rows", "ab") as handle:
            handle.write(np.ascontiguousarray(rows).tobytes())
        segments.setdefault(label_id, []).append(len(rows))
    buffers.clear()


def _route_rows(
    source: Path,
    fmt: str,
    vocabulary: MappedVocabulary,
    run_dir: Path,
    plan: BuildPlan,
    expected_triples: int,
) -> tuple[list[str], dict[int, list[int]]]:
    """Pass 2: map terms to ids and spill per-label sorted row runs.

    Returns the labels in first-appearance order (= dense label ids and
    table-shard order, exactly as ``KnowledgeGraph`` label insertion
    produces) and each label's run segment row counts.
    """
    label_ids: dict[str, int] = {}
    segments: dict[int, list[int]] = {}
    buffers: dict[int, array] = {}
    cache: dict[str, int] = {}
    buffered_rows = 0
    seq = 0
    id_of = vocabulary.id_of
    for chunk in iter_triples_chunked(source, fmt=fmt, chunk_size=plan.chunk_triples):
        # Resolve each distinct term in the chunk once: the binary search
        # against the arena is the expensive step, and real dumps repeat
        # terms heavily within a chunk.
        for subject, label, obj in chunk:
            row_ids = []
            for term in (subject, obj):
                term_id = cache.get(term)
                if term_id is None:
                    # Hold resolved ids in row_ids, not the cache: the
                    # clear below may evict the subject while the object
                    # is being resolved.
                    if len(cache) >= plan.lookup_cache:
                        cache.clear()
                    term_id = id_of(term)
                    if term_id is None:
                        raise SnapshotError(
                            f"term {term!r} missing from the pass-1 arena; "
                            "the source changed between streaming passes"
                        )
                    cache[term] = term_id
                row_ids.append(term_id)
            label_id = label_ids.get(label)
            if label_id is None:
                label_id = label_ids.setdefault(label, len(label_ids))
            buffer = buffers.get(label_id)
            if buffer is None:
                buffer = buffers.setdefault(label_id, array("q"))
            buffer.append(row_ids[0])
            buffer.append(row_ids[1])
            buffer.append(seq)
            seq += 1
        buffered_rows += len(chunk)
        if buffered_rows >= plan.row_buffer:
            _spill_row_buffers(buffers, run_dir, segments)
            buffered_rows = 0
    if buffers:
        _spill_row_buffers(buffers, run_dir, segments)
    if seq != expected_triples:
        raise SnapshotError(
            f"source yielded {seq} triples on pass 2 but {expected_triples} "
            "on pass 1; the dump changed while being built"
        )
    return list(label_ids), segments


# ----------------------------------------------------------------------
# finalize: per-label merge → table shard + statistics/CSR runs
# ----------------------------------------------------------------------
def _finalize_label(task: dict) -> dict:
    """Merge one label's runs and write its table shard + side outputs.

    Runs in a worker process when ``workers > 1`` — everything in ``task``
    and the return value is plain picklable data.  Peak memory is the
    label's deduped columns (the same per-label transient the in-memory
    shard writer has).
    """
    label = task["label"]
    run_path = Path(task["run_path"])
    scratch = Path(task["scratch"])
    shard_path = Path(task["shard_path"])
    label_id = task["label_id"]
    io_elements = task["io_elements"]

    merged = heapq.merge(
        *_iter_row_segments(run_path, task["segments"], io_elements)
    )
    subjects = array("q")
    objects = array("q")
    seqs = array("q")
    previous_subject = previous_object = None
    for subject, obj, seq in merged:
        if subject == previous_subject and obj == previous_object:
            continue  # duplicate triple: keep the first occurrence
        previous_subject, previous_object = subject, obj
        subjects.append(subject)
        objects.append(obj)
        seqs.append(seq)
    subjects = np.frombuffer(subjects, dtype=np.int64)
    objects = np.frombuffer(objects, dtype=np.int64)
    seqs = np.frombuffer(seqs, dtype=np.int64)
    # Restore stream order: the in-memory table's row order is the order
    # add_edge saw the (deduped) triples.
    order = np.argsort(seqs, kind="stable")
    final_subjects = np.ascontiguousarray(subjects[order])
    final_objects = np.ascontiguousarray(objects[order])
    table = ColumnarEdgeTable.from_mapped(label, final_subjects, final_objects)
    entry = write_table_shard(shard_path, table)

    # Participation statistics: np.unique returns sorted nodes, so each
    # label contributes pre-sorted (node, count) columns the statistics
    # assembly can k-way merge without re-sorting.  One .npy per column —
    # the assembly opens them with mmap_mode="r" so merging every label
    # at once never materializes more than an I/O chunk per label.
    out_nodes, out_counts = np.unique(final_subjects, return_counts=True)
    in_nodes, in_counts = np.unique(final_objects, return_counts=True)
    stats_prefix = scratch / f"stats.{label_id:05d}"
    np.save(f"{stats_prefix}.out_nodes.npy", out_nodes)
    np.save(f"{stats_prefix}.out_counts.npy", out_counts.astype(np.int64))
    np.save(f"{stats_prefix}.in_nodes.npy", in_nodes)
    np.save(f"{stats_prefix}.in_counts.npy", in_counts.astype(np.int64))

    # CSR runs: this label's rows sorted by (node, seq); the global merge
    # across labels then yields every node's adjacency in stream order —
    # the per-node slice order the in-memory CSR writer preserves.
    label_column = np.full(len(seqs), label_id, dtype=np.int64)
    out_run = scratch / f"csr_out.{label_id:05d}.run"
    out_order = np.lexsort((seqs, subjects))
    np.column_stack(
        (subjects[out_order], seqs[out_order], label_column, objects[out_order])
    ).tofile(out_run)
    in_run = scratch / f"csr_in.{label_id:05d}.run"
    in_order = np.lexsort((seqs, objects))
    np.column_stack(
        (objects[in_order], seqs[in_order], label_column, subjects[in_order])
    ).tofile(in_run)

    return {
        "label": label,
        "label_id": label_id,
        "rows": int(len(seqs)),
        "entry": entry,
        "stats_prefix": str(stats_prefix),
        "csr_out": str(out_run),
        "csr_in": str(in_run),
        "out_entries": int(len(out_nodes)),
        "in_entries": int(len(in_nodes)),
    }


def _run_label_partitions(
    tasks: list[dict], workers: int
) -> list[dict]:
    """Run every per-label finalize task, fanning out when ``workers > 1``.

    Each worker owns disjoint labels (a label is exactly one task), so
    output files never contend and the result is byte-identical for any
    worker count.
    """
    if workers <= 1 or len(tasks) <= 1:
        return [_finalize_label(task) for task in tasks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
        return list(pool.map(_finalize_label, tasks, chunksize=1))


# ----------------------------------------------------------------------
# finalize: statistics + graph CSR shards
# ----------------------------------------------------------------------
def _iter_stat_column(
    prefix: str, direction: str, stride: int, stat_label_id: int, io_elements: int
):
    """Yield sorted ``(composite key, count)`` pairs for one label column.

    The columns open as read-only memmaps, so merging every label's
    stream at once keeps only an I/O chunk per label resident.
    """
    nodes = np.load(f"{prefix}.{direction}_nodes.npy", mmap_mode="r")
    counts = np.load(f"{prefix}.{direction}_counts.npy", mmap_mode="r")
    for start in range(0, len(nodes), io_elements):
        keys = nodes[start : start + io_elements] * stride + stat_label_id
        values = np.asarray(counts[start : start + io_elements])
        for index in range(len(keys)):
            yield int(keys[index]), int(values[index])


def _write_statistics_shard_streaming(
    path: Path,
    results: list[dict],
    labels: list[str],
    scratch: Path,
    plan: BuildPlan,
) -> dict:
    """Stream the per-label sorted stat columns into the statistics shard.

    Reproduces ``write_statistics_shard`` byte-for-byte: stat labels are
    sorted alphabetically, composite keys are ``node * num_labels +
    label`` in globally sorted order (unique by construction, so a k-way
    merge of the per-label sorted columns is exactly the in-memory sort).
    The counts column trails its keys column in the shard layout, so the
    merge streams keys to the writer directly and spools counts to a
    scratch file scanned back afterwards — never a whole column in memory.
    """
    stat_labels = sorted(labels)
    stat_ids = {label: index for index, label in enumerate(stat_labels)}
    stride = max(len(stat_labels), 1)
    out_total = sum(result["out_entries"] for result in results)
    in_total = sum(result["in_entries"] for result in results)
    writer = ShardStreamWriter(
        path,
        {"kind": "statistics", "labels": stat_labels},
        [
            ("out_keys", out_total, _DTYPE),
            ("out_counts", out_total, _DTYPE),
            ("in_keys", in_total, _DTYPE),
            ("in_counts", in_total, _DTYPE),
        ],
    )
    for direction in ("out", "in"):
        streams = [
            _iter_stat_column(
                result["stats_prefix"],
                direction,
                stride,
                stat_ids[result["label"]],
                plan.io_elements,
            )
            for result in results
        ]
        spool_path = scratch / f"stats_{direction}.counts"
        keys_buffer = array("q")
        counts_buffer = array("q")
        with open(spool_path, "wb", buffering=1 << 20) as spool:
            for key, count in heapq.merge(*streams):
                keys_buffer.append(key)
                counts_buffer.append(count)
                if len(keys_buffer) >= plan.io_elements:
                    writer.append(
                        f"{direction}_keys", np.frombuffer(keys_buffer, dtype=np.int64)
                    )
                    spool.write(counts_buffer.tobytes())
                    keys_buffer = array("q")
                    counts_buffer = array("q")
            if len(keys_buffer):
                writer.append(
                    f"{direction}_keys", np.frombuffer(keys_buffer, dtype=np.int64)
                )
                spool.write(counts_buffer.tobytes())
        with open(spool_path, "rb", buffering=1 << 20) as spool:
            while True:
                block = spool.read(plan.io_elements * 8)
                if not block:
                    break
                writer.append(
                    f"{direction}_counts", np.frombuffer(block, dtype=np.int64)
                )
        spool_path.unlink()
    entry = writer.close()
    return {"entries": int(out_total + in_total), **entry}


def _write_graph_shard_streaming(
    path: Path,
    results: list[dict],
    labels: list[str],
    num_nodes: int,
    num_edges: int,
    scratch: Path,
    plan: BuildPlan,
) -> dict:
    """Merge the per-label CSR runs into the graph CSR shard.

    Index pointers come from per-label degree histograms (O(nodes) int64,
    the documented floor); the adjacency columns stream through a single
    global ``(node, seq)`` merge per direction, spooled to one flat file
    so the two column arrays can be written in catalog order.
    """
    writer = ShardStreamWriter(
        path,
        {"kind": "graph", "nodes": num_nodes, "edges": num_edges, "labels": labels},
        [
            ("out_indptr", num_nodes + 1, _DTYPE),
            ("out_objects", num_edges, _DTYPE),
            ("out_labels", num_edges, _DTYPE),
            ("in_indptr", num_nodes + 1, _DTYPE),
            ("in_subjects", num_edges, _DTYPE),
            ("in_labels", num_edges, _DTYPE),
        ],
    )
    for direction, other_name in (("out", "out_objects"), ("in", "in_subjects")):
        degrees = np.zeros(num_nodes, dtype=np.int64)
        for result in results:
            prefix = result["stats_prefix"]
            nodes = np.load(f"{prefix}.{direction}_nodes.npy", mmap_mode="r")
            counts = np.load(f"{prefix}.{direction}_counts.npy", mmap_mode="r")
            degrees[nodes] += counts
        indptr = np.empty(num_nodes + 1, dtype=np.int64)
        indptr[0] = 0
        np.cumsum(degrees, out=indptr[1:])
        del degrees
        writer.append(f"{direction}_indptr", indptr)
        del indptr

        merged_path = scratch / f"csr_{direction}.merged"
        buffer = array("q")
        with open(merged_path, "wb", buffering=1 << 20) as handle:
            for row in heapq.merge(
                *(
                    _iter_csr_run(Path(result[f"csr_{direction}"]), plan.io_elements)
                    for result in results
                )
            ):
                buffer.extend(row)
                if len(buffer) >= plan.io_elements:
                    handle.write(buffer.tobytes())
                    buffer = array("q")
            if len(buffer):
                handle.write(buffer.tobytes())
        per_read = max(1, plan.io_elements // _CSR_WIDTH)
        for array_name, column in ((other_name, 3), (f"{direction}_labels", 2)):
            with open(merged_path, "rb", buffering=1 << 20) as handle:
                while True:
                    block = handle.read(per_read * _CSR_WIDTH * 8)
                    if not block:
                        break
                    chunk = np.frombuffer(block, dtype=np.int64).reshape(
                        -1, _CSR_WIDTH
                    )
                    writer.append(array_name, np.ascontiguousarray(chunk[:, column]))
        merged_path.unlink()
    entry = writer.close()
    return {"nodes": num_nodes, "edges": num_edges, **entry}


def _write_snapshot(
    source: Path,
    output: Path,
    fmt: str,
    workers: int,
    plan: BuildPlan,
    scratch: Path,
    report: dict,
) -> None:
    """The out-of-core pipeline (see the module docstring for stages)."""
    output.mkdir(parents=True, exist_ok=True)
    (output / "tables").mkdir(exist_ok=True)
    run_dir = scratch / "rows"
    run_dir.mkdir()

    started = time.perf_counter()
    vocabulary_entry, num_nodes, total_triples = _build_vocabulary_arena(
        source, fmt, output / "vocabulary.arena", scratch, plan
    )
    report["pass1_seconds"] = time.perf_counter() - started
    report["triples_read"] = total_triples
    report["nodes"] = num_nodes

    started = time.perf_counter()
    vocabulary = _map_arena(output / "vocabulary.arena")
    labels, segments = _route_rows(
        source, fmt, vocabulary, run_dir, plan, total_triples
    )
    report["pass2_seconds"] = time.perf_counter() - started
    report["spill_runs"] = sum(len(runs) for runs in segments.values())

    started = time.perf_counter()
    tasks = [
        {
            "label": label,
            "label_id": label_id,
            "run_path": str(run_dir / f"{label_id:05d}.rows"),
            "segments": segments[label_id],
            "scratch": str(scratch),
            # Table order is label first-appearance order — identical to
            # the in-memory save's enumerate(store.labels()).
            "shard_path": str(output / "tables" / f"{label_id:05d}.shard"),
            "io_elements": plan.io_elements,
        }
        for label_id, label in enumerate(labels)
    ]
    results = _run_label_partitions(tasks, workers)
    results.sort(key=lambda result: result["label_id"])
    num_edges = sum(result["rows"] for result in results)
    report["finalize_labels_seconds"] = time.perf_counter() - started
    report["edges"] = num_edges
    report["labels"] = len(labels)
    report["duplicates"] = total_triples - num_edges

    started = time.perf_counter()
    graph_entry = _write_graph_shard_streaming(
        output / "graph.csr", results, labels, num_nodes, num_edges, scratch, plan
    )
    statistics_entry = _write_statistics_shard_streaming(
        output / "statistics.counts", results, labels, scratch, plan
    )
    report["bytes_written"] = write_manifest(
        output,
        meta={"num_nodes": num_nodes, "num_edges": num_edges, "num_labels": len(labels)},
        total_edges=num_edges,
        label_counts={result["label"]: result["rows"] for result in results},
        vocabulary={**vocabulary_entry, "file": "vocabulary.arena"},
        graph={**graph_entry, "file": "graph.csr"},
        statistics_counts={**statistics_entry, "file": "statistics.counts"},
        tables=[
            {**result["entry"], "file": f"tables/{result['label_id']:05d}.shard"}
            for result in results
        ],
    )
    report["finalize_shards_seconds"] = time.perf_counter() - started


def build_streaming_snapshot(
    source: str | Path,
    output: str | Path,
    *,
    fmt: str = "auto",
    snapshot_format: str = "v3",
    workers: int = 1,
    memory_budget_mb: int = 256,
    tmp_dir: str | Path | None = None,
) -> dict:
    """Build a snapshot from a triple dump without materializing the graph.

    Parameters mirror ``gqbe build-index --streaming``: ``fmt`` is the
    triple file format (``auto`` sniffs, ``.gz`` decompresses
    transparently), ``workers`` fans the per-label shard writers out over
    processes, and ``memory_budget_mb`` bounds the streaming state (see
    the module docstring for exactly what scales with data instead).

    ``snapshot_format`` names the one layout there is (``"v3"``) and
    rejects anything else.  Returns a report dict with row counts,
    per-stage timings and spill statistics.  The output is byte-identical
    to ``GraphStore.build`` + ``save`` over ``load_graph`` of the same
    dump — the repo's standing equivalence discipline, enforced by
    ``tests/test_streaming_build.py``.
    """
    source = Path(source)
    output = Path(output)
    if snapshot_format != "v3":
        raise SnapshotError(
            f"unknown snapshot format {snapshot_format!r}; the only "
            "snapshot format is v3"
        )
    plan = BuildPlan(memory_budget_mb)
    report: dict = {
        "workers": workers,
        "memory_budget_mb": memory_budget_mb,
    }
    overall = time.perf_counter()
    scratch = Path(
        tempfile.mkdtemp(
            prefix="gqbe-build-",
            dir=str(tmp_dir) if tmp_dir is not None else str(output.parent),
        )
    )
    try:
        _write_snapshot(source, output, fmt, workers, plan, scratch, report)
    except OSError as error:
        raise SnapshotError(
            f"streaming build of {output!s} failed: {error}"
        ) from error
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    report["total_seconds"] = time.perf_counter() - overall
    return report
