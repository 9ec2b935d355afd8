"""Out-of-core streaming build: triple dump → snapshot in bounded memory.

``GraphStore.build`` needs the whole :class:`KnowledgeGraph` in Python
objects, which caps the offline phase (paper Sec. V-A) at graphs that fit
in one box's RAM.  :func:`build_streaming_snapshot`
produces the *byte-identical* snapshot directory from a triple file
without ever holding the graph, the vocabulary dict, or more than one
label's columns at a time:

Pass 1 — vocabulary (external merge sort)
    Stream the dump in bounded chunks (:func:`iter_triples_chunked`) and
    record each term's first global occurrence index.  Term buffers spill
    to byte-sorted runs on disk; a k-way merge dedups them (keeping the
    minimum occurrence), a second external sort re-orders the merged terms
    by first occurrence — which *is* the dense-id order ``GraphStore.build``
    assigns (graph insertion order: subject before object, duplicates
    skipped) — and the
    ordered stream is written straight into the vocabulary arena shard
    through :class:`~repro.storage.shards.ShardStreamWriter`.

Pass 2 — tables (spill runs → per-label row runs)
    Re-read the dump and map terms to dense ids through the *mapped*
    arena behind a bounded cache.  Ids are first-occurrence ranks and this
    pass reads the stream in pass 1's order, so a term the cache misses is
    usually new: one bytes compare against the arena term at the next id
    not yet met confirms it.  Only a term evicted from the cache is binary
    searched.  ``(subject, object)`` rows route to per-label spill runs,
    each sorted and locally deduped with numpy before it hits disk.

Finalize — per label (parallelizable), then two block merges
    Each label's run file is read whole; one ``np.unique`` over its
    ``(subject, object)`` keys drops the duplicates and sorts the rows,
    and the label's table shard is written through the same
    ``write_table_shard`` as the in-memory path — so the shard bytes
    cannot differ.  Workers own disjoint labels (``workers > 1`` fans the
    per-label work out over processes); each label also writes
    ``(node, label, other)``-sorted CSR runs, which a block-wise numpy
    merge (:func:`_merge_runs`) streams into the graph shard.  The table
    shards are also the statistics' participation counts, so no counts
    are written.  Scratch runs are int64 records; each
    shard array is written at the width its catalog declares
    (:func:`~repro.storage.shards.int_dtype` of a bound known before the
    first chunk), and a chunk that width cannot hold is refused.
    ``MANIFEST.json`` is written last, and
    one already in the output is unlinked before anything else, so a
    crash at any point leaves no loadable snapshot — just an unreadable
    directory.

A snapshot is a function of its edge set: rows are sorted, so no order of
the dump survives but the one its ids carry.  That is what lets the
finalize have a second source, :func:`write_bundle_snapshot`
(``GraphStore.save``): a bundle's live vocabulary and each label's id
rows, base and ingested delta alike.  Ids do not move, so compacting a
snapshot with its delta writes the bytes a build of the base dump
followed by the applied delta writes.

Memory-budget semantics: ``memory_budget_mb`` bounds the *streaming state*
— read chunks, spill buffers, the id-lookup cache and the merge blocks
are all sized from it.  Footprints that scale with the data instead are
the documented floor: one O(nodes) array at a time (the arena
permutation in pass 1, the CSR index pointers at the end; each at its
shard width, int32 while ids and the edge count fit), the mapped
arena while pass 2 reads it, about 100 bytes per row routed to the
largest label while its shard is finalized (duplicate triples included:
they are dropped only once its run is read and sorted), and the
interpreter + numpy baseline.
"""

from __future__ import annotations

import heapq
import itertools
import math
import mmap
import os
import shutil
import struct
import tempfile
import time
from array import array
from collections.abc import Iterable
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from repro.exceptions import GraphError, SnapshotError
from repro.graph.triples import iter_triples_chunked
from repro.storage.shards import (
    ID_DTYPE,
    MANIFEST_NAME,
    ShardStreamWriter,
    arena_dtypes,
    graph_dtypes,
    parse_shard,
    write_manifest,
    write_table_shard,
    write_vocabulary_shard,
)
from repro.storage.table import ColumnarEdgeTable
from repro.storage.vocabulary import MappedVocabulary, check_entity_id

#: Disk record layouts for the spill files (all little-endian).
_TERM_RECORD = struct.Struct("<IQ")  # term length, occurrence — then term bytes
_OCC_RECORD = struct.Struct("<QQI")  # occurrence, byte rank, term length — then term
_ORDERED_RECORD = struct.Struct("<QI")  # byte rank, term length — then term bytes
_ROW_WIDTH = 2  # (subject_id, object_id) int64 row-run records
_CSR_WIDTH = 3  # (node_id, label_id, other_id) int64 CSR-run records
#: The memory budget of a save's finalize.  A compaction runs inside the
#: serving process, beside the bundle it folds, so its merge buffers stay
#: small; a build's budget is its caller's (``--memory-budget-mb``).
_SAVE_BUDGET_MB = 16
#: A sorted run of int64 records: ``(file, byte offset, records)``.
Run = tuple[Path, int, int]


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
        #: Pass-2 buffered rows across all labels before a spill (16 B of
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


def _rows_at_most(columns: np.ndarray, bound: tuple[int, ...]) -> int:
    """How many leading rows of the sorted ``(width, n)`` ``columns`` are
    ``<= bound`` in lexicographic order: a searchsorted per column over
    the rows still equal to ``bound`` so far, until none is."""
    low, high = 0, columns.shape[1]
    for column, value in zip(columns, bound):
        keys = column[low:high]
        end = int(np.searchsorted(keys, value, "right"))
        if end == 0 or keys[end - 1] != value:
            return low + end
        high = low + end
        low += int(np.searchsorted(keys[:end], value, "left"))
    return high


def _sorted_rows(parts: list[np.ndarray]) -> np.ndarray:
    """The rows of sorted ``(width, n)`` column blocks as one sorted
    C-ordered ``(n, width)`` array."""
    if len(parts) == 1:
        return np.ascontiguousarray(parts[0].T)
    columns = np.concatenate(parts, axis=1)
    return np.ascontiguousarray(columns.T[np.lexsort(columns[::-1])])


def _merge_group(runs: list[Run], width: int, pool_rows: int):
    """Merge a few sorted runs, each read ``pool_rows // len(runs)`` rows
    at a time into its own column-major block.  No unread row of a
    run sorts before the last row read from it, so a round takes from each
    block its prefix up to the smallest such row among the runs still on
    disk, sorts the union and refills the blocks it emptied: O(runs) numpy
    work plus a searchsorted per giving block, never a rescan."""
    block_rows = max(1, pool_rows // len(runs))
    done = [0] * len(runs)
    blocks = [np.empty((width, 0), dtype=np.int64)] * len(runs)
    # The first column of each block's first unconsumed row (max if none).
    heads = np.full(len(runs), np.iinfo(np.int64).max, dtype=np.int64)
    # Runs with rows still on disk -> the last row read from them.
    last: dict[int, tuple[int, ...]] = {}

    def read(run: int) -> None:
        path, offset, size = runs[run]
        count = min(block_rows, size - done[run])
        if not count:
            return
        rows = np.fromfile(
            path, dtype=np.int64, count=count * width, offset=offset + done[run] * width * 8
        ).reshape(-1, width)
        done[run] += count
        blocks[run] = np.ascontiguousarray(rows.T)
        heads[run] = rows[0, 0]
        if done[run] < size:
            last[run] = tuple(rows[-1].tolist())
        else:
            last.pop(run, None)

    for run in range(len(runs)):
        read(run)
    while last:
        bound = min(last.values())
        parts = []
        for run in np.flatnonzero(heads <= bound[0]).tolist():
            block = blocks[run]
            count = _rows_at_most(block, bound)
            if count:
                parts.append(block[:, :count])
                blocks[run] = block = block[:, count:]
                heads[run] = block[0, 0] if block.shape[1] else np.iinfo(np.int64).max
        yield _sorted_rows(parts)
        for run in [run for run, row in last.items() if row == bound]:
            read(run)
    parts = [block for block in blocks if block.shape[1]]
    if parts:
        yield _sorted_rows(parts)


def _merge_runs(runs: list[Run], width: int, io_elements: int):
    """Yield the rows of lexicographically sorted int64 runs, merged, as
    sorted ``(n, width)`` blocks: the order ``heapq.merge`` gives their
    row tuples.

    About ``io_elements`` elements are buffered whatever the number of
    runs.  At most ``sqrt(io_elements / width)`` runs merge at once, so a
    run's block never shrinks below that many rows; more runs (a dump with
    thousands of labels) are first merged a group at a time into files
    beside them, a level at a time, and those files are deleted once read.
    """
    pool_rows = max(1, io_elements // width)
    fan_in = max(2, math.isqrt(pool_rows))
    level: list[Run] = []
    while len(runs) > fan_in:
        merged = []
        for start in range(0, len(runs), fan_in):
            group = runs[start : start + fan_in]
            path = group[0][0].with_name(f"{group[0][0].name}.{start}.merged")
            with open(path, "wb") as handle:
                for rows in _merge_group(group, width, pool_rows):
                    rows.tofile(handle)
            merged.append((path, 0, sum(size for _, _, size in group)))
        for path, _, _ in level:
            path.unlink()
        level = runs = merged
    if runs:
        yield from _merge_group(runs, width, pool_rows)
    for path, _, _ in level:
        path.unlink()


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
    structure is the id sort permutation the arena itself stores.
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
        # Match GraphStore.build, which refuses empty graphs.
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

    dtypes = arena_dtypes(blob_bytes)
    writer = ShardStreamWriter(
        arena_path,
        {"kind": "vocabulary", "terms": terms},
        [
            ("offsets", terms + 1, dtypes["offsets"]),
            ("sorted_ids", terms, dtypes["sorted_ids"]),
            ("blob", blob_bytes, dtypes["blob"]),
        ],
    )
    # sorted_ids[rank] = id — the inverse permutation, O(terms) ids by
    # construction (the arena stores exactly this array).
    sorted_ids = np.empty(terms, dtype=ID_DTYPE)
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

    The full :class:`ShardedSnapshotReader` needs a manifest, which by
    design does not exist until the build finishes.
    """
    with open(path, "rb") as handle:
        mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    _, view = parse_shard(path, mapped)
    return MappedVocabulary(view("offsets"), view("sorted_ids"), view("blob"))


# ----------------------------------------------------------------------
# pass 2: route rows to per-label spill runs
# ----------------------------------------------------------------------
def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of an ``(n, 2)`` id array as ``(subjects,
    objects)`` sorted by (subject, object): one sort of composite keys
    (ids are below 2**31, so a key fits in int64), then equal neighbours
    dropped — ``np.unique``'s own steps, without the ``numpy.ma`` import
    it makes.  Duplicates are identical triples, so nothing chooses
    between them."""
    keys = np.sort((rows[:, 0] << 32) | rows[:, 1])
    keep = np.ones(len(keys), dtype=bool)
    keep[1:] = keys[1:] != keys[:-1]
    keys = keys[keep]
    return keys >> 32, keys & 0xFFFFFFFF


def _spill_row_buffers(
    buffers: dict[int, array],
    run_dir: Path,
    segments: dict[int, list[int]],
) -> None:
    """Sort, locally dedup, and append every label buffer to its run file."""
    for label_id in sorted(buffers):
        rows = np.column_stack(
            _unique_rows(np.frombuffer(buffers[label_id], dtype=np.int64).reshape(-1, _ROW_WIDTH))
        )
        with open(run_dir / f"{label_id:05d}.rows", "ab") as handle:
            rows.tofile(handle)
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

    A cache miss is first compared with the arena term at the next id not
    yet met (ids are first-occurrence ranks, met in the same order here);
    only a term evicted from the cache is binary searched.
    """
    label_ids: dict[str, int] = {}
    segments: dict[int, list[int]] = {}
    buffers: dict[int, array] = {}
    cache: dict[str, int] = {}
    buffered_rows = 0
    routed = 0
    next_id = 0
    terms = len(vocabulary)
    term_bytes = vocabulary._term_bytes

    def resolve(term: str) -> int:
        nonlocal next_id
        if len(cache) >= plan.lookup_cache:
            cache.clear()
        if next_id < terms and term_bytes(next_id) == term.encode("utf-8"):
            term_id = next_id
            next_id += 1
        else:
            term_id = vocabulary.id_of(term)
            if term_id is None:
                raise SnapshotError(
                    f"term {term!r} missing from the pass-1 arena; "
                    "the source changed between streaming passes"
                )
        cache[term] = term_id
        return term_id

    for chunk in iter_triples_chunked(source, fmt=fmt, chunk_size=plan.chunk_triples):
        for subject, label, obj in chunk:
            subject_id = cache.get(subject)
            if subject_id is None:
                subject_id = resolve(subject)
            object_id = cache.get(obj)
            if object_id is None:
                object_id = resolve(obj)
            label_id = label_ids.get(label)
            if label_id is None:
                label_id = label_ids.setdefault(label, len(label_ids))
            buffer = buffers.get(label_id)
            if buffer is None:
                buffer = buffers.setdefault(label_id, array("q"))
            buffer.append(subject_id)
            buffer.append(object_id)
        buffered_rows += len(chunk)
        routed += len(chunk)
        if buffered_rows >= plan.row_buffer:
            _spill_row_buffers(buffers, run_dir, segments)
            buffered_rows = 0
    if buffers:
        _spill_row_buffers(buffers, run_dir, segments)
    if routed != expected_triples:
        raise SnapshotError(
            f"source yielded {routed} triples on pass 2 but {expected_triples} "
            "on pass 1; the dump changed while being built"
        )
    return list(label_ids), segments


# ----------------------------------------------------------------------
# finalize: per-label merge → table shard + CSR runs
# ----------------------------------------------------------------------
def _finalize_label(task: dict) -> dict:
    """Sort one label's rows and write its table shard + side runs.

    Runs in a worker process when ``workers > 1`` — everything in ``task``
    and the return value is plain picklable data.  The rows are read whole
    and sorted in numpy, so peak memory is about 100 bytes per row routed
    to the label: duplicates count until that sort drops them.
    """
    label = task["label"]
    label_id = task["label_id"]
    path, offset, count = task["rows"]

    # The run's segments are each sorted and deduped; one sort of them all
    # finishes the dedup across segments.
    rows = np.fromfile(path, dtype=np.int64, count=count * _ROW_WIDTH, offset=offset)
    if len(rows) != count * _ROW_WIDTH:
        raise SnapshotError(f"row run {path!s} does not match its recorded rows")
    subjects, objects = _unique_rows(rows.reshape(-1, _ROW_WIDTH))
    del rows

    # The label's two runs for the block merges go one after another onto
    # the end of this process's side file.  CSR runs are (node, label,
    # other) rows: the table's (subject, object) order already is the out
    # run's, the in run takes one sort, and the merge across labels then
    # yields every node's adjacency sorted by (label, other).
    side = task["scratch"] / f"side.{os.getpid()}.run"
    label_column = np.full(len(subjects), label_id, dtype=np.int64)
    by_object = np.lexsort((subjects, objects))
    runs = {
        "csr_out": np.column_stack((subjects, label_column, objects)),
        "csr_in": np.column_stack((objects[by_object], label_column, subjects[by_object])),
    }
    del label_column, by_object
    outputs = {}
    with open(side, "ab") as handle:
        offset = handle.tell()
        for name, run in runs.items():
            run.tofile(handle)
            outputs[name] = (side, offset, len(run))
            offset += run.nbytes
    del runs

    table = ColumnarEdgeTable.from_mapped(label, subjects, objects)
    return {
        "label": label,
        "label_id": label_id,
        "rows": len(table),
        "entry": write_table_shard(task["shard_path"], table),
        **outputs,
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
# finalize: graph CSR shard
# ----------------------------------------------------------------------
def _append_columns(
    writer: ShardStreamWriter,
    spool: Path,
    width: int,
    columns: list[tuple[str, int]],
    io_elements: int,
) -> None:
    """Append columns of a spooled file of ``width``-wide int64 rows to
    ``writer`` (one scan per column, in catalog order), then delete it."""
    per_read = max(1, io_elements // width)
    for name, column in columns:
        with open(spool, "rb") as handle:
            while True:
                rows = np.fromfile(handle, dtype=np.int64, count=per_read * width)
                if not len(rows):
                    break
                writer.append(name, np.ascontiguousarray(rows.reshape(-1, width)[:, column]))
    spool.unlink()


def _write_graph_shard(
    path: Path,
    results: list[dict],
    labels: list[str],
    num_nodes: int,
    num_edges: int,
    scratch: Path,
    plan: BuildPlan,
) -> dict:
    """Merge the per-label CSR runs into the graph CSR shard.

    Per direction, one global ``(node, label, other)`` merge is spooled to
    scratch; the node degrees it passes accumulate into the index
    pointers (one O(nodes) array at its shard width, the documented
    floor), which precede the two adjacency columns read back from the
    spool in catalog order.
    """
    dtypes = graph_dtypes(num_edges, len(labels))
    writer = ShardStreamWriter(
        path,
        {"kind": "graph", "nodes": num_nodes, "edges": num_edges, "labels": labels},
        [
            (name, num_nodes + 1 if name.endswith("indptr") else num_edges, dtype)
            for name, dtype in dtypes.items()
        ],
    )
    for direction, other_name in (("out", "out_objects"), ("in", "in_subjects")):
        runs = [result[f"csr_{direction}"] for result in results]
        spool = scratch / f"csr_{direction}.merged"
        indptr = np.zeros(num_nodes + 1, dtype=dtypes[f"{direction}_indptr"])
        with open(spool, "wb") as handle:
            for rows in _merge_runs(runs, _CSR_WIDTH, plan.io_elements):
                rows.tofile(handle)
                nodes, counts = np.unique(rows[:, 0], return_counts=True)
                indptr[nodes + 1] += counts
        np.cumsum(indptr, out=indptr)
        writer.append(f"{direction}_indptr", indptr)
        del indptr
        columns = [(other_name, 2), (f"{direction}_labels", 1)]
        _append_columns(writer, spool, _CSR_WIDTH, columns, plan.io_elements)
    entry = writer.close()
    return {"nodes": num_nodes, "edges": num_edges, **entry}


@contextmanager
def _work_area(output: Path, tmp_dir: str | Path | None):
    """Open ``output`` for a write; yields a scratch directory (with an
    empty ``rows/`` for the row runs) that is removed afterwards.

    A ``MANIFEST.json`` already in ``output`` is unlinked before any shard
    is written, so a write that fails over an old snapshot leaves a
    directory no reader accepts rather than a manifest over torn shards.
    Any ``OSError`` becomes a :class:`SnapshotError`.
    """
    try:
        (output / "tables").mkdir(parents=True, exist_ok=True)
        (output / MANIFEST_NAME).unlink(missing_ok=True)
        scratch = Path(
            tempfile.mkdtemp(
                prefix="gqbe-build-",
                dir=str(tmp_dir) if tmp_dir is not None else str(output.parent),
            )
        )
        try:
            (scratch / "rows").mkdir()
            yield scratch
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
    except OSError as error:
        raise SnapshotError(f"cannot write snapshot {output!s}: {error}") from error


def _finalize(
    output: Path,
    vocabulary_entry: dict,
    num_nodes: int,
    labels: list[str],
    rows: list[Run],
    workers: int,
    plan: BuildPlan,
    scratch: Path,
    report: dict,
) -> None:
    """Both sources end here: the vocabulary arena is in ``output`` and
    label ``i``'s ``(subject, object)`` id rows in ``rows[i]``, sorted or
    not, duplicates or not.  Writes the table shards, the graph CSR and
    the manifest."""
    started = time.perf_counter()
    tasks = [
        {
            "label": label,
            "label_id": label_id,
            "rows": rows[label_id],
            "scratch": scratch,
            # Table shards are numbered by label id (first-seen order).
            "shard_path": output / "tables" / f"{label_id:05d}.shard",
        }
        for label_id, label in enumerate(labels)
    ]
    results = _run_label_partitions(tasks, workers)
    results.sort(key=lambda result: result["label_id"])
    num_edges = sum(result["rows"] for result in results)
    report["finalize_labels_seconds"] = time.perf_counter() - started
    report["edges"] = num_edges
    report["labels"] = len(labels)

    started = time.perf_counter()
    graph_entry = _write_graph_shard(
        output / "graph.csr", results, labels, num_nodes, num_edges, scratch, plan
    )
    report["bytes_written"] = write_manifest(
        output,
        meta={"num_nodes": num_nodes, "num_edges": num_edges, "num_labels": len(labels)},
        vocabulary={**vocabulary_entry, "file": "vocabulary.arena"},
        graph={**graph_entry, "file": "graph.csr"},
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

    Parameters mirror ``gqbe build-index``: ``fmt`` is the
    triple file format (``auto`` sniffs, ``.gz`` decompresses
    transparently), ``workers`` fans the per-label shard writers out over
    processes, and ``memory_budget_mb`` bounds the streaming state (see
    the module docstring for exactly what scales with data instead).

    ``snapshot_format`` names the sharded directory layout (``"v3"``,
    whatever the manifest's ``format_version``) and rejects anything
    else; it stays because ``perfbench/child.py`` passes it, and the
    ROADMAP ``[benchmark]`` item that edits perfbench deletes it.
    Returns a report dict with row counts, per-stage timings and spill
    statistics.  The output is
    byte-identical to ``GraphStore.build`` + ``save`` over ``load_graph``
    of the same dump — the repo's standing equivalence discipline,
    enforced by ``tests/test_streaming_build.py``.
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
    with _work_area(output, tmp_dir) as scratch:
        started = time.perf_counter()
        vocabulary_entry, num_nodes, total_triples = _build_vocabulary_arena(
            source, fmt, output / "vocabulary.arena", scratch, plan
        )
        report["pass1_seconds"] = time.perf_counter() - started
        report["triples_read"] = total_triples
        report["nodes"] = num_nodes

        started = time.perf_counter()
        # The mapping lives for this pass only: its pages leave the RSS after.
        labels, segments = _route_rows(
            source,
            fmt,
            _map_arena(output / "vocabulary.arena"),
            scratch / "rows",
            plan,
            total_triples,
        )
        report["pass2_seconds"] = time.perf_counter() - started
        report["spill_runs"] = sum(len(runs) for runs in segments.values())

        rows = [
            (scratch / "rows" / f"{label_id:05d}.rows", 0, sum(segments[label_id]))
            for label_id in range(len(labels))
        ]
        _finalize(
            output, vocabulary_entry, num_nodes, labels, rows, workers, plan, scratch, report
        )
    report["duplicates"] = total_triples - report["edges"]
    report["total_seconds"] = time.perf_counter() - overall
    return report


def write_bundle_snapshot(
    output: str | Path,
    vocabulary: Iterable[str],
    num_nodes: int,
    tables: Iterable[ColumnarEdgeTable],
) -> int:
    """Write a bundle's offline state through the build's finalize
    (``GraphStore.save``); returns the bytes written.

    ``vocabulary`` iterates the terms in id order (a mapped arena with its
    ingest overlay) and becomes the arena as it is; ``tables`` come in
    label-id order, and each table's id columns become its label's rows.
    No id moves, so the result is the snapshot a build of the same edges
    with the same ids writes.
    """
    output = Path(output)
    report: dict = {}
    with _work_area(output, None) as scratch:
        vocabulary_entry = write_vocabulary_shard(output / "vocabulary.arena", vocabulary)
        labels = []
        rows = []
        # Every label's rows in one file, one after another.
        path = scratch / "rows" / "bundle.rows"
        offset = 0
        with open(path, "wb") as handle:
            for table in tables:
                # Row runs are int64 whatever width the table holds.
                run = np.column_stack((table.subject_ids(), table.object_ids())).astype(
                    np.int64, copy=False
                )
                run.tofile(handle)
                labels.append(table.label)
                rows.append((path, offset, len(run)))
                offset += run.nbytes
        _finalize(
            output,
            vocabulary_entry,
            num_nodes,
            labels,
            rows,
            1,
            BuildPlan(_SAVE_BUDGET_MB),
            scratch,
            report,
        )
    return report["bytes_written"]
