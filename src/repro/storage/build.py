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

Pass 2 — tables (spill runs → per-label shards)
    Re-read the dump and map terms to dense ids through the *mapped*
    arena behind a bounded cache.  Ids are first-occurrence ranks and this
    pass reads the stream in pass 1's order, so a term the cache misses is
    usually new: one bytes compare against the arena term at the next id
    not yet met confirms it.  Only a term evicted from the cache is binary
    searched.  ``(subject, object, seq)`` rows route to per-label spill
    runs, each sorted and locally deduped with numpy before it hits disk.

Finalize — per label (parallelizable), then two block merges
    Each label's run file is read whole and sorted with numpy; duplicates
    collapse to their first occurrence, a stable re-sort by ``seq``
    restores stream order, and the label's table shard is written through
    the same ``write_table_shard`` as the in-memory path — so the shard
    bytes cannot differ.  Workers own disjoint labels (``workers > 1``
    fans the per-label work out over processes); each label also writes
    sorted statistics runs and ``(node, seq)``-sorted CSR runs, which a
    block-wise numpy merge (:func:`_merge_runs`) streams into the
    statistics and graph shards.  ``MANIFEST.json`` is written last, so a
    crash at any point leaves no torn snapshot — just an unreadable
    directory.

Memory-budget semantics: ``memory_budget_mb`` bounds the *streaming state*
— read chunks, spill buffers, the id-lookup cache and the merge blocks
are all sized from it.  Footprints that scale with the data instead are
the documented floor: one O(nodes) int64 array at a time (the arena
permutation in pass 1, the CSR index pointers at the end), the mapped
arena while pass 2 reads it, about 110 bytes per row routed to the
largest label while its shard is finalized (duplicate triples included:
they are dropped only once its run is read and sorted), and the
interpreter + numpy baseline.
"""

from __future__ import annotations

import heapq
import itertools
import math
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
    ShardStreamWriter,
    parse_shard,
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
_STAT_WIDTH = 2  # (node_id * labels + stat_label_id, count) statistics-run records

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


def _merge_group(paths: list[Path], width: int, pool_rows: int):
    """Merge a few sorted run files, each read ``pool_rows // len(paths)``
    rows at a time into its own column-major block.  No unread row of a
    run sorts before the last row read from it, so a round takes from each
    block its prefix up to the smallest such row among the runs still on
    disk, sorts the union and refills the blocks it emptied: O(runs) numpy
    work plus a searchsorted per giving block, never a rescan."""
    block_rows = max(1, pool_rows // len(paths))
    sizes = [path.stat().st_size // (8 * width) for path in paths]
    done = [0] * len(paths)
    blocks = [np.empty((width, 0), dtype=np.int64)] * len(paths)
    # The first column of each block's first unconsumed row (max if none).
    heads = np.full(len(paths), np.iinfo(np.int64).max, dtype=np.int64)
    # Runs with rows still on disk -> the last row read from them.
    last: dict[int, tuple[int, ...]] = {}

    def read(run: int) -> None:
        count = min(block_rows, sizes[run] - done[run])
        if not count:
            return
        rows = np.fromfile(
            paths[run], dtype=np.int64, count=count * width, offset=done[run] * width * 8
        ).reshape(-1, width)
        done[run] += count
        blocks[run] = np.ascontiguousarray(rows.T)
        heads[run] = rows[0, 0]
        if done[run] < sizes[run]:
            last[run] = tuple(rows[-1].tolist())
        else:
            last.pop(run, None)

    for run in range(len(paths)):
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


def _merge_runs(paths: list[Path], width: int, io_elements: int):
    """Yield the rows of lexicographically sorted int64 run files, merged,
    as sorted ``(n, width)`` blocks: the order ``heapq.merge`` gives their
    row tuples.

    About ``io_elements`` elements are buffered whatever the number of
    runs.  At most ``sqrt(io_elements / width)`` runs merge at once, so a
    run's block never shrinks below that many rows; more runs (a dump with
    thousands of labels) are first merged a group at a time into files
    beside them, a level at a time, and those files are deleted once read.
    """
    pool_rows = max(1, io_elements // width)
    fan_in = max(2, math.isqrt(pool_rows))
    level: list[Path] = []
    while len(paths) > fan_in:
        merged = []
        for start in range(0, len(paths), fan_in):
            group = paths[start : start + fan_in]
            merged.append(group[0].with_name(group[0].name + ".merged"))
            with open(merged[-1], "wb") as handle:
                for rows in _merge_group(group, width, pool_rows):
                    rows.tofile(handle)
        for path in level:
            path.unlink()
        level = paths = merged
    if paths:
        yield from _merge_group(paths, width, pool_rows)
    for path in level:
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
def _first_occurrences(rows: np.ndarray) -> np.ndarray:
    """``(subject, object, seq)`` rows sorted, each triple kept once with
    its minimum seq — so the eventual stream-order restore matches
    add_edge's first-wins dedup."""
    rows = rows[np.lexsort((rows[:, 2], rows[:, 1], rows[:, 0]))]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:, 0] != rows[:-1, 0]) | (rows[1:, 1] != rows[:-1, 1])
    return rows[keep]


def _spill_row_buffers(
    buffers: dict[int, array],
    run_dir: Path,
    segments: dict[int, list[int]],
) -> None:
    """Sort, locally dedup, and append every label buffer to its run file."""
    for label_id in sorted(buffers):
        rows = _first_occurrences(
            np.frombuffer(buffers[label_id], dtype=np.int64).reshape(-1, _ROW_WIDTH)
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
    seq = 0
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
    and the return value is plain picklable data.  The run is read whole
    and sorted in numpy, so peak memory is about 110 bytes per row pass 2
    routed to the label: duplicates count until that sort drops them.
    """
    label = task["label"]
    run_path = Path(task["run_path"])
    scratch = Path(task["scratch"])
    label_id = task["label_id"]

    # The run's segments are each sorted and deduped; one sort of them all
    # finishes the dedup across segments.
    if run_path.stat().st_size != task["run_rows"] * _ROW_WIDTH * 8:
        raise SnapshotError(f"row run {run_path!s} does not match its recorded segments")
    rows = _first_occurrences(np.fromfile(run_path, dtype=np.int64).reshape(-1, _ROW_WIDTH))
    subjects, objects, seqs = rows[:, 0], rows[:, 1], rows[:, 2]

    # CSR runs: this label's rows sorted by (node, seq); the global merge
    # across labels then yields every node's adjacency in stream order —
    # the per-node slice order the in-memory CSR writer preserves.
    outputs = {}
    label_column = np.full(len(rows), label_id, dtype=np.int64)
    for direction, nodes, others in (("out", subjects, objects), ("in", objects, subjects)):
        order = np.lexsort((seqs, nodes))
        run = outputs[f"csr_{direction}"] = str(scratch / f"csr_{direction}.{label_id:05d}.run")
        np.column_stack((nodes[order], seqs[order], label_column, others[order])).tofile(run)
    del label_column, order

    # Participation statistics: np.unique returns sorted nodes, so each
    # label contributes a run of (composite key, count) rows already in
    # the statistics shard's key order, for the assembly to merge.
    for direction, nodes in (("out", subjects), ("in", objects)):
        nodes, counts = np.unique(nodes, return_counts=True)
        outputs[f"stats_{direction}"] = str(scratch / f"stats_{direction}.{label_id:05d}.run")
        np.column_stack(
            (nodes * task["stat_stride"] + task["stat_label_id"], counts)
        ).tofile(outputs[f"stats_{direction}"])
        outputs[f"{direction}_entries"] = int(len(nodes))

    # Restore stream order: the in-memory table's row order is the order
    # add_edge saw the (deduped) triples.
    order = np.argsort(seqs, kind="stable")
    final_subjects = subjects[order]
    final_objects = objects[order]
    del rows, subjects, objects, seqs, order
    table = ColumnarEdgeTable.from_mapped(label, final_subjects, final_objects)
    return {
        "label": label,
        "label_id": label_id,
        "rows": len(table),
        "entry": write_table_shard(Path(task["shard_path"]), table),
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
# finalize: statistics + graph CSR shards
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


def _write_statistics_shard_streaming(
    path: Path,
    results: list[dict],
    labels: list[str],
    scratch: Path,
    plan: BuildPlan,
) -> dict:
    """Merge the per-label statistics runs into the statistics shard.

    Reproduces ``write_statistics_shard`` byte-for-byte: stat labels are
    sorted alphabetically, composite keys are ``node * num_labels +
    label`` in globally sorted order (unique by construction, so a merge
    of the per-label sorted runs is exactly the in-memory sort).  The
    merged rows are spooled to scratch, so keys and counts can be written
    as two columns without holding either.
    """
    out_total = sum(result["out_entries"] for result in results)
    in_total = sum(result["in_entries"] for result in results)
    writer = ShardStreamWriter(
        path,
        {"kind": "statistics", "labels": sorted(labels)},
        [
            ("out_keys", out_total, _DTYPE),
            ("out_counts", out_total, _DTYPE),
            ("in_keys", in_total, _DTYPE),
            ("in_counts", in_total, _DTYPE),
        ],
    )
    for direction in ("out", "in"):
        runs = [Path(result[f"stats_{direction}"]) for result in results]
        spool = scratch / f"stats_{direction}.merged"
        with open(spool, "wb") as handle:
            for rows in _merge_runs(runs, _STAT_WIDTH, plan.io_elements):
                rows.tofile(handle)
        columns = [(f"{direction}_keys", 0), (f"{direction}_counts", 1)]
        _append_columns(writer, spool, _STAT_WIDTH, columns, plan.io_elements)
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

    Per direction, one global ``(node, seq)`` merge is spooled to scratch;
    the node degrees it passes accumulate into the index pointers (one
    O(nodes) int64 array, the documented floor), which precede the two
    adjacency columns read back from the spool in catalog order.
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
        runs = [Path(result[f"csr_{direction}"]) for result in results]
        spool = scratch / f"csr_{direction}.merged"
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        with open(spool, "wb") as handle:
            for rows in _merge_runs(runs, _CSR_WIDTH, plan.io_elements):
                rows.tofile(handle)
                nodes, counts = np.unique(rows[:, 0], return_counts=True)
                indptr[nodes + 1] += counts
        np.cumsum(indptr, out=indptr)
        writer.append(f"{direction}_indptr", indptr)
        del indptr
        columns = [(other_name, 3), (f"{direction}_labels", 2)]
        _append_columns(writer, spool, _CSR_WIDTH, columns, plan.io_elements)
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
    # The mapping lives for this pass only: its pages leave the RSS after.
    labels, segments = _route_rows(
        source, fmt, _map_arena(output / "vocabulary.arena"), run_dir, plan, total_triples
    )
    report["pass2_seconds"] = time.perf_counter() - started
    report["spill_runs"] = sum(len(runs) for runs in segments.values())

    started = time.perf_counter()
    # The statistics shard numbers labels in sorted order.
    stat_ids = {label: index for index, label in enumerate(sorted(labels))}
    tasks = [
        {
            "label": label,
            "label_id": label_id,
            "run_path": str(run_dir / f"{label_id:05d}.rows"),
            "run_rows": sum(segments[label_id]),
            "scratch": str(scratch),
            # Table order is label first-appearance order — identical to
            # the in-memory save's enumerate(store.labels()).
            "shard_path": str(output / "tables" / f"{label_id:05d}.shard"),
            "stat_label_id": stat_ids[label],
            "stat_stride": max(len(labels), 1),
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

    Parameters mirror ``gqbe build-index``: ``fmt`` is the
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
