"""Snapshot arrays are stored at the narrowest of int32 / int64 that holds them.

* every array of a built bundle and of a saved snapshot has the dtype
  the width rule gives (restated here, not imported): ids are int32,
  positions follow their row / edge / byte count, composite keys the
  product of their radixes — also with the int32 limit lowered so that
  one small graph mixes both widths;
* a snapshot whose shards are rewritten all-int64 (the layout written
  before shards were narrowed) answers, ingests and saves exactly as the
  narrow one;
* ids next to ``MAX_ENTITY_ID`` stay exact wherever they are narrowed or
  combined: the statistics' probes of base and ingested tables (the ids
  cast to int32, the columns int32 or int64), and a table's in-memory
  membership keys and the answer keys, which widen first;
* the shard writer refuses a chunk that its declared width cannot hold.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from graph_backings import copy_snapshot, random_multigraph
from repro.core.config import GQBEConfig
from repro.core.gqbe import GQBE
from repro.datasets.example_graph import figure1_excerpt
from repro.datasets.synthetic import FreebaseLikeGenerator
from repro.exceptions import SnapshotError
from repro.graph.knowledge_graph import Edge, KnowledgeGraph
from repro.graph.neighborhood import NeighborhoodColumns
from repro.graph.statistics import GraphStatistics
from repro.lattice.exploration import AnswerAccumulator
from repro.storage import shards
from repro.storage.shards import MANIFEST_NAME, ShardStreamWriter
from repro.storage.snapshot import GraphStore
from repro.storage.store import VerticalPartitionStore
from repro.storage.table import ColumnarEdgeTable
from repro.storage.vocabulary import MAX_ENTITY_ID

_HEADER = struct.Struct("<8sII")
_INT32_MAX = 2**31 - 1


def _align(offset: int) -> int:
    return (offset + 63) // 64 * 64


def _read_shard(path):
    """A shard file's header and arrays, parsed from the documented layout."""
    data = path.read_bytes()
    _magic, _version, length = _HEADER.unpack_from(data, 0)
    header = json.loads(data[_HEADER.size : _HEADER.size + length])
    base = _align(_HEADER.size + length)
    arrays = {}
    for name, spec in sorted(header["arrays"].items(), key=lambda item: item[1]["offset"]):
        arrays[name] = np.frombuffer(
            data, dtype=spec["dtype"], count=spec["count"], offset=base + spec["offset"]
        )
    return header, arrays


def _write_wide_shard(path, header, arrays) -> None:
    """Lay ``arrays`` out again with every integer array int64."""
    catalog = {}
    relative = 0
    for name, array in arrays.items():
        dtype = "u1" if array.dtype.itemsize == 1 else "<i8"
        relative = _align(relative)
        catalog[name] = {"offset": relative, "count": len(array), "dtype": dtype}
        relative += len(array) * np.dtype(dtype).itemsize
    header_bytes = json.dumps({**header, "arrays": catalog}, sort_keys=True).encode("utf-8")
    base = _align(_HEADER.size + len(header_bytes))
    data = bytearray(base + relative)
    _HEADER.pack_into(data, 0, b"GQBESHRD", 1, len(header_bytes))
    data[_HEADER.size : _HEADER.size + len(header_bytes)] = header_bytes
    for name, array in arrays.items():
        start = base + catalog[name]["offset"]
        wide = array.astype(catalog[name]["dtype"]).tobytes()
        data[start : start + len(wide)] = wide
    path.write_bytes(bytes(data))


def _shard_entries(manifest: dict) -> list[dict]:
    return [manifest["vocabulary"], manifest["graph"], *manifest["tables"]]


def _widen_snapshot(source, target):
    """A copy of ``source`` with every shard rewritten all-int64."""
    copy_snapshot(source, target)
    manifest = json.loads((target / MANIFEST_NAME).read_text())
    for entry in _shard_entries(manifest):
        path = target / entry["file"]
        header, arrays = _read_shard(path)
        header.pop("arrays")
        _write_wide_shard(path, header, arrays)
        entry["sha256"] = hashlib.sha256(path.read_bytes()).hexdigest()
        entry["bytes"] = path.stat().st_size
    (target / MANIFEST_NAME).write_text(json.dumps(manifest))
    return target


def _expected_dtypes(files: dict, limit: int) -> dict:
    """Per ``(file, array)``, the dtype the width rule gives."""

    def fits(bound: int) -> np.dtype:
        return np.dtype("<i4" if bound <= limit else "<i8")

    ids = np.dtype("<i4")  # MAX_ENTITY_ID = 2**31 - 1
    graph_header = files["graph.csr"][0]
    edges, labels = graph_header["edges"], len(graph_header["labels"])
    expected = {}
    for file, (header, arrays) in files.items():
        if file == "vocabulary.arena":
            rule = {"offsets": fits(len(arrays["blob"])), "sorted_ids": ids, "blob": np.dtype("u1")}
        elif file == "graph.csr":
            rule = {
                name: fits(edges) if name.endswith("indptr")
                else fits(labels) if name.endswith("labels")
                else ids
                for name in arrays
            }
        else:
            rows = fits(header["rows"])
            rule = {"subjects": ids, "objects": ids}
            if header["rows"]:
                rule.update({"object_keys": ids, "object_order": rows, "object_bounds": rows})
        assert sorted(rule) == sorted(arrays), file
        expected.update({(file, name): dtype for name, dtype in rule.items()})
    return expected


def _saved_files(directory) -> dict:
    manifest = json.loads((directory / MANIFEST_NAME).read_text())
    return {
        entry["file"]: _read_shard(directory / entry["file"])
        for entry in _shard_entries(manifest)
    }


def _graphs():
    yield "figure1", figure1_excerpt()
    for seed in range(4):
        base, delta, _nodes = random_multigraph(seed, hub_leaves=6 * (seed % 2))
        yield f"multigraph{seed}", KnowledgeGraph(base + delta)


def _dtypes(files: dict) -> dict:
    return {
        (file, name): np.dtype(array.dtype)
        for file, (_header, arrays) in files.items()
        for name, array in arrays.items()
    }


class TestWidthRule:
    @pytest.mark.parametrize("limit", [_INT32_MAX, 40])
    def test_built_and_saved_arrays_have_the_rule_dtypes(self, limit, monkeypatch, tmp_path):
        """At the real int32 limit every array of these graphs is int32
        (the blob bytes); at a limit of 40 the positions and keys past it
        are int64 and the rest stay int32, in memory and on disk alike."""
        monkeypatch.setattr(
            shards, "int_dtype", lambda bound: "<i4" if bound <= limit else "<i8"
        )
        widths = set()
        for name, graph in _graphs():
            built = GraphStore.build(graph)
            built.save(tmp_path / name)
            built_files, saved_files = built._reader._files, _saved_files(tmp_path / name)
            assert _dtypes(built_files) == _expected_dtypes(built_files, limit), name
            assert _dtypes(saved_files) == _expected_dtypes(saved_files, limit), name
            widths.update(_dtypes(saved_files).values())
        assert widths == (
            {np.dtype("<i4"), np.dtype("u1")}
            if limit == _INT32_MAX
            else {np.dtype("<i4"), np.dtype("<i8"), np.dtype("u1")}
        )

    def test_mixed_widths_answer_like_narrow_ones(self, monkeypatch, tmp_path):
        graph = figure1_excerpt()
        query = ("Jerry Yang", "Yahoo!")
        narrow = GQBE(graph).query(query, k=10).answers
        monkeypatch.setattr(shards, "int_dtype", lambda bound: "<i4" if bound <= 40 else "<i8")
        GraphStore.build(graph).save(tmp_path / "mixed")
        assert GQBE(graph).query(query, k=10).answers == narrow
        assert GQBE.from_snapshot(tmp_path / "mixed").query(query, k=10).answers == narrow

    def test_int_dtype_boundary(self):
        assert shards.int_dtype(_INT32_MAX) == "<i4"
        assert shards.int_dtype(_INT32_MAX + 1) == "<i8"
        assert shards.ID_DTYPE == "<i4"


class TestAllInt64Snapshot:
    """A snapshot laid out all-int64 still opens and answers the same."""

    @pytest.fixture(scope="class")
    def snapshots(self, tmp_path_factory):
        dataset = FreebaseLikeGenerator(seed=5, scale=0.2).generate()
        root = tmp_path_factory.mktemp("widths")
        GraphStore.build(dataset.graph).save(root / "narrow")
        _widen_snapshot(root / "narrow", root / "wide")
        return dataset, root

    def _systems(self, root):
        config = GQBEConfig(mqg_size=8, k_prime=25, max_join_rows=100_000)
        return (
            GQBE.from_snapshot(root / "narrow", config=config),
            GQBE.from_snapshot(root / "wide", config=config),
        )

    def test_the_rewrite_is_all_int64(self, snapshots):
        _dataset, root = snapshots
        assert set(_dtypes(_saved_files(root / "wide")).values()) == {
            np.dtype("<i8"),
            np.dtype("u1"),
        }
        wide = GraphStore.load(root / "wide")
        assert wide.graph.out_objects.dtype == np.int64

    def test_answers_ingest_and_save_match(self, snapshots, tmp_path):
        dataset, root = snapshots
        narrow, wide = self._systems(root)
        queries = [tuple(dataset.table(name)[0]) for name in dataset.table_names()[:3]]
        for query in queries:
            assert wide.query(query, k=10).answers == narrow.query(query, k=10).answers
        subject = queries[0][0]
        triples = [(subject, "founded", "Fresh Company"), ("Fresh Company", "located_in", subject)]
        assert wide.ingest(triples) == narrow.ingest(triples)
        for query in queries:
            assert wide.query(query, k=10).answers == narrow.query(query, k=10).answers
        # A save of either writes the narrow layout, byte for byte.
        narrow.graph_store.save(tmp_path / "from_narrow")
        wide.graph_store.save(tmp_path / "from_wide")
        assert (tmp_path / "from_narrow" / MANIFEST_NAME).read_bytes() == (
            tmp_path / "from_wide" / MANIFEST_NAME
        ).read_bytes()


_TOP = MAX_ENTITY_ID
#: At int32, ``_WIDE * 4 + 1`` wraps to 5 and ``_TOP << 32`` is 0.
_WIDE = 2**30 + 1
#: Label ``r1``'s rows, up to the top of the id range; ``r0`` has one low row.
_ROWS = {"r0": [(0, 1)], "r1": [(1, 5), (_WIDE, 5), (_TOP, _WIDE), (_TOP, _TOP)]}
_NODES = [0, 1, 5, _WIDE, _TOP - 1, _TOP]


class _Tables:
    """A store loader over prebuilt tables."""

    def __init__(self, tables: dict) -> None:
        self._tables = tables

    def load_table(self, label: str) -> ColumnarEdgeTable:
        return self._tables[label]


def _wide_statistics(dtype) -> tuple[GraphStatistics, VerticalPartitionStore]:
    """Statistics over :data:`_ROWS`, the id columns at ``dtype``; a term
    is its id's decimal string."""
    tables = {}
    for label, rows in _ROWS.items():
        columns = np.array(rows, dtype=dtype)
        tables[label] = ColumnarEdgeTable.from_mapped(label, columns[:, 0], columns[:, 1])
    graph = SimpleNamespace()
    store = VerticalPartitionStore(
        graph,
        SimpleNamespace(id_of=int),
        _Tables(tables),
        {label: len(rows) for label, rows in _ROWS.items()},
    )
    graph.has_edge = lambda subject, label, obj: store.has_label(label) and store.table(
        label
    ).has_row(int(subject), int(obj))
    return GraphStatistics(store), store


def _assert_counts(statistics: GraphStatistics, rows: dict) -> None:
    """Eq. 2 / Eq. 4 against counts over ``rows``: per edge for every id
    pair, and for a neighborhood of every row plus one of a label no table
    holds, its ids an int64 column."""
    total = sum(len(label_rows) for label_rows in rows.values())
    assert statistics.total_edges == total
    for label, label_rows in rows.items():
        for subject in _NODES:
            for obj in _NODES:
                degree = (
                    sum(row[0] == subject for row in label_rows)
                    + sum(row[1] == obj for row in label_rows)
                    - ((subject, obj) in label_rows)
                )
                edge = Edge(str(subject), label, str(obj))
                assert statistics.participation_degree(edge) == max(degree, 1), edge
    labels = [*rows, "unseen"]
    edges = [
        (subject, label_id, obj)
        for label_id, label in enumerate(labels)
        for subject, obj in rows.get(label, [(1, _TOP)])
    ]
    position = {node: index for index, node in enumerate(_NODES)}
    columns = NeighborhoodColumns(
        term_of=str,
        label_strings=labels,
        node_ids=np.array(_NODES, dtype=np.int64),
        node_distances=np.zeros(len(_NODES), dtype=np.int64),
        near_count=len(_NODES),
        subjects=np.array([position[edge[0]] for edge in edges]),
        labels=np.array([edge[1] for edge in edges]),
        objects=np.array([position[edge[2]] for edge in edges]),
    )
    expected = []
    for subject, label_id, obj in edges:
        label_rows = rows.get(labels[label_id], [])
        degree = sum(row[0] == subject for row in label_rows) + sum(
            row[1] == obj for row in label_rows
        )
        ief = math.log(total / max(len(label_rows), 1))
        expected.append(ief / max(degree - 1, 1))
    assert statistics.column_weights(columns).tolist() == expected


class TestIdsWidenBeforeTheyCombine:
    """int32 ids next to MAX_ENTITY_ID give exact counts and int64 keys."""

    def test_statistics_base_keys(self):
        """The statistics probe a snapshot's tables, int32 or (written
        before shards were narrowed) int64, with ids cast to int32: ids at
        ``2**30 + 1`` and ``MAX_ENTITY_ID`` count their own rows only."""
        for dtype in (np.int32, np.int64):
            statistics, _store = _wide_statistics(dtype)
            _assert_counts(statistics, _ROWS)

    def test_statistics_overlay_keys(self):
        """After an ingest the statistics probe the table it rebuilt in
        memory (no persisted object index) and one it created, with rows at
        the top of the id range."""
        for dtype in (np.int32, np.int64):
            statistics, store = _wide_statistics(dtype)
            store.ingest_rows("r1", [_TOP, 0], [1, _TOP])
            store.ingest_rows("r_new", [_TOP], [_TOP])
            statistics.finish_mutation()
            _assert_counts(
                statistics,
                {**_ROWS, "r1": [*_ROWS["r1"], (_TOP, 1), (0, _TOP)], "r_new": [(_TOP, _TOP)]},
            )

    def test_table_pair_keys(self):
        """The membership keys a table computes from its sorted int32
        columns are int64 and ascend with the rows, with no sort."""
        top = MAX_ENTITY_ID
        table = ColumnarEdgeTable.from_mapped(
            "r",
            np.array([3, top - 1, top], dtype=np.int32),
            np.array([top - 1, top, 2], dtype=np.int32),
        )
        subjects = np.array([top - 1, top, 3, top, 0], dtype=np.int32)
        objects = np.array([top, 2, top - 1, top - 1, 2], dtype=np.int32)
        assert table.contains_pairs(subjects, objects).tolist() == [True, True, True, False, False]
        stride = top + 1
        assert table._row_keys.dtype == np.int64
        assert table._row_keys.tolist() == [
            3 * stride + top - 1,
            (top - 1) * stride + top,
            top * stride + 2,
        ]

    def test_narrow_pair_keys_against_wide_probes(self):
        """int32 columns whose keys fit int32; a probe key past int32
        matches nothing."""
        table = ColumnarEdgeTable.from_mapped(
            "r", np.array([0, 1], dtype=np.int32), np.array([1, 0], dtype=np.int32)
        )
        subjects = np.array([0, 1, MAX_ENTITY_ID, 2**31 - 2], dtype=np.int32)
        objects = np.array([1, 0, 1, 0], dtype=np.int32)
        assert table.contains_pairs(subjects, objects).tolist() == [True, True, False, False]
        assert table._row_keys.tolist() == [1, 2]

    def test_subject_probe_against_wide_keys(self):
        """An int32 subject column holding ``MAX_ENTITY_ID``: an int64
        probe key past int32 matches no row on either search side."""
        top = MAX_ENTITY_ID
        table = ColumnarEdgeTable.from_mapped(
            "r", np.array([0, top, top], dtype=np.int32), np.array([1, 0, 1], dtype=np.int32)
        )
        keys = np.array([top, 2**31, 2**32 + top, 0], dtype=np.int64)
        counts, starts = table.probe_subject(keys)
        assert counts.tolist() == [2, 0, 0, 1]
        probe_idx, objects = table.expand_subject(counts, starts)
        assert probe_idx.tolist() == [0, 0, 3] and objects.tolist() == [0, 1, 1]

    def test_answer_keys(self):
        accumulator = AnswerAccumulator.__new__(AnswerAccumulator)
        accumulator._radix = MAX_ENTITY_ID + 1
        accumulator._arity = 2
        firsts = np.array([MAX_ENTITY_ID, 0, MAX_ENTITY_ID - 1], dtype=np.int32)
        seconds = np.array([MAX_ENTITY_ID - 1, MAX_ENTITY_ID, 0], dtype=np.int32)
        keys = accumulator._answer_keys([firsts, seconds])
        assert keys.dtype == np.int64
        radix = MAX_ENTITY_ID + 1
        assert keys.tolist() == [
            first * radix + second for first, second in zip(firsts.tolist(), seconds.tolist())
        ]
        assert accumulator._entity_ids(keys).tolist() == [firsts.tolist(), seconds.tolist()]


class TestWriterWidthGuard:
    def test_a_chunk_past_its_declared_width_is_refused(self, tmp_path):
        writer = ShardStreamWriter(tmp_path / "x.shard", {"kind": "test"}, [("ids", 4, "<i4")])
        writer.append("ids", np.array([0, _INT32_MAX], dtype=np.int64))
        with pytest.raises(SnapshotError, match="outside its declared dtype"):
            writer.append("ids", np.array([1, _INT32_MAX + 1], dtype=np.int64))
        writer.abort()

    def test_negative_and_fractional_values_are_refused(self, tmp_path):
        writer = ShardStreamWriter(tmp_path / "y.shard", {"kind": "test"}, [("ids", 2, "<i4")])
        with pytest.raises(SnapshotError, match="outside its declared dtype"):
            writer.append("ids", np.array([-(2**40)], dtype=np.int64))
        with pytest.raises(SnapshotError, match="outside its declared dtype"):
            writer.append("ids", np.array([0.5]))
        writer.abort()

    def test_in_range_chunks_are_written_narrow(self, tmp_path):
        path = tmp_path / "z.shard"
        writer = ShardStreamWriter(path, {"kind": "test"}, [("ids", 3, "<i4"), ("wide", 1, "<i8")])
        writer.append("ids", np.array([0, _INT32_MAX], dtype=np.int64))
        writer.append("ids", np.array([7], dtype=np.int32))
        writer.append("wide", np.array([2**40], dtype=np.int64))
        writer.close()
        _header, arrays = _read_shard(path)
        assert arrays["ids"].dtype == np.dtype("<i4")
        assert arrays["ids"].tolist() == [0, _INT32_MAX, 7]
        assert arrays["wide"].tolist() == [2**40]
