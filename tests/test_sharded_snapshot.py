"""Tests for the snapshot's shards (``storage/shards.py``).

Pins the contracts the mmap path must guarantee:

* a snapshot-mapped system answers **byte-identically** to the cold
  build;
* warm starts are *partial* — only the manifest is read up front, and a
  query maps only the label shards its plan actually probes (asserted
  via the reader's lazy-load counters);
* an ingest gives a label a new table over the mapped rows followed by
  the new ones, and never writes through to the snapshot files;
* the vocabulary reopens as a :class:`MappedVocabulary` string arena and
  the graph as a :class:`MappedKnowledgeGraph` CSR view;
* every corruption mode — truncated shard, checksum mismatch, missing
  shard file, a manifest carrying a foreign magic, a truncated
  vocabulary arena, out-of-range arena offsets, a non-monotonic CSR
  indptr, an object order that no longer sorts the objects or that
  names a row twice — raises
  ``SnapshotError`` naming the offending path (the label, for the
  object order)
  (``tests/test_snapshot.py`` damages every file kind wholesale).
"""

from __future__ import annotations

import hashlib
import json
import os
import struct

import numpy as np
import pytest

from graph_backings import copy_snapshot, row_order
from repro.core.config import GQBEConfig
from repro.core.gqbe import GQBE
from repro.datasets.synthetic import FreebaseLikeGenerator
from repro.exceptions import SnapshotError
from repro.graph.knowledge_graph import KnowledgeGraph
from repro.graph.mapped import MappedKnowledgeGraph
from repro.graph.neighborhood import neighborhood_graph
from repro.storage.shards import MANIFEST_NAME, ShardedSnapshotReader
from repro.storage.snapshot import GraphStore, read_snapshot_meta
from repro.storage.vocabulary import MappedVocabulary


@pytest.fixture(scope="module")
def dataset():
    return FreebaseLikeGenerator(seed=5, scale=0.2).generate()


@pytest.fixture(scope="module")
def config():
    return GQBEConfig(mqg_size=8, k_prime=25, max_join_rows=100_000)


@pytest.fixture(scope="module")
def snapshot_dir(dataset, tmp_path_factory):
    directory = tmp_path_factory.mktemp("snap") / "freebase.snapdir"
    GraphStore.build(dataset.graph).save(directory)
    return directory


def _answer_key(result):
    return [
        (a.rank, a.entities, a.score, a.structure_score, a.content_score)
        for a in result.answers
    ]


def _patch_shard_array(path, name, transform):
    """Rewrite one named array inside a binary shard file in place."""
    data = bytearray(path.read_bytes())
    _magic, _version, header_length = struct.unpack_from("<8sII", data, 0)
    header = json.loads(bytes(data[16 : 16 + header_length]))
    base = (16 + header_length + 63) // 64 * 64
    spec = header["arrays"][name]
    dtype = np.dtype(spec.get("dtype", "<i8"))
    start = base + spec["offset"]
    end = start + spec["count"] * dtype.itemsize
    array = np.frombuffer(bytes(data[start:end]), dtype=dtype).copy()
    transform(array)
    data[start:end] = array.tobytes()
    path.write_bytes(bytes(data))


def _refresh_manifest_sha(directory, *keys):
    """Recompute a shard's manifest checksum after a deliberate rewrite.

    Structural-corruption tests must get *past* the checksum gate to
    prove the reader also validates what the bytes claim.
    """
    manifest = json.loads((directory / MANIFEST_NAME).read_text())
    entry = manifest
    for key in keys:
        entry = entry[key]
    shard = directory / entry["file"]
    entry["sha256"] = hashlib.sha256(shard.read_bytes()).hexdigest()
    entry["bytes"] = shard.stat().st_size
    (directory / MANIFEST_NAME).write_text(json.dumps(manifest))


class TestRoundTrip:
    def test_byte_identical_to_cold(self, dataset, config, snapshot_dir):
        cold = GQBE(dataset.graph, config=config)
        warm = GQBE(config=config, graph_store=GraphStore.load(snapshot_dir))
        for table_name in dataset.table_names()[:2]:
            query_tuple = tuple(dataset.table(table_name)[0])
            reference = _answer_key(cold.query(query_tuple, k=10))
            assert _answer_key(warm.query(query_tuple, k=10)) == reference

    def test_shape_and_meta(self, dataset, snapshot_dir):
        loaded = GraphStore.load(snapshot_dir)
        meta = read_snapshot_meta(snapshot_dir)
        assert meta["num_edges"] == dataset.graph.num_edges
        assert meta["num_labels"] == dataset.graph.num_labels
        # Shape questions are answered from the manifest without opening
        # a single shard.
        assert loaded.store.num_rows == dataset.graph.num_edges
        assert loaded.store.num_tables == dataset.graph.num_labels
        assert loaded.lazy_report()["tables_opened"] == 0


class TestRetiredEngineFlags:
    """``GQBEConfig`` once had two engine flags, ``intern_entities`` and
    ``columnar``; a snapshot written then carries them in its manifest
    ``meta``."""

    def test_config_refuses_the_flags(self):
        for flag in ("intern_entities", "columnar"):
            with pytest.raises(TypeError):
                GQBEConfig(**{flag: False})

    def test_a_snapshot_carrying_them_loads_and_answers_the_same(
        self, dataset, config, snapshot_dir, tmp_path
    ):
        old = copy_snapshot(snapshot_dir, tmp_path / "old.snapdir")
        manifest = json.loads((old / MANIFEST_NAME).read_text())
        manifest["meta"].update(intern_entities=True, columnar=True)
        (old / MANIFEST_NAME).write_text(json.dumps(manifest))

        patched = GQBE.from_snapshot(old, config)
        unpatched = GQBE.from_snapshot(snapshot_dir, config)
        for table_name in dataset.table_names()[:2]:
            query_tuple = tuple(dataset.table(table_name)[0])
            assert _answer_key(patched.query(query_tuple, k=10)) == _answer_key(
                unpatched.query(query_tuple, k=10)
            )


class TestV3MappedSections:
    """Vocabulary arena + graph CSR are mapped shards."""

    def test_vocabulary_and_graph_are_mapped(self, dataset, config, snapshot_dir):
        bundle = GraphStore.load(snapshot_dir)
        system = GQBE(config=config, graph_store=bundle)
        assert isinstance(system.graph, MappedKnowledgeGraph)
        assert isinstance(system.store.vocabulary, MappedVocabulary)
        report = bundle.lazy_report()
        assert report["format"] == "v7"
        assert "vocabulary" in report["sections_loaded"]
        assert "graph" in report["sections_loaded"]
        assert (snapshot_dir / "vocabulary.arena").exists()
        assert (snapshot_dir / "graph.csr").exists()

    def test_warm_start_is_lazy(self, snapshot_dir):
        bundle = GraphStore.load(snapshot_dir)
        report = bundle.lazy_report()
        assert report["sections_loaded"] == [] and report["tables_opened"] == 0

    def test_mapped_graph_matches_built_graph(self, dataset, snapshot_dir):
        graph = dataset.graph
        mapped = GraphStore.load(snapshot_dir).graph
        assert mapped.num_nodes == graph.num_nodes
        assert mapped.num_edges == graph.num_edges
        assert mapped.num_labels == graph.num_labels
        assert mapped.label_counts() == graph.label_counts()
        assert set(mapped.nodes) == set(graph.nodes)
        some_edges = list(graph.edges)[:25]
        for edge in some_edges:
            assert mapped.has_edge(*edge)
            assert edge in mapped
        assert not mapped.has_edge("no-such", "nope", "nothing")
        # Node ids are insertion order, and every per-node adjacency list
        # holds the node's edges sorted by (label, other).
        spec = row_order(graph, mapped)
        for node in list(graph.nodes)[:10]:
            assert mapped.has_node(node)
            assert mapped.incident_edges(node) == spec.incident_edges(node)
            assert mapped.neighbors(node) == graph.neighbors(node)
        assert list(mapped.nodes) == list(graph.nodes)
        for node in graph.nodes:
            assert mapped.out_edges(node) == spec.out_edges(node)
            assert mapped.in_edges(node) == spec.in_edges(node)

    def test_mapped_vocabulary_contract(self, snapshot_dir):
        vocabulary = GraphStore.load(snapshot_dir)._vocabulary_from_arena()
        terms = list(vocabulary)
        assert len(terms) == len(vocabulary)
        for index in (0, len(terms) // 2, len(terms) - 1):
            assert vocabulary.term_of(index) == terms[index]
            assert vocabulary.id_of(terms[index]) == index
            assert terms[index] in vocabulary
        assert vocabulary.id_of("definitely-not-in-the-graph") is None
        assert "definitely-not-in-the-graph" not in vocabulary
        assert vocabulary.decode_row((0, 1)) == (terms[0], terms[1])
        # Interning an existing term is stable; a new term goes to the
        # overlay past the mapped range (the snapshot is untouched).
        assert vocabulary.intern(terms[3]) == 3
        new_id = vocabulary.intern("overlay-term")
        assert new_id == len(terms)
        assert vocabulary.term_of(new_id) == "overlay-term"
        assert vocabulary.id_of("overlay-term") == new_id

    def test_v3_resaves_stay_self_contained(
        self, dataset, config, snapshot_dir, tmp_path
    ):
        """Resaving a mapped bundle writes the same bytes it was loaded
        from, and the copy answers byte-identically."""
        query_tuple = tuple(dataset.table(dataset.table_names()[0])[0])
        reference = _answer_key(
            GQBE(config=config, graph_store=GraphStore.load(snapshot_dir)).query(
                query_tuple, k=5
            )
        )
        target = tmp_path / "resaved"
        GraphStore.load(snapshot_dir).save(target)
        assert (target / MANIFEST_NAME).read_bytes() == (
            snapshot_dir / MANIFEST_NAME
        ).read_bytes()
        system = GQBE.from_snapshot(target, config=config)
        assert _answer_key(system.query(query_tuple, k=5)) == reference

    def test_a_second_save_writes_new_files(self, figure1_graph, tmp_path):
        """Saving into a used directory creates every shard
        anew instead of truncating the old file: a reader holding one
        keeps its bytes.  The old files stay open, so no inode is free
        for the filesystem to hand back."""
        path = tmp_path / "snap"
        store = GraphStore.build(figure1_graph)
        store.save(path)
        old = {
            item: item.open("rb")
            for item in sorted(path.rglob("*"))
            if item.is_file() and item.name != MANIFEST_NAME
        }
        assert {item.name for item in old} >= {"vocabulary.arena", "graph.csr"}
        try:
            before = {item: handle.read() for item, handle in old.items()}
            store.save(path)
            for item, handle in old.items():
                assert item.stat().st_ino != os.fstat(handle.fileno()).st_ino, item
                handle.seek(0)
                assert handle.read() == before[item] == item.read_bytes()
        finally:
            for handle in old.values():
                handle.close()

    def test_saving_onto_the_mapped_directory_is_refused(
        self, figure1_graph, tmp_path, fresh_python
    ):
        """The bundle maps the directory's shards, so rewriting them in place
        would truncate pages it reads (SIGBUS): refused before a byte is
        written.  In a child process, so a crash fails this test only."""
        path = tmp_path / "snap"
        GraphStore.build(figure1_graph).save(path)
        before = {item: item.read_bytes() for item in sorted(path.rglob("*")) if item.is_file()}
        script = (
            "import sys\n"
            "from repro.core.gqbe import GQBE\n"
            "from repro.exceptions import SnapshotError\n"
            "system = GQBE.from_snapshot(sys.argv[1])\n"
            "system.ingest([('Jerry Yang', 'founded', 'Yahoo! Labs')])\n"
            "try:\n"
            "    system.graph_store.save(sys.argv[1])\n"
            "except SnapshotError as error:\n"
            "    print('refused:', error)\n"
            "print(len(system.query(('Jerry Yang', 'Yahoo!'), k=5).answers))\n"
        )
        refused, answers = fresh_python(script, str(path)).splitlines()
        assert refused.startswith("refused:") and "maps its shards" in refused
        assert int(answers) > 0
        after = {item: item.read_bytes() for item in sorted(path.rglob("*")) if item.is_file()}
        assert after == before

    def test_meta_reads_without_touching_shards(self, dataset, snapshot_dir):
        meta = read_snapshot_meta(snapshot_dir)
        assert meta["num_edges"] == dataset.graph.num_edges
        assert meta["num_nodes"] == dataset.graph.num_nodes


    def test_cold_query_vocabulary_searches_do_not_grow_with_the_neighborhood(
        self, tmp_path, monkeypatch
    ):
        """``MappedVocabulary._find_mapped`` is a binary search written in
        Python.  A cold query makes a few per query entity and one per MQG
        node; what it must not do is make some for every neighborhood edge
        (the statistics weigh those on their id columns)."""
        labels = [f"l{i}" for i in range(4)]
        hub = [("hub", labels[i % 4], f"spoke{i}") for i in range(400)]
        leaf = [("leaf", label, f"twig{i}") for i, label in enumerate(labels)]
        path = tmp_path / "star.snapdir3"
        GraphStore.build(KnowledgeGraph(hub + leaf)).save(path)

        searches = []
        find_mapped = MappedVocabulary._find_mapped
        monkeypatch.setattr(
            MappedVocabulary,
            "_find_mapped",
            lambda self, term: searches.append(term) or find_mapped(self, term),
        )
        made, sizes = {}, {}
        mqg_size = 4
        for entity in ("hub", "leaf"):
            system = GQBE.from_snapshot(path, GQBEConfig(mqg_size=mqg_size))
            searches.clear()
            result = system.query((entity,), k=5)
            made[entity] = len(searches)
            assert result.mqg.num_edges > 0
            sizes[entity] = neighborhood_graph(system.graph, (entity,), d=2).num_edges
        assert sizes["hub"] == 100 * sizes["leaf"]
        # Per query entity: validation, the BFS seed, the explorer's own
        # lookups; per MQG node (at most r + 1 of them): one.
        assert made["hub"] == made["leaf"] <= 4 + (mqg_size + 1)


class TestNeighborIds:
    """``MappedKnowledgeGraph.neighbor_ids`` (what NESS's refinement reads
    through ``neighbors()``) is a list: the node's out list, then its in
    list, each the CSR slice in CSR order and then its ingested edges in
    ingest order."""

    @staticmethod
    def _spec(graph, node_id, ingested):
        out_ids: list[int] = []
        in_ids: list[int] = []
        if node_id < len(graph.out_indptr) - 1:
            out = graph.out_indptr
            out_ids = [int(graph.out_objects[p]) for p in range(out[node_id], out[node_id + 1])]
            inc = graph.in_indptr
            in_ids = [int(graph.in_subjects[p]) for p in range(inc[node_id], inc[node_id + 1])]
        out_ids += [o for s, o in ingested if s == node_id]
        in_ids += [s for s, o in ingested if o == node_id]
        return out_ids + in_ids

    def _check_every_node(self, graph, ingested):
        assert graph.out_objects.dtype == np.int32
        assert graph.in_subjects.dtype == np.int32
        for node_id in range(graph.num_nodes):
            ids = graph.neighbor_ids(node_id)
            assert type(ids) is list
            assert all(type(neighbor) is int for neighbor in ids)
            assert ids == self._spec(graph, node_id, ingested), node_id

    def test_built_graph(self, figure1_graph):
        self._check_every_node(GraphStore.build(figure1_graph).graph, [])

    def test_after_an_ingest(self, figure1_graph):
        bundle = GraphStore.build(figure1_graph)
        graph = bundle.graph
        base_nodes = graph.num_nodes
        triples = [
            ("Jerry Yang", "advises", "David Filo"),
            ("Jerry Yang", "mentors", "Ada Newcomer"),
            ("Ada Newcomer", "founded", "Yahoo!"),
        ]
        assert bundle.ingest(triples)["applied"] == 3
        assert graph.num_nodes == base_nodes + 1
        ingested = [(graph.node_id(s), graph.node_id(o)) for s, _, o in triples]
        assert ingested[1][1] >= base_nodes
        self._check_every_node(graph, ingested)


class TestLazyLoading:
    def test_query_maps_only_probed_shards(self, dataset, config, snapshot_dir):
        store_bundle = GraphStore.load(snapshot_dir)
        system = GQBE(config=config, graph_store=store_bundle)
        assert store_bundle.lazy_report()["tables_opened"] == 0
        query_tuple = tuple(dataset.table(dataset.table_names()[0])[0])
        system.query(query_tuple, k=5)
        report = store_bundle.lazy_report()
        assert 0 < report["tables_opened"] < report["tables_total"]
        # The opened labels are real labels of the graph, and nothing
        # was opened twice.
        assert len(set(report["opened_labels"])) == report["tables_opened"]

    def test_statistics_open_only_what_the_neighborhood_touches(
        self, dataset, config, snapshot_dir
    ):
        """Weighing ``H_t`` probes the tables of its labels: a cold MQG
        discovery maps the vocabulary, the graph and those tables, and no
        other file."""
        bundle = GraphStore.load(snapshot_dir)
        system = GQBE(config=config, graph_store=bundle)
        query_tuple = tuple(dataset.table(dataset.table_names()[0])[0])
        system.discover_query_graph(query_tuple)
        report = bundle.lazy_report()
        assert sorted(report["sections_loaded"]) == ["graph", "vocabulary"]
        columns = neighborhood_graph(system.graph, query_tuple, d=config.d).columns
        labels = {columns.label_strings[label] for label in columns.labels.tolist()}
        assert report["opened_labels"] and set(report["opened_labels"]) <= labels

    def test_cardinality_is_shard_free(self, snapshot_dir):
        bundle = GraphStore.load(snapshot_dir)
        store = bundle.store
        rows = {label: store.cardinality(label) for label in store.labels()}
        assert sum(rows.values()) == store.num_rows
        assert bundle.lazy_report()["tables_opened"] == 0

    def test_ingest_replaces_a_mapped_table_and_leaves_its_shard(self, snapshot_dir):
        bundle = GraphStore.load(snapshot_dir)
        store = bundle.store
        label = next(iter(store.labels()))
        table = store.table(label)
        before_rows = table.rows()
        shard_bytes = {
            path: path.read_bytes()
            for path in (snapshot_dir / "tables").iterdir()
        }
        bundle.ingest([("Ingested subject", label, "Ingested object")])
        ids = store.vocabulary.id_of
        row = (ids("Ingested subject"), ids("Ingested object"))
        ingested = store.table(label)
        assert ingested.rows() == before_rows + [row]
        assert ingested.has_row(*row)
        # The mapped table is left as it was, and so are the snapshot files.
        assert table.rows() == before_rows and not table.has_row(*row)
        for path, original in shard_bytes.items():
            assert path.read_bytes() == original

    def test_reader_counts_are_exposed(self, snapshot_dir):
        reader = ShardedSnapshotReader(snapshot_dir)
        assert reader.tables_opened == 0
        label = next(iter(reader.label_rows()))
        table = reader.load_table(label)
        assert len(table) == reader.label_rows()[label]
        assert reader.tables_opened == 1 and reader.opened_labels == [label]


class TestCorruptionPaths:
    """Satellite: every corruption mode raises SnapshotError naming the
    offending path."""

    def test_truncated_shard(self, snapshot_dir, tmp_path):
        broken = copy_snapshot(snapshot_dir, tmp_path / "truncated")
        manifest = json.loads((broken / MANIFEST_NAME).read_text())
        entry = manifest["tables"][0]
        shard = broken / entry["file"]
        shard.write_bytes(shard.read_bytes()[:24])
        with pytest.raises(SnapshotError, match=entry["file"].split("/")[-1]):
            GraphStore.load(broken).store.table(entry["label"])

    def test_shard_checksum_mismatch(self, snapshot_dir, tmp_path):
        broken = copy_snapshot(snapshot_dir, tmp_path / "bitrot")
        manifest = json.loads((broken / MANIFEST_NAME).read_text())
        entry = manifest["tables"][0]
        shard = broken / entry["file"]
        data = bytearray(shard.read_bytes())
        data[-1] ^= 0xFF
        shard.write_bytes(bytes(data))
        with pytest.raises(SnapshotError) as excinfo:
            GraphStore.load(broken).store.table(entry["label"])
        assert "checksum mismatch" in str(excinfo.value)
        assert entry["file"].split("/")[-1] in str(excinfo.value)

    def test_missing_shard_file(self, snapshot_dir, tmp_path):
        broken = copy_snapshot(snapshot_dir, tmp_path / "missing")
        manifest = json.loads((broken / MANIFEST_NAME).read_text())
        entry = manifest["tables"][0]
        (broken / entry["file"]).unlink()
        with pytest.raises(SnapshotError, match="cannot read") as excinfo:
            GraphStore.load(broken).store.table(entry["label"])
        assert entry["file"].split("/")[-1] in str(excinfo.value)

    def test_manifest_with_foreign_magic(self, snapshot_dir, tmp_path):
        broken = copy_snapshot(snapshot_dir, tmp_path / "wrongmagic")
        manifest = json.loads((broken / MANIFEST_NAME).read_text())
        manifest["magic"] = "GQBESNAP"
        (broken / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="not a snapshot manifest") as excinfo:
            GraphStore.load(broken)
        assert MANIFEST_NAME in str(excinfo.value)

    def test_future_manifest_version(self, snapshot_dir, tmp_path):
        broken = copy_snapshot(snapshot_dir, tmp_path / "future")
        manifest = json.loads((broken / MANIFEST_NAME).read_text())
        manifest["format_version"] = 99
        (broken / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="format version 99"):
            GraphStore.load(broken)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda tables: tables[0].update(rows="12"),
            lambda tables: tables[0].update(rows=-1),
            lambda tables: tables[0].pop("rows"),
            lambda tables: tables[0].pop("label"),
            lambda tables: tables.append("not an entry"),
            lambda tables: tables[0].pop("file"),
            lambda tables: tables[0].update(file="/etc/passwd"),
            lambda tables: tables[0].update(file="../other/tables/00000.shard"),
            lambda tables: tables[0].update(sha256="abc123"),
            lambda tables: tables[0].update(bytes="4096"),
        ],
        ids=[
            "rows-string",
            "rows-negative",
            "rows-missing",
            "label-missing",
            "not-a-dict",
            "file-missing",
            "file-absolute",
            "file-outside",
            "sha256-short",
            "bytes-string",
        ],
    )
    def test_malformed_table_catalog(self, snapshot_dir, tmp_path, damage):
        """The table rows are the statistics' label counts and |E|, and
        each entry names the shard a probe maps, so a catalog that cannot
        say them is refused at open, not mid-query."""
        broken = copy_snapshot(snapshot_dir, tmp_path / "badtables")
        manifest = json.loads((broken / MANIFEST_NAME).read_text())
        damage(manifest["tables"])
        (broken / MANIFEST_NAME).write_text(json.dumps(manifest))
        for entry_point in (GraphStore.load, read_snapshot_meta):
            with pytest.raises(SnapshotError, match="malformed table catalog"):
                entry_point(broken)

    @pytest.mark.parametrize(
        "name, damage",
        [
            ("vocabulary", lambda entry: entry.clear()),
            ("graph", lambda entry: entry.update(file="../other/graph.csr")),
            ("vocabulary", lambda entry: entry.update(file="/srv/vocabulary.arena")),
            ("graph", lambda entry: entry.update(sha256=entry["sha256"].upper())),
            ("vocabulary", lambda entry: entry.update(bytes=None)),
        ],
        ids=[
            "vocabulary-empty",
            "graph-outside",
            "vocabulary-absolute",
            "graph-sha256-upper",
            "vocabulary-bytes-null",
        ],
    )
    def test_malformed_section_entry(self, snapshot_dir, tmp_path, name, damage):
        """The vocabulary and graph entries are checked at open as the
        table entries are: a file inside the directory, its digest, its
        size."""
        broken = copy_snapshot(snapshot_dir, tmp_path / "badsection")
        manifest = json.loads((broken / MANIFEST_NAME).read_text())
        damage(manifest[name])
        (broken / MANIFEST_NAME).write_text(json.dumps(manifest))
        for entry_point in (GraphStore.load, read_snapshot_meta):
            with pytest.raises(SnapshotError, match=f"malformed '{name}' shard entry"):
                entry_point(broken)

    def test_manifest_not_json(self, snapshot_dir, tmp_path):
        broken = copy_snapshot(snapshot_dir, tmp_path / "badjson")
        (broken / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(SnapshotError, match="not valid JSON"):
            GraphStore.load(broken)

    def test_directory_without_manifest(self, tmp_path):
        empty = tmp_path / "empty.snapdir"
        empty.mkdir()
        with pytest.raises(SnapshotError, match="cannot read") as excinfo:
            GraphStore.load(empty)
        assert MANIFEST_NAME in str(excinfo.value)

    # --- mapped-section shards (vocabulary arena + graph CSR) ---------
    def _broken_v3(self, snapshot_dir, tmp_path, name):
        return copy_snapshot(snapshot_dir, tmp_path / name)

    def test_truncated_vocabulary_arena(self, snapshot_dir, tmp_path):
        broken = self._broken_v3(snapshot_dir, tmp_path, "truncarena")
        arena = broken / "vocabulary.arena"
        arena.write_bytes(arena.read_bytes()[:128])
        _refresh_manifest_sha(broken, "vocabulary")
        with pytest.raises(SnapshotError, match="truncated|missing") as excinfo:
            GraphStore.load(broken).store
        assert "vocabulary.arena" in str(excinfo.value)

    def test_vocabulary_arena_checksum_mismatch(self, snapshot_dir, tmp_path):
        broken = self._broken_v3(snapshot_dir, tmp_path, "arenarot")
        arena = broken / "vocabulary.arena"
        data = bytearray(arena.read_bytes())
        data[-1] ^= 0xFF
        arena.write_bytes(bytes(data))
        with pytest.raises(SnapshotError, match="checksum mismatch") as excinfo:
            GraphStore.load(broken).store
        assert "vocabulary.arena" in str(excinfo.value)

    def test_vocabulary_offsets_out_of_range(self, snapshot_dir, tmp_path):
        broken = self._broken_v3(snapshot_dir, tmp_path, "badoffsets")

        def overflow(offsets):
            offsets[-1] += 4096  # addresses bytes past the blob

        _patch_shard_array(broken / "vocabulary.arena", "offsets", overflow)
        _refresh_manifest_sha(broken, "vocabulary")
        with pytest.raises(SnapshotError, match="offsets out of range") as excinfo:
            GraphStore.load(broken).store
        assert "vocabulary.arena" in str(excinfo.value)

    def test_vocabulary_offsets_non_monotonic(self, snapshot_dir, tmp_path):
        broken = self._broken_v3(snapshot_dir, tmp_path, "zigzag")

        def zigzag(offsets):
            if len(offsets) > 2:
                offsets[1], offsets[2] = offsets[2] + 1, offsets[1]

        _patch_shard_array(broken / "vocabulary.arena", "offsets", zigzag)
        _refresh_manifest_sha(broken, "vocabulary")
        with pytest.raises(SnapshotError, match="monotonic") as excinfo:
            GraphStore.load(broken).store
        assert "vocabulary.arena" in str(excinfo.value)

    def test_vocabulary_sort_permutation_scrambled(self, snapshot_dir, tmp_path):
        """A permutation that no longer sorts the terms must be reported
        as corruption — a silent load would break id_of and turn valid
        queries into UnknownEntityError."""
        broken = self._broken_v3(snapshot_dir, tmp_path, "scrambledperm")

        def swap_extremes(sorted_ids):
            sorted_ids[0], sorted_ids[-1] = sorted_ids[-1], sorted_ids[0]

        _patch_shard_array(broken / "vocabulary.arena", "sorted_ids", swap_extremes)
        _refresh_manifest_sha(broken, "vocabulary")
        with pytest.raises(SnapshotError, match="not in term byte order") as excinfo:
            GraphStore.load(broken).store
        assert "vocabulary.arena" in str(excinfo.value)

    def test_graph_csr_non_monotonic_indptr(self, snapshot_dir, tmp_path):
        broken = self._broken_v3(snapshot_dir, tmp_path, "badindptr")

        def scramble(indptr):
            indptr[len(indptr) // 2] = -5  # guaranteed descent mid-array

        _patch_shard_array(broken / "graph.csr", "out_indptr", scramble)
        _refresh_manifest_sha(broken, "graph")
        with pytest.raises(SnapshotError, match="non-monotonic") as excinfo:
            GraphStore.load(broken).graph
        assert "graph.csr" in str(excinfo.value)

    def test_graph_csr_ids_out_of_range(self, snapshot_dir, tmp_path):
        broken = self._broken_v3(snapshot_dir, tmp_path, "badids")

        def escape(objects):
            objects[0] = np.iinfo(objects.dtype).max  # far outside the node-id range

        _patch_shard_array(broken / "graph.csr", "out_objects", escape)
        _refresh_manifest_sha(broken, "graph")
        with pytest.raises(SnapshotError, match="outside") as excinfo:
            GraphStore.load(broken).graph
        assert "graph.csr" in str(excinfo.value)

    def test_unsorted_object_order_is_refused(self, snapshot_dir, tmp_path):
        """An object order that no longer sorts the objects is refused at
        the first object probe, naming the label, instead of answering
        with the rows it happens to point at."""
        broken = self._broken_v3(snapshot_dir, tmp_path, "unsortedorder")
        manifest = json.loads((broken / MANIFEST_NAME).read_text())
        store = GraphStore.load(snapshot_dir).store
        position, entry = next(
            (position, entry)
            for position, entry in enumerate(manifest["tables"])
            if len(store.table(entry["label"]).objects()) >= 2
        )

        def swap_ends(order):
            order[0], order[-1] = order[-1], order[0]

        _patch_shard_array(broken / entry["file"], "object_order", swap_ends)
        _refresh_manifest_sha(broken, "tables", position)
        table = GraphStore.load(broken).store.table(entry["label"])
        some_object = table.object_ids()[:1]
        with pytest.raises(SnapshotError, match="not sorted") as excinfo:
            table.probe_object(some_object)
        assert repr(entry["label"]) in str(excinfo.value)

    def test_a_repeated_object_order_entry_is_refused(self, snapshot_dir, tmp_path):
        """An object order naming one row twice, between rows of one
        object, still sorts the objects but would expand that row twice
        and another never; it is refused at the first object probe."""
        broken = self._broken_v3(snapshot_dir, tmp_path, "repeatedorder")
        manifest = json.loads((broken / MANIFEST_NAME).read_text())
        store = GraphStore.load(snapshot_dir).store
        for position, entry in enumerate(manifest["tables"]):
            table = store.table(entry["label"])
            keys = table.object_ids()[table.object_order()]
            same = (keys[1:] == keys[:-1]).nonzero()[0]
            if len(same):
                at = int(same[0])
                break
        else:
            pytest.fail("no table holds one object on two rows")

        def repeat(order):
            order[at + 1] = order[at]

        _patch_shard_array(broken / entry["file"], "object_order", repeat)
        _refresh_manifest_sha(broken, "tables", position)
        table = GraphStore.load(broken).store.table(entry["label"])
        with pytest.raises(SnapshotError, match="not sorted") as excinfo:
            table.probe_object(table.object_ids()[:1])
        assert repr(entry["label"]) in str(excinfo.value)

    def test_unknown_array_dtype(self, snapshot_dir, tmp_path):
        """A catalog dtype outside the shard format's own is refused, not
        handed to numpy (``"<f8"`` would read the ids as floats)."""
        broken = self._broken_v3(snapshot_dir, tmp_path, "floatids")
        shard = broken / "graph.csr"
        data = bytearray(shard.read_bytes())
        _magic, _version, header_length = struct.unpack_from("<8sII", data, 0)
        header = json.loads(bytes(data[16 : 16 + header_length]))
        header["arrays"]["out_objects"]["dtype"] = "<f8"
        rewritten = json.dumps(header, sort_keys=True).encode("utf-8")
        assert len(rewritten) == header_length
        data[16 : 16 + header_length] = rewritten
        shard.write_bytes(bytes(data))
        _refresh_manifest_sha(broken, "graph")
        with pytest.raises(SnapshotError, match="dtype '<f8'") as excinfo:
            GraphStore.load(broken).graph
        assert "graph.csr" in str(excinfo.value)

    def test_missing_graph_shard(self, snapshot_dir, tmp_path):
        broken = self._broken_v3(snapshot_dir, tmp_path, "nograph")
        (broken / "graph.csr").unlink()
        with pytest.raises(SnapshotError, match="cannot read") as excinfo:
            GraphStore.load(broken).graph
        assert "graph.csr" in str(excinfo.value)


class TestPartialGenerations:
    """Corruption matrix extension for compaction generations: a torn
    generation directory must be skipped by startup resolution and must
    raise ``SnapshotError`` if loaded directly."""

    def _family(self, snapshot_dir, tmp_path):
        from repro.storage.generations import generation_path

        root = copy_snapshot(snapshot_dir, tmp_path / "base.snapdir")
        return root, generation_path(root, 1)

    def test_manifestless_generation_is_skipped_and_unloadable(
        self, snapshot_dir, tmp_path
    ):
        from repro.storage.generations import resolve_latest_generation

        root, gen1 = self._family(snapshot_dir, tmp_path)
        gen1.mkdir()  # a compaction that died before any manifest write
        assert resolve_latest_generation(root) == root
        with pytest.raises(SnapshotError, match="cannot read") as excinfo:
            GraphStore.load(gen1)
        assert MANIFEST_NAME in str(excinfo.value)

    def test_generation_with_truncated_section_fails_closed(
        self, snapshot_dir, tmp_path
    ):
        from repro.storage.generations import resolve_latest_generation

        root, gen1 = self._family(snapshot_dir, tmp_path)
        copy_snapshot(snapshot_dir, gen1)
        csr = gen1 / "graph.csr"
        csr.write_bytes(csr.read_bytes()[:10])
        # The manifest is intact, so resolution (manifest-only) accepts
        # the generation — but materializing the torn graph still fails
        # closed with SnapshotError, never silent garbage.
        assert resolve_latest_generation(root) == gen1
        with pytest.raises(SnapshotError, match="graph.csr"):
            _ = GraphStore.load(gen1).graph

    def test_generation_with_corrupt_manifest_is_skipped(
        self, snapshot_dir, tmp_path
    ):
        from repro.storage.generations import resolve_latest_generation

        root, gen1 = self._family(snapshot_dir, tmp_path)
        copy_snapshot(snapshot_dir, gen1)
        (gen1 / MANIFEST_NAME).write_text("{not json")
        assert resolve_latest_generation(root) == root
        with pytest.raises(SnapshotError, match="not valid JSON"):
            GraphStore.load(gen1)


def _bundle_arrays(bundle: GraphStore) -> dict:
    """Every array a bundle's graph, vocabulary and label tables hold, by
    name, as plain ndarrays."""
    vocabulary = bundle.store.vocabulary
    graph = bundle.graph
    arrays = {
        "vocabulary." + name: np.asarray(getattr(vocabulary, "_" + name))
        for name in ("offsets", "sorted_ids", "blob")
    }
    for name in ("out_indptr", "out_objects", "out_label_ids", "in_indptr", "in_subjects", "in_label_ids"):
        arrays["graph." + name] = getattr(graph, name)
    for label in bundle.store.labels():
        table = bundle.store.table(label)
        arrays[f"{label}.subjects"] = table.subject_ids()
        arrays[f"{label}.objects"] = table.object_ids()
        arrays[f"{label}.object_order"] = table.object_order()
    return arrays


class TestBuildEqualsLoad:
    """``GraphStore.build`` holds, in memory, exactly the arrays a snapshot
    of the graph maps, and writes exactly what the streaming build writes
    for the graph's edges; the order the edges came in does not reach the
    bytes."""

    @staticmethod
    def _graphs():
        from graph_backings import random_multigraph

        from repro.datasets.example_graph import figure1_excerpt

        yield "figure1", figure1_excerpt()
        for seed in range(6):
            base, delta, _nodes = random_multigraph(seed, hub_leaves=6 * (seed % 2))
            yield f"multigraph{seed}", KnowledgeGraph(base + delta)

    def test_built_arrays_equal_the_loaded_arrays(self, tmp_path):
        for name, graph in self._graphs():
            built = GraphStore.build(graph)
            GraphStore.build(graph).save(tmp_path / name)
            loaded = GraphStore.load(tmp_path / name)
            built_arrays, loaded_arrays = _bundle_arrays(built), _bundle_arrays(loaded)
            assert sorted(built_arrays) == sorted(loaded_arrays), name
            for key, array in built_arrays.items():
                assert array.dtype == loaded_arrays[key].dtype, (name, key)
                assert np.array_equal(array, loaded_arrays[key]), (name, key)
            assert built.meta() == loaded.meta()
            assert built.statistics.label_counts == loaded.statistics.label_counts

    def test_a_built_save_is_the_streaming_build(self, tmp_path):
        from repro.graph.triples import write_triples
        from repro.storage.build import build_streaming_snapshot

        for name, graph in self._graphs():
            GraphStore.build(graph).save(tmp_path / f"{name}.built")
            write_triples(list(graph.edges), tmp_path / f"{name}.tsv")
            build_streaming_snapshot(tmp_path / f"{name}.tsv", tmp_path / f"{name}.streamed")
            files = {
                directory: {
                    path.relative_to(tmp_path / directory).as_posix(): path.read_bytes()
                    for path in sorted((tmp_path / directory).rglob("*"))
                    if path.is_file()
                }
                for directory in (f"{name}.built", f"{name}.streamed")
            }
            assert files[f"{name}.built"] == files[f"{name}.streamed"], name

    def test_edge_order_does_not_reach_the_bytes(self, tmp_path):
        """One edge set added in two orders, ids held fixed (every node
        added first, each label's first edge in one fixed order): the two
        snapshots are byte-identical."""
        for name, graph in self._graphs():
            edges = list(graph.edges)
            firsts = list({edge.label: edge for edge in reversed(edges)}.values())[::-1]
            rest = [edge for edge in edges if edge not in set(firsts)]
            for order, tail in (("given", rest), ("reversed", rest[::-1])):
                reordered = KnowledgeGraph()
                for node in graph.nodes:
                    reordered.add_node(node)
                reordered.add_edges(firsts + tail)
                GraphStore.build(reordered).save(tmp_path / f"{name}.{order}")
            assert rest != rest[::-1], name
            assert (tmp_path / f"{name}.given" / MANIFEST_NAME).read_bytes() == (
                tmp_path / f"{name}.reversed" / MANIFEST_NAME
            ).read_bytes(), name

    def test_a_cold_system_runs_on_the_built_arrays(self, figure1_graph):
        system = GQBE(figure1_graph)
        assert isinstance(system.graph, MappedKnowledgeGraph)
        assert isinstance(system.store.vocabulary, MappedVocabulary)
        assert system.graph_store.lazy_report()["format"] == "v7"
        graph = system.graph
        system.ingest([("Jerry Yang", "founded", "Yahoo! Labs")])
        # The ingested edge lands in the same graph, beside the built arrays.
        assert system.graph is graph
        assert graph.has_edge("Jerry Yang", "founded", "Yahoo! Labs")
        assert len(graph.out_objects) == figure1_graph.num_edges
