"""Tests for the on-disk index snapshot subsystem (``storage/snapshot.py``).

Covers the property the warm-start path must guarantee — a loaded
snapshot answers queries byte-identically to the cold build it was saved
from, on random synthetic graphs — plus the failure modes of the one
format: a retired layout (a single file, an older manifest), truncation,
bit-level corruption and missing files, all surfaced as ``SnapshotError``
— and that loading, querying and ingesting never unpickle.
``tests/test_sharded_snapshot.py`` holds the structural checks on what
the shards contain.
"""

from __future__ import annotations

import json
import pickle
import time

import pytest

from graph_backings import copy_snapshot
from repro.cli import main
from repro.core.config import GQBEConfig
from repro.core.gqbe import GQBE
from repro.datasets.synthetic import FreebaseLikeGenerator
from repro.exceptions import SnapshotError
from repro.graph.triples import write_triples
from repro.storage.generations import generation_path, resolve_latest_generation
from repro.storage.shards import MANIFEST_NAME
from repro.storage.snapshot import GraphStore, read_snapshot_meta


@pytest.fixture(scope="module")
def dataset():
    return FreebaseLikeGenerator(seed=5, scale=0.2).generate()


@pytest.fixture(scope="module")
def snapshot_path(dataset, tmp_path_factory):
    path = tmp_path_factory.mktemp("snap") / "freebase.snap"
    GraphStore.build(dataset.graph).save(path)
    return path


def _assert_identical_results(left, right):
    assert [a.entities for a in left.answers] == [a.entities for a in right.answers]
    for first, second in zip(left.answers, right.answers):
        assert first.score == second.score
        assert first.structure_score == second.structure_score
        assert first.content_score == second.content_score


class TestRoundTrip:
    @pytest.mark.parametrize("seed", [2, 7, 21])
    def test_ranked_answers_survive_round_trip(self, seed, tmp_path):
        """Property: load(save(store)) answers byte-identically to the
        cold build, on random synthetic graphs."""
        graph = FreebaseLikeGenerator(seed=seed, scale=0.2).generate()
        config = GQBEConfig(mqg_size=8, k_prime=25, max_join_rows=100_000)
        cold = GQBE(graph.graph, config=config)

        path = tmp_path / "store.snap"
        cold.graph_store.save(path)
        warm = GQBE(config=config, graph_store=GraphStore.load(path))

        for table_name in graph.table_names()[:2]:
            query_tuple = tuple(graph.table(table_name)[0])
            _assert_identical_results(
                cold.query(query_tuple, k=10), warm.query(query_tuple, k=10)
            )

    def test_round_trip_preserves_shape(self, dataset, snapshot_path):
        loaded = GraphStore.load(snapshot_path)
        assert loaded.graph.num_edges == dataset.graph.num_edges
        assert loaded.graph.num_nodes == dataset.graph.num_nodes
        assert loaded.store.num_rows == dataset.graph.num_edges
        assert loaded.statistics.total_edges == dataset.graph.num_edges
        # The per-label counts come from the manifest's table rows, in the
        # graph's first-seen label order.
        expected = list(dataset.graph.label_counts().items())
        for bundle in (GraphStore.build(dataset.graph), loaded):
            assert list(bundle.statistics.label_counts.items()) == expected

    def test_meta_readable_without_adopting_store(self, snapshot_path, dataset):
        meta = read_snapshot_meta(snapshot_path)
        assert set(meta) == {"num_nodes", "num_edges", "num_labels"}
        assert meta["num_edges"] == dataset.graph.num_edges


def _touch_everything(path):
    bundle = GraphStore.load(path).materialize()
    for label in bundle.store.labels():
        bundle.store.table(label)


#: One file of every kind a snapshot directory holds, manifest aside.
_SNAPSHOT_FILES = [
    "vocabulary.arena",
    "graph.csr",
    "tables/00000.shard",
]


class TestEnvelopeFailureModes:
    def _retired(self, kind, snapshot_path, target):
        """Input a build that knew other layouts would have accepted."""
        if kind == "single-file":
            target.write_bytes(b"GQBESNAP" + b"\x00" * 64)
            return target
        copy_snapshot(snapshot_path, target)
        manifest = json.loads((target / MANIFEST_NAME).read_text())
        if kind == "v2-manifest":
            manifest["format_version"] = 2
        elif kind == "v3-manifest":
            # Version 3 tables may be unsorted: searched as sorted, they
            # would answer wrongly without any error.
            manifest["format_version"] = 3
        elif kind == "v4-manifest":
            # Version 4 carried two pickled sections; this build never
            # unpickles a file.
            manifest["format_version"] = 4
        else:
            # Version 5 carried the participation counts in a file of their
            # own, which the label tables now answer.
            manifest["format_version"] = 5
        (target / MANIFEST_NAME).write_text(json.dumps(manifest))
        return target

    @pytest.mark.parametrize(
        "kind",
        [
            "single-file",
            "v2-manifest",
            "v3-manifest",
            "v4-manifest",
            "v5-manifest",
        ],
    )
    def test_retired_input_is_refused(self, kind, snapshot_path, tmp_path):
        """A snapshot is a rebuildable cache: what this build does not
        write it does not read, and it says how to get a readable one."""
        root = copy_snapshot(snapshot_path, tmp_path / "family.snap")
        retired = self._retired(kind, snapshot_path, generation_path(root, 1))
        started = time.monotonic()
        for entry_point in (GraphStore.load, read_snapshot_meta):
            with pytest.raises(SnapshotError, match="gqbe build-index") as excinfo:
                entry_point(retired)
            assert retired.name in str(excinfo.value)
        # Startup resolution skips it instead of loading it.
        assert resolve_latest_generation(root) == root
        assert time.monotonic() - started < 5

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bogus.snap"
        path.write_bytes(b"NOTASNAP" + b"\x00" * 64)
        with pytest.raises(SnapshotError, match="regular file"):
            GraphStore.load(path)

    def test_truncated_manifest(self, snapshot_path, tmp_path):
        broken = copy_snapshot(snapshot_path, tmp_path / "truncated.snap")
        manifest = broken / MANIFEST_NAME
        manifest.write_bytes(manifest.read_bytes()[:-100])
        for entry_point in (GraphStore.load, read_snapshot_meta):
            with pytest.raises(SnapshotError, match="not valid JSON") as excinfo:
                entry_point(broken)
            assert MANIFEST_NAME in str(excinfo.value)

    @pytest.mark.parametrize("name", _SNAPSHOT_FILES)
    def test_truncated_file_is_reported(self, name, snapshot_path, tmp_path):
        broken = copy_snapshot(snapshot_path, tmp_path / "truncated.snap")
        data = (broken / name).read_bytes()
        (broken / name).write_bytes(data[: len(data) - 9])
        with pytest.raises(SnapshotError, match="corrupt") as excinfo:
            _touch_everything(broken)
        assert name.split("/")[-1] in str(excinfo.value)

    @pytest.mark.parametrize("name", _SNAPSHOT_FILES)
    def test_flipped_byte_fails_checksum(self, name, snapshot_path, tmp_path):
        broken = copy_snapshot(snapshot_path, tmp_path / "corrupt.snap")
        data = bytearray((broken / name).read_bytes())
        data[len(data) // 2] ^= 0xFF
        (broken / name).write_bytes(bytes(data))
        with pytest.raises(SnapshotError, match="checksum mismatch") as excinfo:
            _touch_everything(broken)
        assert name.split("/")[-1] in str(excinfo.value)

    @pytest.mark.parametrize("name", _SNAPSHOT_FILES)
    def test_missing_shard_file_is_reported(self, name, snapshot_path, tmp_path):
        broken = copy_snapshot(snapshot_path, tmp_path / "missing.snap")
        (broken / name).unlink()
        with pytest.raises(SnapshotError, match="cannot read") as excinfo:
            _touch_everything(broken)
        assert name.split("/")[-1] in str(excinfo.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot read"):
            GraphStore.load(tmp_path / "does_not_exist.snap")

    def test_meta_reader_wraps_read_errors(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot read"):
            read_snapshot_meta(tmp_path / "does_not_exist.snap")


#: Everything a snapshot directory holds: the manifest and the shards.
_SNAPSHOT_LAYOUT = {MANIFEST_NAME, "vocabulary.arena", "graph.csr", "tables"}


class TestNoPickle:
    def test_build_index_and_save_write_only_shards(self, dataset, snapshot_path, tmp_path):
        dump = tmp_path / "data.tsv"
        write_triples(dataset.graph.edges, dump)
        built = tmp_path / "built.snap"
        assert main(["build-index", str(dump), str(built)]) == 0
        for directory in (built, snapshot_path):
            assert {item.name for item in directory.iterdir()} == _SNAPSHOT_LAYOUT
            assert {item.suffix for item in (directory / "tables").iterdir()} == {".shard"}
            manifest = json.loads((directory / MANIFEST_NAME).read_text())
            assert "sections" not in manifest
            assert "pickle_protocol" not in manifest

    def test_load_query_and_ingest_never_unpickle(self, dataset, snapshot_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a snapshot load unpickled")

        for name in ("load", "loads", "Unpickler"):
            monkeypatch.setattr(pickle, name, refuse)
        bundle = GraphStore.load(snapshot_path).materialize()
        config = GQBEConfig(mqg_size=8, k_prime=25, max_join_rows=100_000)
        system = GQBE(config=config, graph_store=bundle)
        query_tuple = tuple(dataset.table(dataset.table_names()[0])[0])
        assert system.query(query_tuple, k=10).answers
        label = "a label the snapshot lacks"
        assert not bundle.store.has_label(label)
        assert system.ingest([(query_tuple[0], label, query_tuple[1])])["applied"] == 1
        assert bundle.statistics.label_counts[label] == 1
        assert system.query(query_tuple, k=10).answers


class TestCLIWorkflow:
    def test_build_index_then_query(self, tmp_path, capsys, figure1_graph):
        triples = tmp_path / "fig1.tsv"
        write_triples(sorted(figure1_graph.edges), triples)
        snapshot = tmp_path / "fig1.snap"

        assert main(["build-index", str(triples), str(snapshot)]) == 0
        assert "indexed" in capsys.readouterr().out
        for name in (MANIFEST_NAME, "vocabulary.arena", "graph.csr"):
            assert (snapshot / name).exists()

        code = main(
            [
                "query",
                "--snapshot",
                str(snapshot),
                "--tuple",
                "Jerry Yang,Yahoo!",
                "--k",
                "3",
                "--mqg-size",
                "8",
            ]
        )
        assert code == 0
        assert "Top-3 answers" in capsys.readouterr().out

    def test_query_rejects_graph_plus_snapshot(self, tmp_path, capsys):
        code = main(
            [
                "query",
                "some.tsv",
                "--snapshot",
                "some.snap",
                "--tuple",
                "a,b",
            ]
        )
        assert code == 2
        assert "not both" in capsys.readouterr().err

    def test_query_requires_a_source(self, capsys):
        code = main(["query", "--tuple", "a,b"])
        assert code == 2
        assert "graph file or --snapshot" in capsys.readouterr().err
