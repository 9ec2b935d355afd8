"""Streaming (out-of-core) build equivalence and crash-safety tests.

The contract under test: ``build_streaming_snapshot`` produces output that
is **byte-identical** to building the same dump in memory via
``GraphStore.build(load_graph(dump)).save(...)`` — shard for shard —
while reading the dump in bounded chunks and spilling intermediate state
to disk.
"""

from __future__ import annotations

import gzip
import heapq
import json
import shutil

import numpy as np
import pytest

from repro.datasets.synthetic import DBpediaLikeGenerator, FreebaseLikeGenerator
from repro.exceptions import (
    EntityIdOverflowError,
    GraphError,
    SnapshotError,
    TripleParseError,
)
from repro.graph.triples import load_graph, write_triples
from repro.storage.build import BuildPlan, _merge_runs, build_streaming_snapshot
from repro.storage.snapshot import GraphStore
from repro.storage.vocabulary import MappedVocabulary


def _write_dump(tmp_path, seed=3, scale=0.2, duplicates=100, generator=None, name="dump.tsv"):
    """Write a synthetic dump (with injected duplicate lines) and return its path."""
    generator = generator or FreebaseLikeGenerator(seed=seed, scale=scale)
    graph = generator.generate().graph
    edges = list(graph.edges)
    path = tmp_path / name
    lines = [f"{e.subject}\t{e.label}\t{e.object}" for e in edges]
    # Re-emit a deterministic slice of edges as duplicates, interleaved with
    # comments/blank lines, so dedup and seq-ordering both get exercised.
    for i in range(min(duplicates, len(edges))):
        e = edges[(i * 7) % len(edges)]
        lines.append(f"{e.subject}\t{e.label}\t{e.object}")
    text = "# synthetic dump\n" + "\n".join(lines) + "\n\n"
    if name.endswith(".gz"):
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(text)
    else:
        path.write_text(text, encoding="utf-8")
    return path


def _build_in_memory(dump, output):
    GraphStore.build(load_graph(dump)).save(output)
    return output


def _snapshot_files(root):
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def _assert_identical(streamed, reference):
    left = _snapshot_files(streamed)
    right = _snapshot_files(reference)
    assert sorted(left) == sorted(right), "snapshot file sets differ"
    for name in sorted(left):
        assert left[name] == right[name], f"shard {name} differs byte-for-byte"


def _count_binary_searches(monkeypatch):
    """Record every term ``MappedVocabulary._find_mapped`` searches for."""
    searches = []
    find_mapped = MappedVocabulary._find_mapped

    def counting(self, term):
        searches.append(term)
        return find_mapped(self, term)

    monkeypatch.setattr(MappedVocabulary, "_find_mapped", counting)
    return searches


def _second_pass_reads(monkeypatch, changed):
    """Make the build's second read of its source stream ``changed``."""
    import repro.storage.build as build_module

    reads = []
    iter_chunked = build_module.iter_triples_chunked

    def swapped(source, **kwargs):
        reads.append(source)
        return iter_chunked(changed if len(reads) > 1 else source, **kwargs)

    monkeypatch.setattr(build_module, "iter_triples_chunked", swapped)
    return reads


class TestByteIdentity:
    def test_v3_freebase_with_duplicates_and_spills(self, tmp_path):
        dump = _write_dump(tmp_path, duplicates=150)
        report = build_streaming_snapshot(
            dump, tmp_path / "streamed", snapshot_format="v3", memory_budget_mb=1
        )
        _build_in_memory(dump, tmp_path / "reference")
        _assert_identical(tmp_path / "streamed", tmp_path / "reference")
        # A 1 MB budget on this dump must actually exercise the external
        # sort, otherwise the test silently degrades to the trivial path.
        assert report["spill_runs"] > 1
        assert report["duplicates"] == 150
        assert report["edges"] == report["triples_read"] - 150

    def test_v3_lookup_cache_eviction(self, tmp_path, monkeypatch):
        # Enough distinct terms to overflow the pass-2 lookup cache at the
        # 1 MB floor (cap 1024 entries): eviction while one row's object
        # resolves must not lose the row's already-resolved subject, and a
        # term met again after its eviction is found by binary search.
        dump = _write_dump(
            tmp_path, generator=FreebaseLikeGenerator(seed=2, scale=2.0), duplicates=80
        )
        searches = _count_binary_searches(monkeypatch)
        report = build_streaming_snapshot(
            dump, tmp_path / "streamed", snapshot_format="v3", memory_budget_mb=1
        )
        assert report["nodes"] > 1024  # the eviction path really ran
        assert len(searches) > 0
        _build_in_memory(dump, tmp_path / "reference")
        _assert_identical(tmp_path / "streamed", tmp_path / "reference")

    def test_a_cache_holding_every_term_makes_no_binary_search(self, tmp_path, monkeypatch):
        """Pass 2 meets each term first in id order, so with nothing
        evicted every id comes from the next-id check."""
        dump = _write_dump(tmp_path, duplicates=40)
        searches = _count_binary_searches(monkeypatch)
        report = build_streaming_snapshot(dump, tmp_path / "streamed")
        assert report["nodes"] < BuildPlan(256).lookup_cache
        assert searches == []
        _build_in_memory(dump, tmp_path / "reference")
        _assert_identical(tmp_path / "streamed", tmp_path / "reference")

    def test_v3_dbpedia_domain(self, tmp_path):
        dump = _write_dump(
            tmp_path, generator=DBpediaLikeGenerator(seed=9, scale=0.2), duplicates=40
        )
        build_streaming_snapshot(
            dump, tmp_path / "streamed", snapshot_format="v3", memory_budget_mb=2
        )
        _build_in_memory(dump, tmp_path / "reference")
        _assert_identical(tmp_path / "streamed", tmp_path / "reference")

    def test_v3_parallel_workers_match_serial(self, tmp_path):
        dump = _write_dump(tmp_path, seed=5, duplicates=60)
        build_streaming_snapshot(
            dump, tmp_path / "serial", snapshot_format="v3", memory_budget_mb=2
        )
        build_streaming_snapshot(
            dump,
            tmp_path / "parallel",
            snapshot_format="v3",
            workers=2,
            memory_budget_mb=2,
        )
        _assert_identical(tmp_path / "parallel", tmp_path / "serial")

    def test_gzip_dump_matches_plain(self, tmp_path):
        plain = _write_dump(tmp_path, seed=7, duplicates=30, name="dump.tsv")
        gz = _write_dump(tmp_path, seed=7, duplicates=30, name="dump.tsv.gz")
        build_streaming_snapshot(
            gz, tmp_path / "from_gz", snapshot_format="v3", memory_budget_mb=2
        )
        _build_in_memory(plain, tmp_path / "reference")
        _assert_identical(tmp_path / "from_gz", tmp_path / "reference")

    def test_streamed_snapshot_loads_and_answers(self, tmp_path):
        dump = _write_dump(tmp_path, duplicates=10)
        build_streaming_snapshot(
            dump, tmp_path / "streamed", snapshot_format="v3", memory_budget_mb=2
        )
        store = GraphStore.load(tmp_path / "streamed")
        graph = load_graph(dump)
        assert store.graph.num_edges == graph.num_edges
        assert sorted(store.graph.edges) == sorted(graph.edges)


class TestFailureModes:
    def test_malformed_line_raises_with_line_number(self, tmp_path):
        dump = tmp_path / "bad.tsv"
        dump.write_text("a\tr\tb\nnot a triple\n", encoding="utf-8")
        with pytest.raises(TripleParseError) as info:
            build_streaming_snapshot(dump, tmp_path / "out", snapshot_format="v3")
        assert info.value.line_number == 2

    def test_ids_past_the_ceiling_are_refused(self, tmp_path, monkeypatch):
        """Three terms take ids 0-2.  With the ceiling lowered to 1 the
        build raises before it writes a manifest; at 2 it succeeds."""
        import repro.storage.vocabulary as vocabulary_module

        dump = tmp_path / "three.tsv"
        dump.write_text("a\tr\tb\nb\tr\tc\n", encoding="utf-8")
        monkeypatch.setattr(vocabulary_module, "MAX_ENTITY_ID", 1)
        with pytest.raises(EntityIdOverflowError) as info:
            build_streaming_snapshot(dump, tmp_path / "refused")
        assert info.value.entity_id == 2
        assert not (tmp_path / "refused" / "MANIFEST.json").exists()
        monkeypatch.setattr(vocabulary_module, "MAX_ENTITY_ID", 2)
        build_streaming_snapshot(dump, tmp_path / "fits")
        assert len(GraphStore.load(tmp_path / "fits").store.vocabulary) == 3

    @pytest.mark.parametrize(
        "changed",
        [
            "a\tr\tb\nb\tr\tz\n",  # z fails the next-id check (c is next)
            "a\tr\tz\nb\tr\tc\n",  # z takes the slot where b is next
            "a\tr\tb\nb\tr\tc\nc\tr\tz\n",  # z comes after every id is met
        ],
    )
    def test_a_term_missing_from_pass_one_is_refused(self, tmp_path, monkeypatch, changed):
        dump = tmp_path / "dump.tsv"
        dump.write_text("a\tr\tb\nb\tr\tc\n", encoding="utf-8")
        (tmp_path / "changed.tsv").write_text(changed, encoding="utf-8")
        reads = _second_pass_reads(monkeypatch, tmp_path / "changed.tsv")
        with pytest.raises(SnapshotError, match="'z' missing from the pass-1 arena"):
            build_streaming_snapshot(dump, tmp_path / "out")
        assert len(reads) == 2
        assert not (tmp_path / "out" / "MANIFEST.json").exists()

    def test_a_triple_count_changed_between_passes_is_refused(self, tmp_path, monkeypatch):
        dump = tmp_path / "dump.tsv"
        dump.write_text("a\tr\tb\nb\tr\tc\n", encoding="utf-8")
        (tmp_path / "changed.tsv").write_text("a\tr\tb\nb\tr\tc\nc\tr\ta\n", encoding="utf-8")
        _second_pass_reads(monkeypatch, tmp_path / "changed.tsv")
        with pytest.raises(SnapshotError, match="3 triples on pass 2 but 2 on pass 1"):
            build_streaming_snapshot(dump, tmp_path / "out")
        assert not (tmp_path / "out" / "MANIFEST.json").exists()

    def test_empty_dump_raises_graph_error(self, tmp_path):
        dump = tmp_path / "empty.tsv"
        dump.write_text("# nothing but comments\n\n", encoding="utf-8")
        with pytest.raises(GraphError):
            build_streaming_snapshot(dump, tmp_path / "out", snapshot_format="v3")

    def test_bad_budget_and_format_rejected(self, tmp_path):
        dump = _write_dump(tmp_path, duplicates=0)
        with pytest.raises(SnapshotError):
            build_streaming_snapshot(
                dump, tmp_path / "out", snapshot_format="v3", memory_budget_mb=0
            )
        for retired_or_unknown in ("v1", "v2", "v9"):
            with pytest.raises(SnapshotError, match="only snapshot format is v3"):
                build_streaming_snapshot(
                    dump, tmp_path / "out", snapshot_format=retired_or_unknown
                )
        assert not (tmp_path / "out").exists()
        with pytest.raises(SnapshotError):
            BuildPlan(-1)

    def test_crash_mid_build_leaves_no_manifest(self, tmp_path, monkeypatch):
        """A crash before completion must not leave a loadable torn snapshot:
        not in an empty output, and not in one that already holds a
        snapshot (of another dump), whichever source writes — the dump's
        build, or ``GraphStore.save`` of a bundle."""
        import repro.storage.build as build_module

        dump = _write_dump(tmp_path, duplicates=25)
        reference = _build_in_memory(dump, tmp_path / "reference")
        older = _build_in_memory(
            _write_dump(tmp_path, seed=5, duplicates=0, name="older.tsv"), tmp_path / "older"
        )
        bundle = GraphStore.build(load_graph(dump))
        writers = {
            "build": lambda output: build_streaming_snapshot(
                dump, output, snapshot_format="v3", memory_budget_mb=2
            ),
            "save": bundle.save,
        }

        def boom(*args, **kwargs):
            raise OSError("disk full")

        for source, write in writers.items():
            for holds_a_snapshot in (False, True):
                output = tmp_path / f"{source}-{holds_a_snapshot}"
                if holds_a_snapshot:
                    shutil.copytree(older, output)
                monkeypatch.setattr(build_module, "_write_graph_shard", boom)
                with pytest.raises(SnapshotError):
                    write(output)
                monkeypatch.undo()
                # The manifest is written last and an old one is unlinked
                # first: a torn write has partial shards but no
                # MANIFEST.json, so loading reports a clean, explicit
                # failure.
                assert not (output / "MANIFEST.json").exists()
                with pytest.raises(SnapshotError):
                    GraphStore.load(output)
                # No scratch directories may leak next to the output.
                assert not list(tmp_path.glob("gqbe-build-*"))

                # A rewrite over the partial output succeeds and is
                # byte-identical (the manifest hashes every shard).
                write(output)
                assert (output / "MANIFEST.json").read_bytes() == (
                    reference / "MANIFEST.json"
                ).read_bytes()
                if not holds_a_snapshot:
                    _assert_identical(output, reference)

    def test_manifest_is_canonical_json(self, tmp_path):
        dump = _write_dump(tmp_path, duplicates=5)
        build_streaming_snapshot(
            dump, tmp_path / "out", snapshot_format="v3", memory_budget_mb=2
        )
        raw = (tmp_path / "out" / "MANIFEST.json").read_text(encoding="utf-8")
        manifest = json.loads(raw)
        assert raw == json.dumps(manifest, indent=1, sort_keys=True)
        assert manifest["format_version"] == 6


class TestCLI:
    def test_build_index_streaming_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        dump = _write_dump(tmp_path, duplicates=15)
        code = main(
            [
                "build-index",
                str(dump),
                str(tmp_path / "streamed"),
                "--memory-budget-mb",
                "4",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "pass1" in out
        assert "rows/s" in out
        assert "spill runs" in out
        _build_in_memory(dump, tmp_path / "reference")
        _assert_identical(tmp_path / "streamed", tmp_path / "reference")

    def test_build_index_quiet_suppresses_output(self, tmp_path, capsys):
        from repro.cli import main

        dump = _write_dump(tmp_path, duplicates=0)
        code = main(
            ["build-index", str(dump), str(tmp_path / "out"), "--quiet"]
        )
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_streaming_flag_is_gone(self, tmp_path):
        from repro.cli import main

        dump = _write_dump(tmp_path, duplicates=0)
        with pytest.raises(SystemExit):
            main(["build-index", str(dump), str(tmp_path / "out"), "--streaming"])


class TestBlockMerge:
    """``_merge_runs`` yields what ``heapq.merge`` yields over the runs'
    row tuples, in blocks no larger than its ``io_elements`` share, and
    leaves only its input files behind."""

    @staticmethod
    def _check(tmp_path, runs, io_elements):
        width = runs[0].shape[1]
        directory = tmp_path / f"runs.{io_elements}"
        directory.mkdir()
        paths = []
        for index, run in enumerate(runs):
            paths.append(directory / f"{index:05d}.run")
            run.astype(np.int64).tofile(paths[-1])
        blocks = list(
            _merge_runs([(path, 0, len(run)) for path, run in zip(paths, runs)], width, io_elements)
        )
        merged = [tuple(row) for block in blocks for row in block.tolist()]
        assert merged == list(heapq.merge(*(map(tuple, run.tolist()) for run in runs)))
        assert all(0 < len(block) <= max(2, io_elements // width) for block in blocks)
        assert sorted(directory.iterdir()) == paths
        shutil.rmtree(directory)

    def test_a_bound_row_shared_by_several_runs(self, tmp_path):
        # One-row blocks: runs 0 and 1 both end blocks on (2, 0) while
        # more of it waits on disk, and run 2 is empty.
        runs = [
            np.array([[1, 5], [2, 0], [2, 0], [2, 0], [3, 1]]),
            np.array([[2, 0], [2, 0], [9, 9]]),
            np.empty((0, 2), dtype=np.int64),
            np.array([[2, 0]]),
        ]
        for io_elements in (1, 4, 16, 1000):
            self._check(tmp_path, runs, io_elements)

    def test_random_runs_match_heapq_merge(self, tmp_path):
        rng = np.random.default_rng(11)
        for trial in range(60):
            width = int(rng.integers(1, 5))
            runs = []
            for _ in range(int(rng.integers(1, 8))):
                # Empty runs, one-row runs and longer ones; a small value
                # range makes equal rows across runs common.
                length = int(rng.choice([0, 1, int(rng.integers(2, 50))]))
                run = rng.integers(0, 4, size=(length, width))
                runs.append(run[np.lexsort(run.T[::-1])])
            for io_elements in (1, width * len(runs) * 3, 10_000):
                self._check(tmp_path, runs, io_elements)

    def test_more_runs_than_one_merge_takes(self, tmp_path):
        # 300 runs against a fan-in of 4 (16 pooled rows): four levels of
        # group merges into files beside the runs before the last merge;
        # at 1000 elements (fan-in 22) one level.
        rng = np.random.default_rng(5)
        runs = []
        for _ in range(300):
            run = rng.integers(0, 50, size=(int(rng.integers(0, 12)), 2))
            runs.append(run[np.lexsort(run.T[::-1])])
        for io_elements in (32, 1000):
            self._check(tmp_path, runs, io_elements)


class TestBuildPlan:
    def test_budgets_scale_monotonically(self):
        small, large = BuildPlan(8), BuildPlan(1024)
        assert small.chunk_triples <= large.chunk_triples
        assert small.term_buffer <= large.term_buffer
        assert small.row_buffer <= large.row_buffer
        assert small.io_elements <= large.io_elements

    def test_floors_keep_tiny_budgets_usable(self):
        plan = BuildPlan(1)
        assert plan.chunk_triples >= 1024
        assert plan.term_buffer >= 1024
        assert plan.row_buffer >= 1024
