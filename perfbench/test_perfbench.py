"""Tests of the benchmark itself: ``python -m pytest perfbench -q``.

Not part of tier-1 (``testpaths`` stays ``tests``); they run the smoke
sizes, so the whole file takes well under a minute.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import ROOT, WORK_ROOT, require_program, stats

require_program()

from perfbench import compare, inputs, spans, workloads  # noqa: E402
from perfbench.procs import ChildFailed, Children  # noqa: E402

RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def processes_mentioning(text: str) -> list[str]:
    """Command lines of live processes that mention ``text`` (Linux procfs)."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == os.getpid():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes().replace(b"\0", b" ").decode()
        except OSError:
            continue  # exited while we looked
        if text in cmdline:
            found.append(cmdline)
    return found


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    """A scale-1 dump and snapshot plus its r10 engine config."""
    from repro.storage.build import build_streaming_snapshot

    work = tmp_path_factory.mktemp("perfbench")
    dataset = inputs.generate_dump(inputs.DATASET_SEED, 1.0, work / "dump.tsv")
    build_streaming_snapshot(dataset.dump, work / "snapshot", snapshot_format="v3")
    return work, dataset


# ----------------------------------------------------------------------
# names: BENCHMARK.json, the runner's tables and a real run agree
# ----------------------------------------------------------------------
def test_benchmark_json_lists_exactly_what_the_runner_reports():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert BENCHMARK["run_seconds"] == workloads.NOMINAL_SECONDS
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == (
        workloads.END_TO_END_UNITS
    )
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == (
        workloads.PER_LAYER_UNITS
    )
    # The driver's file format: it refuses a bound above 0.25 and a "why"
    # above 200 characters, and wants set-up to carry the widest bound.
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    assert all(len(w["why"]) <= 200 for w in BENCHMARK["workloads"])
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_the_contract_line(trace, tmp_path):
    out = tmp_path / "result.json"
    completed = subprocess.run(
        [*RUN, "--smoke", "--workload", "build_warm", "--seed", "3",
         "--trace", str(trace), "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    line = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    section = "per_layer" if trace else "end_to_end"
    assert set(line["metrics"]) == {m["name"] for m in BENCHMARK[section]}
    assert all(set(m) == {"value", "unit"} for m in line["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values())
    document = json.loads(out.read_text())
    result = document["workloads"]["build_warm"]
    assert {"python", "numpy", "nproc", "git_commit"} <= set(document["environment"])
    assert result["kernel_backend"] in ("pure", "native")
    assert len(result["answers_sha256"]) == 64
    assert {"dump_sha256", "population_sha256", "query_list_sha256"} <= set(
        result["inputs"]
    )


# ----------------------------------------------------------------------
# the percentile rule
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    ("n", "wanted", "allowed"),
    [(100, 90, 90), (100, 99, 90), (99, 90, 75), (1000, 99, 99), (999, 99, 95),
     (2500, 99, 99), (20, 90, 50), (40, 90, 75), (5, 50, 50)],
)
def test_percentile_needs_ten_samples_beyond_it(n, wanted, allowed):
    assert stats.allowed_percentile(n, wanted) == allowed


def test_percentile_by_rule_reports_the_percentile_it_used():
    samples = [float(i) for i in range(100)]
    assert stats.percentile_by_rule(samples, 90.0) == (90.0, 90.0)
    assert stats.percentile_by_rule(samples[:20], 90.0) == (9.5, 50.0)


def test_output_checks():
    good = [[["a", "b"], 2.0], [["c", "d"], 2.0], [["e", "f"], 1.0]]
    assert stats.check_answers(good, [["x", "y"]], k=3) is None
    assert stats.check_answers([], [["x", "y"]], k=3) is None  # empty is not failed
    assert "answers for k" in stats.check_answers(good, [["x", "y"]], k=2)
    assert "monotone" in stats.check_answers(good[::-1], [["x", "y"]], k=3)
    assert "echoes" in stats.check_answers(good, [["c", "d"]], k=3)


# ----------------------------------------------------------------------
# inputs and seeds
# ----------------------------------------------------------------------
def test_seed_changes_the_query_list_but_not_the_pinned_inputs(small, tmp_path):
    _work, dataset = small
    again = inputs.generate_dump(inputs.DATASET_SEED, 1.0, tmp_path / "dump.tsv")
    assert again.dump_sha256 == dataset.dump_sha256
    other = inputs.generate_dump(inputs.DATASET_SEED + 1, 1.0, tmp_path / "other.tsv")
    assert other.dump_sha256 != dataset.dump_sha256
    assert inputs.NO_LATTICE_WORK < set(dataset.tables)

    population = inputs.query_population(dataset.tables, (1, 1, 2, 2, 3), "7:x")
    assert len(population) == 100
    assert inputs.population_sha256(population) == inputs.population_sha256(
        inputs.query_population(again.tables, (1, 1, 2, 2, 3), "7:x")
    )
    used = [tuple(row) for query in population for row in query["tuples"]]
    assert len(used) == len(set(used))  # no example tuple is used twice

    def ids(queries):
        return [query["id"] for query in queries]

    first = inputs.ordered_queries(population, 1)
    assert ids(first) == ids(inputs.ordered_queries(population, 1))
    assert ids(first) != ids(inputs.ordered_queries(population, 2))
    assert sorted(ids(first)) == sorted(ids(population))

    # Zipf traffic: the seed orders the requests inside a window, and the
    # requests of each window (so the misses after its ingest) are pinned.
    one, two = (inputs.zipf_requests(population, seed, 250, 100) for seed in (1, 2))
    assert ids(one) == ids(inputs.zipf_requests(population, 1, 250, 100))
    assert ids(one) != ids(two)
    for start in (0, 100, 200):
        assert sorted(ids(one[start : start + 100])) == sorted(ids(two[start : start + 100]))
    assert ids(one).count(population[0]["id"]) > ids(one).count(population[50]["id"])

    batches = inputs.ingest_batches(dataset.dump, 1, 3, 10)
    assert batches == inputs.ingest_batches(dataset.dump, 1, 3, 10)
    assert batches != inputs.ingest_batches(dataset.dump, 2, 3, 10)
    assert len({triple[0] for batch in batches for triple in batch}) == 30


def test_drifted_inputs_are_reported():
    with pytest.raises(inputs.InputsDrifted, match="no committed input hashes"):
        inputs.check_pinned("nope", {})
    with pytest.raises(inputs.InputsDrifted, match="dump_sha256.*src/repro/datasets"):
        inputs.check_pinned(
            "single_r15", {"dump_sha256": "0" * 64, "population_sha256": "0" * 64}
        )


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def test_spans_nest_and_self_times_add_up(small):
    from repro.core.config import GQBEConfig
    from repro.core.gqbe import GQBE

    work, dataset = small
    config = GQBEConfig(**workloads.CONFIGS["r10"])
    system = GQBE.from_snapshot(work / "snapshot", config)
    population = inputs.query_population(dataset.tables, (1, 2), "7:spans")
    recorder = spans.Recorder()
    started = time.perf_counter()
    staged = []
    with spans.wrapped_joins(recorder):
        for query in population:
            recorder.query_id = query["id"]
            staged.append(
                spans.staged_query(system, config, query["tuples"], 10, recorder)
            )
    wall = time.perf_counter() - started
    from repro.lattice import exploration
    from repro.storage import join

    assert exploration.extend_with_edge is join.extend_with_edge  # unwrapped again
    for query, result in zip(population, staged):
        facade = (
            system.query(query["tuples"][0], k=10)
            if len(query["tuples"]) == 1
            else system.query_multi(query["tuples"], k=10)
        )
        assert [(a.entities, a.score) for a in result.answers] == [
            (a.entities, a.score) for a in facade.answers
        ]
    recorded = recorder.spans
    names = {span[spans.NAME] for span in recorded}
    assert {"query", "graph.neighborhood", "discovery.reduction", "discovery.mqg",
            "discovery.merge", "lattice.query_graph", "lattice.exploration",
            "storage.join"} <= names
    for index, span in enumerate(recorded):
        parent = span[spans.PARENT]
        assert span[spans.END] >= span[spans.START]
        if span[spans.NAME] == "query":
            assert parent == -1
            continue
        assert 0 <= parent < index
        assert recorded[parent][spans.START] <= span[spans.START]
        assert span[spans.END] <= recorded[parent][spans.END]
        assert recorded[parent][spans.QUERY] == span[spans.QUERY]
        if span[spans.NAME] == "storage.join":
            assert recorded[parent][spans.NAME] == "lattice.exploration"
    own = spans.self_times(recorded)
    assert all(value >= 0 for value in own)
    roots = sum(
        span[spans.END] - span[spans.START]
        for span in recorded
        if span[spans.PARENT] == -1
    )
    assert sum(own) == pytest.approx(roots)
    # Nothing the facade does lies outside the staged spans: the per-query
    # self times account for the wall time of the traced pass.
    assert sum(own) >= 0.95 * wall
    layers = spans.layer_metrics(recorded)
    assert layers["storage.join.calls"] > 0
    assert layers["lattice.exploration.self_s"] <= layers["lattice.exploration.busy_s"]
    assert 0 < layers["discovery.reduction.kept_ratio"] <= 1


def test_fastest_per_query_keeps_whole_subtrees():
    def tree(base: float, slow: float) -> list[list]:
        # root, two children, one grandchild; indices are local to the pass
        return [
            ["query", base, base + slow, -1, "q", None],
            ["a", base, base + slow / 2, 0, "q", None],
            ["b", base + slow / 2, base + slow, 0, "q", None],
            ["c", base + slow / 2, base + slow * 0.75, 2, "q", None],
        ]

    first = tree(0.0, 1.0) + [[n, b + 10, e + 10, p + 4 if p >= 0 else -1, q, x]
                              for n, b, e, p, q, x in tree(0.0, 4.0)]
    second = tree(0.0, 2.0) + [[n, b + 10, e + 10, p + 4 if p >= 0 else -1, q, x]
                               for n, b, e, p, q, x in tree(0.0, 3.0)]
    merged = spans.fastest_per_query([first, second])
    assert [span[spans.NAME] for span in merged] == ["query", "a", "b", "c"] * 2
    assert [span[spans.PARENT] for span in merged] == [-1, 0, 0, 2, -1, 4, 4, 6]
    durations = [s[spans.END] - s[spans.START] for s in merged if s[spans.PARENT] < 0]
    assert durations == [1.0, 3.0]  # query 1 from the first pass, query 2 from the second


def test_a_raising_query_is_recorded_in_the_timed_and_the_traced_pass(small):
    from perfbench import child
    from repro.core.config import GQBEConfig
    from repro.core.gqbe import GQBE

    work, dataset = small
    config = GQBEConfig(**workloads.CONFIGS["r10"])
    system = GQBE.from_snapshot(work / "snapshot", config)
    good = inputs.query_population(dataset.tables, (1,), "7:raising")[:2]
    bad = {"id": "bad.0", "table": "F2", "tuples": [["NoSuchEntity", "NorThis"]]}
    queries = [good[0], bad, good[1]]
    timed = child._timed_pass(system, queries, 10)["records"]
    _spans, traced = child._traced_pass(system, config, queries, 10)
    for records in (timed, traced):
        assert [record["id"] for record in records] == [q["id"] for q in queries]
        assert "UnknownEntityError" in records[1]["error"]
        assert "answers" in records[0] and "answers" in records[2]


def test_an_errored_query_does_not_misalign_the_staged_comparison(tmp_path):
    from types import SimpleNamespace

    queries = [
        {"id": f"F2.{i}", "table": "F2", "tuples": [[f"maker{i}", f"model{i}"]]}
        for i in range(3)
    ]

    def record(query: dict) -> dict:
        if query["id"] == "F2.0":
            return {"id": query["id"], "error": "QueryError('boom')"}
        return {"id": query["id"], "seconds": 0.01, "answers": [[[query["id"], "x"], 1.0]]}

    class FakeChildren:
        """Stands in for the engine child: every pass answers, F2.0 raises."""

        def spawn(self, role, spec, stdin=False):
            self.passes = spec["passes"]

        def wait_line(self, child, prefix):
            return prefix

        def finish(self, child):
            last = self.passes[-1]
            return {
                "passes": [{"records": [record(q) for q in p]} for p in self.passes],
                "first_pass_rss_mb": 1.0,
                "peak_rss_mb": 1.0,
                "traced": {
                    "records": [record(q) for q in last],
                    "spans": [
                        ["query", float(i), i + 0.01, -1, q["id"], None]
                        for i, q in enumerate(last)
                    ],
                },
            }

    tables = {"F2": [("maker9", "model9")]}
    outcome = workloads.Outcome(tables)
    workloads.run_engine(
        workloads.WORKLOADS["single_r15"],
        workloads.Run(seed=1, seconds=workloads.NOMINAL_SECONDS, trace=True),
        SimpleNamespace(dataset=SimpleNamespace(tables=tables), snapshots=[tmp_path]),
        queries,
        outcome,
        FakeChildren(),
    )
    assert outcome.attempted == 3
    assert outcome.failures == ["query F2.0: QueryError('boom')"]


# ----------------------------------------------------------------------
# the comparator
# ----------------------------------------------------------------------
def _document(value: float, dump: str = "d", backend: str = "pure") -> dict:
    end_to_end = {m["name"]: value for m in BENCHMARK["end_to_end"]}
    return {
        "workloads": {
            "single_r15": {
                "inputs": {"dump_sha256": dump, "population_sha256": "p"},
                "kernel_backend": backend,
                "end_to_end": end_to_end,
            }
        }
    }


def _verdicts(side_a, side_b) -> dict:
    rows = compare.compare(side_a, side_b, BENCHMARK)
    return {row["metric"]: row["verdict"] for row in rows}


def test_comparator_verdicts():
    same = _verdicts([_document(100.0)], [_document(100.0)])
    assert set(same.values()) == {"ok"}
    worse = _verdicts([_document(100.0)], [_document(130.0)])
    assert worse["query_p50_ms"] == "regressed"  # lower is better
    assert worse["queries_per_s"] == "ok"  # higher is better
    better = _verdicts([_document(100.0)], [_document(70.0)])
    assert better["query_p50_ms"] == "ok"
    assert better["queries_per_s"] == "regressed"
    noisy = _verdicts(
        [_document(v) for v in (60.0, 100.0, 140.0)],
        [_document(v) for v in (90.0, 130.0, 170.0)],
    )
    assert set(noisy.values()) == {"unresolved"}
    steady = _verdicts(
        [_document(v) for v in (99.0, 100.0, 101.0)],
        [_document(v) for v in (129.0, 130.0, 131.0)],
    )
    assert steady["query_p50_ms"] == "regressed"


def test_comparator_refuses_different_inputs_or_backend():
    with pytest.raises(ValueError, match="did not measure the same thing"):
        compare.compare([_document(1.0)], [_document(1.0, dump="other")], BENCHMARK)
    with pytest.raises(ValueError, match="did not measure the same thing"):
        compare.compare([_document(1.0)], [_document(1.0, backend="native")], BENCHMARK)


# ----------------------------------------------------------------------
# processes and the work directory
# ----------------------------------------------------------------------
def _serve_spec(work: Path) -> dict:
    return {"snapshot": str(work / "snapshot"), "config": workloads.CONFIGS["r10"]}


def test_children_are_reaped_when_the_block_raises(small, tmp_path):
    work, _dataset = small
    with pytest.raises(RuntimeError, match="boom"):
        with Children(tmp_path) as children:
            server = children.spawn("serve", _serve_spec(work), stdin=True)
            assert children.wait_line(server, "port").startswith("port ")
            assert children.alive() == [server.process.pid]
            raise RuntimeError("boom")
    assert server.process.poll() is not None
    assert not processes_mentioning(str(tmp_path))


def test_a_failing_child_is_an_error_not_a_result(tmp_path):
    with Children(tmp_path) as children:
        with pytest.raises(ChildFailed):
            children.run("build", {"dump": "/nonexistent", "snapshot": str(tmp_path / "s")})


def test_server_child_stops_when_its_stdin_ends(small, tmp_path):
    work, _dataset = small
    with Children(tmp_path) as children:
        server = children.spawn("serve", _serve_spec(work), stdin=True)
        children.wait_line(server, "port")
        server.process.stdin.close()
        assert children.finish(server)["peak_rss_mb"] > 0
        assert children.alive() == []


def _work_dir_of(process: subprocess.Popen) -> Path:
    return WORK_ROOT / f"run-{process.pid}"


def test_work_directory_is_removed_on_success_and_on_failure(tmp_path):
    ok = subprocess.Popen([*RUN, "--smoke", "--workload", "build_warm"],
                          stdout=subprocess.DEVNULL)
    assert ok.wait(timeout=120) == 0
    assert not _work_dir_of(ok).exists()
    # A program that cannot even be imported: every child fails at once.
    env = {**os.environ, "GQBE_NATIVE_KERNELS": "on", "GQBE_FORCE_PURE": ""}
    from repro import _kernels

    if not _kernels.native_available():
        bad = subprocess.Popen([*RUN, "--smoke", "--workload", "build_warm"],
                               stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                               env=env, text=True)
        stdout, _ = bad.communicate(timeout=120)
        assert bad.returncode != 0
        assert '"correct"' not in stdout
        assert not _work_dir_of(bad).exists()


def test_interrupt_reaps_the_server_and_removes_the_work_directory():
    run = subprocess.Popen([*RUN, "--smoke", "--workload", "serve_mixed"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    work = _work_dir_of(run)
    deadline = time.monotonic() + 60
    while not list(work.glob("serve_mixed/serve-*.spec.json")):
        assert run.poll() is None, "the run ended before the server was started"
        assert time.monotonic() < deadline, "the server was never started"
        time.sleep(0.01)
    run.send_signal(signal.SIGINT)
    stdout, _ = run.communicate(timeout=60)
    assert run.returncode != 0
    assert '"correct"' not in stdout
    assert not work.exists()
    assert not processes_mentioning(str(work))
