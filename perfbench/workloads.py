"""The four workloads: what each runs, how it is set up, what it reports.

Engine configs and sizes are constants, not knobs.  Every workload has
the same two phases, so every end-to-end metric exists on every
workload:

1. **set-up** (``setup_s``) — generate the dump, build the v3 snapshot in
   a child process (``snapshot_bytes_per_triple``), start the measured
   process.  Generate-and-build is repeated ``setup_repeats`` times and
   the median taken.
2. **queries** (``queries_per_s``, ``query_p50_ms``, ``query_p90_ms``,
   ``precision_at_10``) — the workload's own query phase, repeated
   ``REPEATS`` times inside the run with the best repeat reported: this
   machine's noise only ever slows a repeat down, for seconds at a time.
   ``peak_rss_mb`` is the process that does the workload's bulk work.

All load is closed-loop: a client sends its next request only after the
previous answer, so a slower program receives less load.  The engine
workloads have one client; ``serve_mixed`` has two connections.
"""

from __future__ import annotations

import gc
import http.client
import json
import socket
import statistics
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

from perfbench import inputs, spans, stats
from perfbench.procs import Children

K = 10
#: Times a query phase is repeated inside a run, the best repeat counting:
#: passes over an engine workload's query list, rounds of serve traffic.
#: A third costs 10-14 s a run, which the driver's time cap has no room for.
REPEATS = 2
#: ``--seconds`` for which the sizes below were calibrated (BENCHMARK.json
#: ``run_seconds``); another value scales the amount of work, not a timer,
#: so two commits always answer the same queries.
NOMINAL_SECONDS = 15

#: The paper's ``r`` with safety caps.  ``max_join_rows`` is 10 000, not
#: the 100 000 of the ``benchmarks/`` harness: at 100 000 one pass over a
#: hundred r=15 queries takes 25 s (and one query in 200 takes 18 s), so
#: the repeats a steady number needs do not fit a run.
CONFIGS = {
    "r15": {"mqg_size": 15, "node_budget": 1000, "max_join_rows": 10_000},
    "r10": {
        "mqg_size": 10,
        "k_prime": 25,
        "node_budget": 1000,
        "max_join_rows": 10_000,
    },
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "engine" | "serve" | "build"
    scale: float
    config: str
    #: Example tuples per query, one entry per query of each table.
    tuples_per_query: tuple[int, ...]
    setup_repeats: int
    #: Fresh processes that map the snapshot and answer cold.
    cold_starts: int
    #: serve only: requests, requests between ingests, triples per ingest.
    requests: int = 0
    ingest_every: int = 0
    ingest_size: int = 50
    #: Ground-truth tables the query population leaves out.
    tables_left_out: frozenset[str] = frozenset()


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            name="single_r15",
            why=(
                "Fig. 14 shape (r=15, single tuples, 44k edges; joins capped at 10k rows, "
                "tables F1/F4 left out as they never reach the lattice): lattice "
                "exploration and joins do nearly all the work"
            ),
            kind="engine",
            scale=10,
            config="r15",
            tuples_per_query=(1,) * 6,
            setup_repeats=2,
            cold_starts=3,
            tables_left_out=inputs.NO_LATTICE_WORK,
        ),
        Workload(
            name="multi_large",
            why=(
                "Fig. 16 / Table 6 shape at 177k edges with 1-3 example tuples a query "
                "(joins capped at 10k rows): neighborhood extraction, MQG discovery "
                "and merge dominate"
            ),
            kind="engine",
            scale=40,
            config="r10",
            tuples_per_query=(1, 1, 2, 2, 3),
            setup_repeats=1,
            cold_starts=3,
        ),
        Workload(
            name="serve_mixed",
            why=(
                "HTTP serving with writes beside reads: Zipf traffic on 2 connections, "
                "cache hits, batched misses, ingests that invalidate; one compaction "
                "timed alone, with no read during or after it"
            ),
            kind="serve",
            scale=10,
            config="r10",
            tuples_per_query=(1,) * 6,
            setup_repeats=2,
            cold_starts=3,
            requests=600,
            ingest_every=100,
            tables_left_out=inputs.NO_LATTICE_WORK,
        ),
        Workload(
            name="build_warm",
            why=(
                "offline and restart cost at 177k triples: streaming build, then fresh "
                "processes map the snapshot and answer their first 20 queries cold"
            ),
            kind="build",
            scale=40,
            config="r10",
            tuples_per_query=(1,) * 5,
            setup_repeats=1,
            cold_starts=5,
        ),
    )
}


def smoke(workload: Workload) -> Workload:
    """A tenth of the scale and ~20 queries: checks the plumbing, not the speed."""
    return replace(
        workload,
        scale=workload.scale / 10,
        tuples_per_query=(max(workload.tuples_per_query),),
        setup_repeats=1,
        cold_starts=1,
        requests=workload.requests // 6,
        ingest_every=workload.ingest_every // 2,
        ingest_size=10,
    )


# ----------------------------------------------------------------------
# shared phases
# ----------------------------------------------------------------------
@dataclass
class Prepared:
    """What set-up leaves behind for the later phases."""

    dataset: inputs.Dataset
    snapshots: list[Path]  # one per repeat, identical
    setup_seconds: list[float]
    builds: list[dict]  # build child outputs, one per repeat


def set_up(workload: Workload, work: Path, children: Children) -> Prepared:
    """Generate the dump and build its snapshot, ``setup_repeats`` times."""
    seconds, builds, snapshots = [], [], []
    dataset = None
    for repeat in range(workload.setup_repeats):
        started = time.perf_counter()
        dataset = inputs.generate_dump(
            inputs.DATASET_SEED, workload.scale, work / "dump.tsv"
        )
        gc.collect()  # the generated graph is cyclic garbage by now
        snapshots.append(work / f"snapshot-{repeat}")
        builds.append(
            children.run(
                "build", {"dump": str(dataset.dump), "snapshot": str(snapshots[-1])}
            )
        )
        seconds.append(time.perf_counter() - started)
    return Prepared(dataset, snapshots, seconds, builds)


def read_dump_rows_per_s(dump: Path) -> float:
    """The reader floor: ``iter_triples_chunked`` alone over the dump."""
    from repro.graph.triples import iter_triples_chunked

    started = time.perf_counter()
    rows = sum(len(chunk) for chunk in iter_triples_chunked(dump))
    return rows / (time.perf_counter() - started)


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
class Outcome:
    """Tally of attempted/failed operations and of answer quality."""

    def __init__(self, tables: dict) -> None:
        self.tables = tables
        self.attempted = 0
        self.failures: list[str] = []
        self.empty_answers = 0
        #: Per distinct query (its latest answer), so quality does not
        #: depend on how often the Zipf traffic repeats a tuple.
        self.precision_by_query: dict[str, float] = {}
        self.digests: dict[str, str] = {}

    def fail(self, what: str) -> None:
        self.failures.append(what)

    def operation(self, what: str, ok: bool, detail: str = "") -> None:
        """A non-query operation (build, restart, ingest, compaction)."""
        self.attempted += 1
        if not ok:
            self.fail(f"{what}: {detail}")

    def query(
        self, query: dict, answers: list | None, error: str | None, digest: bool = True
    ) -> None:
        """Check one answered query and fold it into the quality tally.

        ``digest=False`` keeps the answer out of ``answers_sha256`` (for
        answers that legitimately depend on timing).
        """
        from repro.evaluation.metrics import precision_at_k

        self.attempted += 1
        if error is None:
            error = stats.check_answers(answers, query["tuples"], K)
        if error is not None:
            self.fail(f"query {query['id']}: {error}")
            return
        self.empty_answers += not answers
        self.precision_by_query[query["id"]] = precision_at_k(
            [tuple(entities) for entities, _ in answers],
            inputs.ground_truth(self.tables, query),
            K,
        )
        if digest:
            self.digests[query["id"]] = stats.answer_digest(answers)

    def precision_at_k(self) -> float:
        values = self.precision_by_query.values()
        return sum(values) / max(1, len(values))

    def records(self, queries: list[dict], records: list[dict]) -> list[float]:
        """Check a child's per-query records; returns the latencies in ms."""
        by_id = {query["id"]: query for query in queries}
        latencies = []
        for record in records:
            self.query(by_id[record["id"]], record.get("answers"), record.get("error"))
            if "seconds" in record:
                latencies.append(record["seconds"] * 1e3)
        return latencies

    def answers_sha256(self) -> str:
        return stats.sha256_json(sorted(self.digests.items()))


def query_metrics(latencies_ms: list[float], busy_seconds: float, counts: dict) -> dict:
    """Throughput, and median / p90 latency under the ten-beyond rule."""
    p90, used = stats.percentile_by_rule(latencies_ms, 90.0)
    counts["query_p50_ms"] = counts["query_p90_ms"] = len(latencies_ms)
    if used != 90.0:
        counts["query_p90_ms.percentile_used"] = used
    return {
        "queries_per_s": len(latencies_ms) / busy_seconds,
        "query_p50_ms": statistics.median(latencies_ms),
        "query_p90_ms": p90,
    }


def build_rows_per_s(build: dict) -> float:
    return build["report"]["triples_read"] / build["report"]["total_seconds"]


def build_layers(build: dict) -> dict:
    report = build["report"]
    return {
        "storage.build.rows_per_s": build_rows_per_s(build),
        "storage.build.pass1_s": report["pass1_seconds"],
        "storage.build.pass2_s": report["pass2_seconds"],
        "storage.build.finalize_labels_s": report["finalize_labels_seconds"],
        "storage.build.finalize_shards_s": report["finalize_shards_seconds"],
        "storage.build.spill_runs": report["spill_runs"],
        "storage.build.peak_rss_mb": build["peak_rss_mb"],
    }


# ----------------------------------------------------------------------
# the query phases
# ----------------------------------------------------------------------
def run_engine(workload, run, prepared, population, outcome, children) -> dict:
    """``REPEATS`` passes over the query list in one fresh process, one client.

    The first pass runs in the population's own, pinned order and the
    second in the seed's.  A query's latency is the faster of its two
    runs: the first pass also warms the lazily mapped shards, and a burst
    of noise from the machine has to hit the same query both times to
    count.  Both passes must return identical answers.  Peak resident
    size is read after the first pass: in one order it repeats within
    1-6 %, in a shuffled order the allocator's fragmentation moved it by
    7-11 %.
    """
    tables = len({query["table"] for query in population})
    count = min(len(population), max(tables, round(len(population) * run.work_factor)))
    queries = population[:count]
    ordered = inputs.ordered_queries(queries, run.seed)
    started = time.perf_counter()
    engine = children.spawn(
        "engine",
        {
            "snapshot": str(prepared.snapshots[-1]),
            "config": CONFIGS[workload.config],
            "passes": [queries] + [ordered] * (REPEATS - 1),
            "k": K,
            "trace": run.trace,
        },
    )
    children.wait_line(engine, "ready")
    start_seconds = time.perf_counter() - started
    out = children.finish(engine)

    runs: dict[str, list[dict]] = {query["id"]: [] for query in queries}
    for timed in out["passes"]:
        for record in timed["records"]:
            runs[record["id"]].append(record)
    latencies, digests = [], {}
    for query in ordered:
        records = runs[query["id"]]
        error = next((r["error"] for r in records if "error" in r), None)
        outcome.query(query, records[-1].get("answers"), error)
        if error is not None:
            continue
        digests[query["id"]] = stats.answer_digest(records[-1]["answers"])
        if any(
            stats.answer_digest(r["answers"]) != digests[query["id"]] for r in records
        ):
            outcome.fail(f"query {query['id']}: answers differ between the passes")
        latencies.append(min(r["seconds"] for r in records) * 1e3)
    counts: dict = {}
    result = {
        "start_seconds": start_seconds,
        "query_list_sha256": stats.sha256_json([query["id"] for query in ordered]),
        "query_metrics": query_metrics(latencies, sum(latencies) / 1e3, counts),
        "peak_rss_mb": out["first_pass_rss_mb"],
        "repeats": [
            {"pass_s": sum(r.get("seconds", 0.0) for r in timed["records"])}
            for timed in out["passes"]
        ],
        "layers": {},
        "counts": counts,
    }
    if run.trace:
        traced = out["traced"]
        for record in traced["records"]:
            if record["id"] not in digests:
                continue  # the facade failed on it too, and that is counted
            if "error" in record:
                outcome.fail(f"query {record['id']}: staged replay {record['error']}")
            elif stats.answer_digest(record["answers"]) != digests[record["id"]]:
                outcome.fail(f"query {record['id']}: staged replay answers differ")
        layers = spans.layer_metrics(traced["spans"])
        recorded = traced["spans"]

        def seconds(chosen) -> float:
            return sum(span[spans.END] - span[spans.START] for span in chosen)

        traced_total = seconds(s for s in recorded if s[spans.PARENT] < 0)
        staged = seconds(
            s
            for s in recorded
            if s[spans.PARENT] >= 0 and recorded[s[spans.PARENT]][spans.PARENT] < 0
        )
        # Like with like: each query's faster run of the two staged passes
        # against its faster run of the last two facade passes, all four in
        # the seed's order and warm.
        facade = sum(min(r["seconds"] for r in runs[i][-2:]) for i in digests)
        layers["core.gqbe.overhead_s"] = facade - staged
        layers["trace.overhead_ratio"] = traced_total / facade
        result["layers"] = layers
        result["spans"] = traced["spans"]
    return result


class _Answered(NamedTuple):
    """One answered ``/query`` request as the load generator saw it."""

    index: int
    began: float
    seconds: float
    cached: bool
    delta_live: bool  # an ingest was acknowledged since the last compaction

    @property
    def ms(self) -> float:
        return self.seconds * 1e3


class _Connection:
    """One keep-alive HTTP connection with Nagle off (see serving/loadgen.py)."""

    def __init__(self, port: int) -> None:
        self.http = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        self.http.connect()
        self.http.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def call(self, method: str, path: str, payload=None) -> tuple[int, object, float]:
        body = json.dumps(payload).encode("utf-8") if payload is not None else None
        headers = {"Content-Type": "application/json"} if body else {}
        started = time.perf_counter()
        self.http.request(method, path, body=body, headers=headers)
        response = self.http.getresponse()
        raw = response.read()
        elapsed = time.perf_counter() - started
        if response.getheader("Content-Type", "").startswith("application/json"):
            return response.status, json.loads(raw), elapsed
        return response.status, raw.decode("utf-8"), elapsed

    def close(self) -> None:
        self.http.close()


def _serve_round(workload, snapshot, requests, batches, outcome, children) -> dict:
    """One fresh server answers ``requests`` over two closed-loop connections."""
    count = len(requests)
    started = time.perf_counter()
    server = children.spawn(
        "serve",
        {"snapshot": str(snapshot), "config": CONFIGS[workload.config]},
        stdin=True,
    )
    port = int(children.wait_line(server, "port").split()[1])
    start_seconds = time.perf_counter() - started

    # The clients only record; every response is checked after the round, so
    # checking never competes with the other connection for the runner's GIL.
    responses: list[tuple] = []  # (index, began, seconds, status, body, delta_live)
    ingests: list[tuple] = []  # (seconds, status, body, batch size)
    state = {"delta_live": False}
    errors: list[BaseException] = []

    def client(connection_index: int) -> None:
        connection = _Connection(port)
        try:
            for index in range(connection_index, count, 2):
                # Connection 0 ingests before its first request at or past
                # every ``ingest_every``-th index: by request index, not clock.
                if connection_index == 0 and index // workload.ingest_every > len(ingests):
                    batch = batches[len(ingests)]
                    status, body, seconds = connection.call(
                        "POST", "/admin/ingest", {"triples": batch}
                    )
                    ingests.append((seconds, status, body, len(batch)))
                    state["delta_live"] = True
                delta_live = state["delta_live"]
                began = time.perf_counter()
                status, body, seconds = connection.call(
                    "POST", "/query", {"tuple": requests[index]["tuples"][0], "k": K}
                )
                responses.append((index, began, seconds, status, body, delta_live))
        # Carried to the runner's thread, which re-raises it.
        except BaseException as error:  # noqa: BLE001
            errors.append(error)
        finally:
            connection.close()

    threads = [
        threading.Thread(target=client, args=(index,), daemon=True) for index in (0, 1)
    ]
    wall_started = time.perf_counter()
    for thread in threads:
        thread.start()
    try:
        for thread in threads:
            thread.join()
    except BaseException:
        # Interrupted: end the server so the blocked clients return, and
        # wait for them.  A daemon thread frozen mid-call when the
        # interpreter exits can hang its finalization.
        server.process.kill()
        for thread in threads:
            thread.join(timeout=10)
        raise
    wall = time.perf_counter() - wall_started
    if errors:
        raise errors[0]

    # The compaction comes after the last query, with nothing in flight and
    # no read after it: compact() reloads the engine with a default
    # GQBEConfig, dropping the node_budget / max_join_rows the server was
    # started with, and one uncapped r=15 query after it took 130 s and
    # 16 GB here (README.md, "What the first run contradicts").  Only the
    # compaction's own cost is measured.
    admin = _Connection(port)
    try:
        status, body, compact_seconds = admin.call("POST", "/admin/compact")
        outcome.operation("compact", status == 200, f"{status} {body!r}")
        _, server_stats, _ = admin.call("GET", "/stats")
        _, metrics_text, _ = admin.call("GET", "/metrics")
    finally:
        admin.close()
    server.process.stdin.close()  # the server child stops when its stdin ends
    out = children.finish(server)

    for seconds, status, body, size in ingests:
        ok = status == 200 and body.get("applied") == size
        outcome.operation("ingest", ok, f"{status} {body!r}")
    answered: list[_Answered] = []
    digests = []
    for index, began, seconds, status, body, delta_live in sorted(responses):
        if status != 200:
            outcome.query(requests[index], None, f"HTTP {status} {body!r}")
            continue
        answers = [[answer["entities"], answer["score"]] for answer in body["answers"]]
        # Only connection 0 ingests, so how many ingests one of its own
        # requests has seen is fixed by the request index; connection 1
        # races them, and its answers may differ from round to round.
        outcome.query(requests[index], answers, None, digest=index % 2 == 0)
        if index % 2 == 0:
            digests.append(stats.answer_digest(answers))
        answered.append(
            _Answered(index, began, seconds, bool(body["cached"]), delta_live)
        )
    return {
        "start_seconds": start_seconds,
        "wall": wall,
        "answered": answered,
        "answers_sha256": stats.sha256_json(digests),
        "ingest_ms": [seconds * 1e3 for seconds, _, _, _ in ingests],
        "compact_seconds": compact_seconds,
        "server_stats": server_stats,
        "metrics_text": metrics_text,
        "peak_rss_mb": out["peak_rss_mb"],
    }


def run_serve(workload, run, prepared, population, outcome, children) -> dict:
    """Zipf traffic over two closed-loop connections with ingests beside it.

    The same traffic runs ``REPEATS`` times, each round against a fresh
    server on a snapshot of its own (so at most ``setup_repeats`` rounds);
    every end-to-end figure is its best round's.  The per-layer figures
    are the fastest round's, except the tail and the ingest latency,
    which pool the samples of all rounds.
    """
    count = max(100, round(workload.requests * run.work_factor))
    requests = inputs.zipf_requests(population, run.seed, count, workload.ingest_every)
    batches = inputs.ingest_batches(
        prepared.dataset.dump,
        run.seed,
        (count - 1) // workload.ingest_every,
        workload.ingest_size,
    )
    rounds = [
        _serve_round(workload, snapshot, requests, batches, outcome, children)
        for snapshot in prepared.snapshots[:REPEATS]
    ]
    if len({served["answers_sha256"] for served in rounds}) != 1:
        outcome.fail("connection 0's answers differ between the rounds")
    counts: dict = {}
    per_round = [
        query_metrics([s.ms for s in served["answered"]], served["wall"], counts)
        for served in rounds
    ]
    best = max(range(len(rounds)), key=lambda index: per_round[index]["queries_per_s"])
    served = rounds[best]
    answered = served["answered"]

    def p50(values: list[float]) -> float:
        return statistics.median(values) if values else 0.0

    misses = [sample for sample in answered if not sample.cached]
    pooled = [sample.ms for one in rounds for sample in one["answered"]]
    p99, p99_used = stats.percentile_by_rule(pooled, 99.0)
    ingest_ms = [ms for one in rounds for ms in one["ingest_ms"]]
    cache = served["server_stats"]["cache"]
    batcher = served["server_stats"]["batcher"]
    from repro.serving.metrics import parse_prometheus_text

    prometheus = parse_prometheus_text(served["metrics_text"])

    def stage_sum(stage: str) -> float:
        return prometheus.get(("gqbe_stage_seconds_sum", (("stage", stage),)), 0.0)

    shed = sum(
        value
        for (name, labels), value in prometheus.items()
        if name in ("gqbe_http_shed_total", "gqbe_http_timeouts_total")
    )
    layers = {
        "serving.async_server.query_p99_ms": p99,
        "serving.async_server.hit_p50_ms": p50([s.ms for s in answered if s.cached]),
        "serving.async_server.miss_p50_ms": p50([s.ms for s in misses]),
        "serving.async_server.shed": shed,
        "serving.async_server.ingest_p50_ms": p50(ingest_ms),
        "serving.cache.hit_ratio": cache["hits"] / max(1, cache["hits"] + cache["misses"]),
        "serving.batching.batches": batcher["batches_run"],
        "serving.batching.mean_batch_size": batcher["mean_batch_size"],
        "serving.async_server.stage_admission_s": stage_sum("admission"),
        "serving.async_server.stage_execute_s": stage_sum("execute"),
        "serving.async_server.stage_total_s": stage_sum("total"),
        "graph.mapped.miss_p50_ms": p50([s.ms for s in misses if not s.delta_live]),
        "graph.delta.miss_p50_ms": p50([s.ms for s in misses if s.delta_live]),
        "storage.generations.compact_s": served["compact_seconds"],
    }
    counts["serving.async_server.query_p99_ms"] = len(pooled)
    counts["serving.async_server.ingest_p50_ms"] = len(ingest_ms)
    if p99_used != 99.0:
        counts["serving.async_server.query_p99_ms.percentile_used"] = p99_used
    if run.trace:
        probe = children.run(
            "probe_serving",
            {
                "snapshot": str(prepared.snapshots[-1]),
                "config": CONFIGS[workload.config],
                "query": requests[0],
                "k": K,
                "hit_repeats": 2000,
                "ingest_batch": batches[0],
            },
        )
        outcome.operation(
            "in-process ingest", probe["applied"] == len(batches[0]), repr(probe["applied"])
        )
        layers["serving.core.handle_query_hit_us"] = 1e6 * statistics.median(
            probe["hit_seconds"]
        )
        layers["storage.ingest.apply_ms"] = 1e3 * probe["ingest_s"]
    return {
        "start_seconds": statistics.median(s["start_seconds"] for s in rounds),
        "query_list_sha256": stats.sha256_json([query["id"] for query in requests]),
        "query_metrics": {
            "queries_per_s": max(m["queries_per_s"] for m in per_round),
            "query_p50_ms": min(m["query_p50_ms"] for m in per_round),
            "query_p90_ms": min(m["query_p90_ms"] for m in per_round),
        },
        "peak_rss_mb": max(s["peak_rss_mb"] for s in rounds),
        "repeats": [
            {**metrics, "peak_rss_mb": one["peak_rss_mb"]}
            for metrics, one in zip(per_round, rounds)
        ],
        "layers": layers,
        "counts": counts,
        "spans": [
            ["serving.request", s.began, s.began + s.seconds, -1, f"request-{s.index}",
             {"cached": int(s.cached), "delta_live": int(s.delta_live)}]
            for s in answered
        ],
    }


def run_restarts(workload, run, prepared, population, outcome, children) -> dict:
    """``build_warm``'s query phase: restarts, import and load time included."""
    count = max(1, round(workload.cold_starts * run.work_factor))
    return restarts(
        workload, prepared, population, count, len(population), outcome, children
    )


def restarts(
    workload, prepared, population, count: int, per_restart: int, outcome, children
) -> dict:
    """``count`` fresh processes each map the snapshot and answer cold.

    Restart ``i`` answers query ``i`` of every table, at most
    ``per_restart`` of them.  Seconds from process start to the first
    answer are taken here, outside the child, so interpreter start counts.
    """
    slots = len(workload.tuples_per_query)
    first_answers, colds, latencies, asked = [], [], [], []
    counts: dict = {}
    started = time.perf_counter()
    for restart in range(count):
        queries = [
            query for query in population if query["id"].endswith(f".{restart % slots}")
        ][:per_restart]
        spawned = time.perf_counter()
        child = children.spawn(
            "cold",
            {
                "snapshot": str(prepared.snapshots[-1]),
                "config": CONFIGS[workload.config],
                "queries": queries,
                "k": K,
            },
        )
        children.wait_line(child, "first")
        first_answers.append(time.perf_counter() - spawned)
        colds.append(children.finish(child))
        outcome.operation("restart", True)  # a failed restart raised ChildFailed
        latencies += outcome.records(queries, colds[-1]["records"])
        asked += [query["id"] for query in queries]
    return {
        "start_seconds": 0.0,
        "query_list_sha256": stats.sha256_json(asked),
        "query_metrics": query_metrics(latencies, time.perf_counter() - started, counts),
        "counts": counts,
        "layers": {
            "storage.snapshot.time_to_first_answer_s": statistics.median(first_answers),
            "python.import_s": statistics.median(c["import_s"] for c in colds),
            "storage.snapshot.load_ms": 1e3
            * statistics.median(c["load_s"] for c in colds),
            "storage.shards.tables_opened": statistics.median(
                c["tables_opened"] for c in colds
            ),
        },
    }


@dataclass(frozen=True)
class Run:
    """The arguments of one invocation that every workload shares."""

    seed: int
    seconds: float
    trace: bool

    @property
    def work_factor(self) -> float:
        return self.seconds / NOMINAL_SECONDS


#: Every metric the benchmark reports, with its unit.  BENCHMARK.json lists
#: the same names (perfbench/test_perfbench.py checks that they agree).
END_TO_END_UNITS = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "snapshot_bytes_per_triple": "bytes",
    "precision_at_10": "ratio",
}
PER_LAYER_UNITS = {
    "graph.neighborhood.busy_s": "s",
    "graph.neighborhood.edges_out": "count",
    "discovery.reduction.busy_s": "s",
    "discovery.reduction.kept_ratio": "ratio",
    "discovery.mqg.busy_s": "s",
    "discovery.mqg.edges_in": "count",
    "discovery.merge.busy_s": "s",
    "lattice.query_graph.busy_s": "s",
    "lattice.exploration.busy_s": "s",
    "lattice.exploration.self_s": "s",
    "lattice.exploration.nodes_evaluated": "count",
    "lattice.exploration.null_nodes": "count",
    "lattice.exploration.nodes_skipped": "count",
    "lattice.exploration.budget_exhausted": "count",
    "lattice.exploration.useful_ratio": "ratio",
    "storage.join.busy_s": "s",
    "storage.join.calls": "count",
    "storage.join.rows_out": "count",
    "storage.join.overflows": "count",
    "core.gqbe.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
    "serving.async_server.query_p99_ms": "ms",
    "serving.async_server.hit_p50_ms": "ms",
    "serving.async_server.miss_p50_ms": "ms",
    "serving.async_server.shed": "count",
    "serving.async_server.ingest_p50_ms": "ms",
    "serving.async_server.stage_admission_s": "s",
    "serving.async_server.stage_execute_s": "s",
    "serving.async_server.stage_total_s": "s",
    "serving.core.handle_query_hit_us": "us",
    "serving.cache.hit_ratio": "ratio",
    "serving.batching.batches": "count",
    "serving.batching.mean_batch_size": "count",
    "graph.mapped.miss_p50_ms": "ms",
    "graph.delta.miss_p50_ms": "ms",
    "storage.ingest.apply_ms": "ms",
    "storage.generations.compact_s": "s",
    "graph.triples.read_rows_per_s": "1/s",
    "storage.build.rows_per_s": "1/s",
    "storage.build.pass1_s": "s",
    "storage.build.pass2_s": "s",
    "storage.build.finalize_labels_s": "s",
    "storage.build.finalize_shards_s": "s",
    "storage.build.spill_runs": "count",
    "storage.build.peak_rss_mb": "MB",
    "storage.snapshot.time_to_first_answer_s": "s",
    "python.import_s": "s",
    "storage.snapshot.load_ms": "ms",
    "storage.shards.tables_opened": "count",
}

_QUERY_PHASES = {"engine": run_engine, "serve": run_serve, "build": run_restarts}


def run_workload(workload: Workload, run: Run, work: Path, check_inputs) -> dict:
    """Run one workload inside ``work`` and return its result record.

    ``check_inputs(hashes)`` is called as soon as the inputs exist, before
    anything is measured; it raises to stop a run on drifted inputs.
    """
    from repro import _kernels

    wall_started = time.perf_counter()
    with Children(work) as children:
        prepared = set_up(workload, work, children)
        population = inputs.query_population(
            {
                query_id: rows
                for query_id, rows in prepared.dataset.tables.items()
                if query_id not in workload.tables_left_out
            },
            workload.tuples_per_query,
            f"{inputs.DATASET_SEED}:{workload.name}",
        )
        input_hashes = {
            "dump_sha256": prepared.dataset.dump_sha256,
            "population_sha256": inputs.population_sha256(population),
        }
        check_inputs(input_hashes)
        outcome = Outcome(prepared.dataset.tables)
        for _ in prepared.builds:
            outcome.operation("build", True)  # a failed build raised ChildFailed
        build = sorted(prepared.builds, key=build_rows_per_s)[len(prepared.builds) // 2]
        phase = _QUERY_PHASES[workload.kind](
            workload, run, prepared, population, outcome, children
        )
        layers = dict.fromkeys(PER_LAYER_UNITS, 0.0)
        layers["trace.overhead_ratio"] = 1.0  # unless a traced pass measures it
        if run.trace:
            layers.update(build_layers(build))
            if workload.kind != "build":
                # Restart cost at this workload's scale: first answer only,
                # and untallied (Outcome counts the query phase).
                layers.update(
                    restarts(
                        workload, prepared, population, workload.cold_starts, 1,
                        Outcome(prepared.dataset.tables), children,
                    )["layers"]
                )
            layers.update(phase["layers"])
            layers["graph.triples.read_rows_per_s"] = read_dump_rows_per_s(
                prepared.dataset.dump
            )
        leftover = children.alive()
    if leftover:
        outcome.fail(f"children still alive after the run: {leftover}")

    counts = phase["counts"]
    counts["setup_s"] = len(prepared.setup_seconds)
    report = build["report"]
    end_to_end = {
        "setup_s": statistics.median(prepared.setup_seconds) + phase["start_seconds"],
        **phase["query_metrics"],
        # The process that does the workload's bulk work: the engine, the
        # server, or (build_warm) the build.
        "peak_rss_mb": phase.get("peak_rss_mb", build["peak_rss_mb"]),
        "snapshot_bytes_per_triple": report["bytes_written"] / report["triples_read"],
        "precision_at_10": outcome.precision_at_k(),
    }
    result = {
        "workload": workload.name,
        "seed": run.seed,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "failures": outcome.failures[:10],
        "empty_answers": outcome.empty_answers,
        "answers_sha256": outcome.answers_sha256(),
        "inputs": {
            **input_hashes,
            "query_list_sha256": phase["query_list_sha256"],
            "triples": prepared.dataset.triples,
            "scale": workload.scale,
        },
        "kernel_backend": _kernels.resolve_backend("auto"),
        "end_to_end": end_to_end,
        "counts": counts,
        # What each repeat of the query phase measured on its own.
        "repeats": phase.get("repeats", []),
        "wall_s": time.perf_counter() - wall_started,
    }
    if run.trace:
        result["per_layer"] = layers
        result["spans"] = phase.get("spans", [])
    return result
