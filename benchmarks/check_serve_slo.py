#!/usr/bin/env python
"""Functional SLO gate for the serving tier (CI's ``serve-slo`` job).

Runs the load generator at reduced scale against real servers and
hard-asserts *behavior*, not speed (shared CI runners are too noisy to
gate a latency median — percentiles land in the report artifact as
informational numbers):

1. **Equivalence** — the server's answers are byte-identical to calling
   ``GQBE.query`` directly for the same queries.
2. **Capacity** — a closed-loop run under the high-water mark completes
   with every request answered 200: nothing is shed, nothing errors.
3. **Overload** — an open-loop burst far past a tiny high-water mark is
   shed with 429s that all carry ``Retry-After``; zero 5xx responses
   and zero transport errors (no hung or dropped connections).
4. **Reconciliation** — ``/metrics`` parses as Prometheus text and its
   ``gqbe_http_requests_total{path="/query",...}`` deltas equal the
   loadgen's own per-status ground truth, and the queue_full shed
   counter equals the number of 429s observed on the wire.
5. **Ingest soak** — concurrent readers hammer a snapshot-backed
   server while ``POST /admin/ingest`` bursts land and an explicit
   ``POST /admin/compact`` folds the delta into a new generation.
   Every read is answered 200 (no 5xx, no transport errors — no torn
   swap), the ingest/compaction counters on ``/metrics`` reconcile
   with the wire, and the post-soak answers are identical to a system
   built from scratch over the merged edge set.

Usage::

    python benchmarks/check_serve_slo.py --json slo-report.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))


def _scrape_metrics(host: str, port: int) -> dict:
    import http.client

    from repro.serving.metrics import parse_prometheus_text

    connection = http.client.HTTPConnection(host, port, timeout=30)
    try:
        connection.request("GET", "/metrics")
        response = connection.getresponse()
        body = response.read().decode("utf-8")
    finally:
        connection.close()
    if response.status != 200:
        raise AssertionError(f"GET /metrics returned {response.status}")
    content_type = response.getheader("Content-Type", "")
    if not content_type.startswith("text/plain"):
        raise AssertionError(f"/metrics Content-Type is {content_type!r}")
    return parse_prometheus_text(body)


def _query_counts(samples: dict) -> dict[str, float]:
    """``{status code: count}`` for /query from a parsed exposition."""
    counts: dict[str, float] = {}
    for (name, labels), value in samples.items():
        if name != "gqbe_http_requests_total":
            continue
        label_map = dict(labels)
        if label_map.get("path") == "/query":
            counts[label_map["code"]] = value
    return counts


def _check(condition: bool, problems: list[str], message: str) -> None:
    status = "ok" if condition else "FAIL"
    print(f"  [{status}] {message}")
    if not condition:
        problems.append(message)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=float, default=0.25)
    parser.add_argument("--requests", type=int, default=60)
    parser.add_argument("--concurrency", type=int, default=6)
    parser.add_argument("--json", default=None, help="write the report here")
    args = parser.parse_args()

    from repro.core.gqbe import GQBE
    from repro.datasets.workloads import build_freebase_workload
    from repro.serving.async_server import AsyncGQBEServer
    from repro.serving.loadgen import run_load

    problems: list[str] = []
    report: dict = {"scale": args.scale, "timestamp": time.time()}

    print("building workload ...")
    workload = build_freebase_workload(scale=args.scale)
    system = GQBE(workload.dataset.graph)
    tuples = [list(query.query_tuple) for query in workload.queries]

    # ------------------------------------------------------------------
    # 1. equivalence: served answers == direct engine answers
    # ------------------------------------------------------------------
    print("phase 1: served answers equal direct queries")
    import http.client

    def fetch(host: str, port: int, query: list) -> dict:
        connection = http.client.HTTPConnection(host, port, timeout=60)
        try:
            connection.request(
                "POST",
                "/query",
                body=json.dumps({"tuple": query, "k": 10}).encode(),
                headers={"Content-Type": "application/json"},
            )
            return json.loads(connection.getresponse().read())
        finally:
            connection.close()

    async_server = AsyncGQBEServer(system, port=0, cache_size=0).start()
    try:
        for query in tuples:
            served = fetch(async_server.host, async_server.port, query)
            direct = system.query(tuple(query), k=10)
            expected = {
                "answers": [
                    {
                        "rank": answer.rank,
                        "entities": list(answer.entities),
                        "score": answer.score,
                        "structure_score": answer.structure_score,
                        "content_score": answer.content_score,
                    }
                    for answer in direct.answers
                ],
                "mqg_edges": direct.mqg.num_edges,
                "nodes_evaluated": direct.statistics.nodes_evaluated,
            }
            for field, value in expected.items():
                _check(
                    served.get(field) == value,
                    problems,
                    f"{field} served for {query} equal the direct query's",
                )
    finally:
        async_server.stop()

    # ------------------------------------------------------------------
    # 2. capacity: closed-loop under the high-water mark -> all 200
    #    (+ /metrics reconciliation on the same server)
    # ------------------------------------------------------------------
    print("phase 2: capacity (closed loop under high water)")
    server = AsyncGQBEServer(system, port=0, high_water=64).start()
    try:
        before = _query_counts(_scrape_metrics(server.host, server.port))
        capacity = run_load(
            server.host,
            server.port,
            tuples,
            requests=args.requests,
            concurrency=args.concurrency,
            timeout=120.0,
        )
        after = _query_counts(_scrape_metrics(server.host, server.port))
    finally:
        server.stop()
    report["capacity"] = capacity
    _check(
        capacity["status_counts"] == {"200": args.requests},
        problems,
        f"all {args.requests} capacity requests answered 200 "
        f"(got {capacity['status_counts']})",
    )
    _check(
        capacity["transport_errors"] == 0,
        problems,
        "zero transport errors under capacity",
    )
    deltas = {
        code: after.get(code, 0) - before.get(code, 0)
        for code in set(before) | set(after)
    }
    expected = {code: float(count) for code, count in capacity["status_counts"].items()}
    _check(
        deltas == expected,
        problems,
        f"/metrics /query deltas reconcile with loadgen ({deltas} == {expected})",
    )

    # ------------------------------------------------------------------
    # 3. overload: open-loop burst past a tiny high-water mark
    # ------------------------------------------------------------------
    print("phase 3: overload (open-loop burst past high water)")
    server = AsyncGQBEServer(system, port=0, high_water=2, cache_size=0).start()
    try:
        before = _query_counts(_scrape_metrics(server.host, server.port))
        overload = run_load(
            server.host,
            server.port,
            tuples,
            requests=max(40, args.requests),
            arrival="open",
            rate=400.0,
            timeout=120.0,
        )
        samples = _scrape_metrics(server.host, server.port)
        after = _query_counts(samples)
    finally:
        server.stop()
    report["overload"] = overload
    counts = overload["status_counts"]
    shed = counts.get("429", 0)
    _check(shed > 0, problems, f"overload burst was shed with 429s ({counts})")
    _check(
        overload["retry_after_seen"] == shed,
        problems,
        f"every 429 carried Retry-After ({overload['retry_after_seen']}/{shed})",
    )
    _check(
        not any(code.startswith("5") for code in counts),
        problems,
        f"zero 5xx under overload ({counts})",
    )
    _check(
        overload["transport_errors"] == 0,
        problems,
        "zero transport errors under overload (no hung/dropped connections)",
    )
    _check(
        counts.get("200", 0) + shed == overload["requests"],
        problems,
        "every overload request was answered (200 or 429)",
    )
    deltas = {
        code: after.get(code, 0) - before.get(code, 0)
        for code in set(before) | set(after)
    }
    expected = {code: float(count) for code, count in counts.items()}
    _check(
        deltas == expected,
        problems,
        f"/metrics /query deltas reconcile under overload ({deltas} == {expected})",
    )
    queue_full = samples.get(("gqbe_http_shed_total", (("reason", "queue_full"),)), 0)
    _check(
        queue_full == shed,
        problems,
        f"queue_full shed counter equals observed 429s ({queue_full} == {shed})",
    )

    # ------------------------------------------------------------------
    # 4. ingest soak: writes + compaction racing reads on a
    #    snapshot-backed server
    # ------------------------------------------------------------------
    print("phase 4: ingest soak (writes + compaction racing reads)")
    import tempfile
    import threading

    from repro.storage.snapshot import GraphStore

    def post(host: str, port: int, path: str, payload: dict) -> tuple[int, dict]:
        connection = http.client.HTTPConnection(host, port, timeout=60)
        try:
            connection.request(
                "POST",
                path,
                body=json.dumps(payload).encode(),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    soak_query = tuples[0]
    bursts = [
        [
            [f"SoakEntity_{burst}_{index}", "soak_edge_of", soak_query[0]]
            for index in range(4)
        ]
        for burst in range(6)
    ]
    with tempfile.TemporaryDirectory() as scratch:
        snapshot_path = Path(scratch) / "soak.snapdir3"
        GraphStore.build(workload.dataset.graph).save(snapshot_path)
        server = AsyncGQBEServer.from_snapshot(
            snapshot_path, port=0, high_water=64
        ).start()
        read_statuses: dict[str, int] = {}
        status_lock = threading.Lock()
        stop = threading.Event()

        def hammer() -> None:
            while not stop.is_set():
                try:
                    status, _ = post(
                        server.host,
                        server.port,
                        "/query",
                        {"tuple": soak_query, "k": 10},
                    )
                    key = str(status)
                except (OSError, http.client.HTTPException, ValueError):
                    key = "transport_error"
                with status_lock:
                    read_statuses[key] = read_statuses.get(key, 0) + 1

        readers = [threading.Thread(target=hammer) for _ in range(3)]
        applied = 0
        try:
            for thread in readers:
                thread.start()
            for burst in bursts:
                status, body = post(
                    server.host, server.port, "/admin/ingest", {"triples": burst}
                )
                _check(
                    status == 200,
                    problems,
                    f"ingest burst accepted under read load (status {status})",
                )
                applied += body.get("applied", 0)
            status, compacted = post(
                server.host, server.port, "/admin/compact", {}
            )
            _check(
                status == 200,
                problems,
                f"compaction succeeded under read load (status {status})",
            )
            # Let the readers race the freshly swapped generation too.
            time.sleep(0.25)
        finally:
            stop.set()
            for thread in readers:
                thread.join()
        try:
            samples = _scrape_metrics(server.host, server.port)
            status, final_body = post(
                server.host,
                server.port,
                "/query",
                {"tuple": soak_query, "k": 10},
            )
        finally:
            server.stop()
        report["ingest_soak"] = {
            "read_statuses": read_statuses,
            "applied": applied,
            "compacted": compacted,
        }
        total_triples = sum(len(burst) for burst in bursts)
        _check(
            applied == total_triples,
            problems,
            f"every soak triple applied ({applied}/{total_triples})",
        )
        _check(
            set(read_statuses) == {"200"},
            problems,
            f"every racing read answered 200 ({read_statuses})",
        )
        _check(
            str(compacted.get("snapshot", "")).endswith(".gen1"),
            problems,
            f"compaction wrote generation 1 ({compacted.get('snapshot')})",
        )
        _check(
            samples.get(("gqbe_ingest_requests_total", ()), 0) == len(bursts),
            problems,
            f"ingest request counter reconciles ({len(bursts)} bursts)",
        )
        _check(
            samples.get(
                ("gqbe_ingest_triples_total", (("result", "applied"),)), 0
            )
            == total_triples,
            problems,
            "applied-triple counter reconciles",
        )
        _check(
            samples.get(("gqbe_compactions_total", ()), 0) == 1,
            problems,
            "compaction counter reconciles",
        )
        _check(
            samples.get(("gqbe_delta_edges", ()), -1) == 0,
            problems,
            "delta gauge returns to zero after the fold",
        )
        merged = workload.dataset.graph.copy()
        for subject, label, obj in (t for burst in bursts for t in burst):
            merged.add_edge(subject, label, obj)
        reference = GQBE(merged).query(tuple(soak_query), k=10)
        _check(
            status == 200
            and [answer["entities"] for answer in final_body["answers"]]
            == [list(answer.entities) for answer in reference.answers],
            problems,
            "post-soak answers equal a from-scratch merged build",
        )
        # Ids do not move in a compaction, so the generation the server
        # wrote under racing reads is the snapshot a build of the merged
        # edges writes (the manifest hashes every shard).
        merged_path = Path(scratch) / "merged.snapdir3"
        GraphStore.build(merged).save(merged_path)
        compacted_manifest = Path(str(compacted.get("snapshot", ""))) / "MANIFEST.json"
        _check(
            compacted_manifest.is_file()
            and compacted_manifest.read_bytes()
            == (merged_path / "MANIFEST.json").read_bytes(),
            problems,
            "compacted generation is byte-identical to a from-scratch merged build",
        )

    # ------------------------------------------------------------------
    # report artifact (latency stays informational)
    # ------------------------------------------------------------------
    latency = capacity["latency_ms"]
    print(
        f"capacity latency ms (informational): p50 {latency['p50']:.2f}  "
        f"p95 {latency['p95']:.2f}  p99 {latency['p99']:.2f}"
    )
    report["problems"] = problems
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote report to {args.json}")

    if problems:
        print(f"\n{len(problems)} SLO violation(s):", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    print("\nserve SLO: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
