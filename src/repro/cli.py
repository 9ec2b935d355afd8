"""Command-line interface: ``gqbe`` — query, serve, generate and benchmark.

Subcommands
-----------
``gqbe query``
    Load a triple file (or a prebuilt index snapshot via ``--snapshot``),
    run a query tuple and print the ranked answers::

        gqbe query --snapshot data.snap --tuple "Jerry Yang,Yahoo!"
``gqbe build-index``
    Stream a triple file out-of-core into an index snapshot — a
    directory of memory-mappable shards — for instant warm starts::

        gqbe build-index data.tsv data.snap
``gqbe serve``
    Start the long-lived HTTP serving frontend over one warm snapshot
    (request batching + LRU answer cache; ``--workers N`` runs the
    batches on a process pool; see :mod:`repro.serving`)::

        gqbe serve --snapshot data.snap --port 8080 --workers 4
``gqbe bench-serve``
    Load-test a serving frontend (embedded, over a snapshot or a built-in
    synthetic workload) and report throughput/latency::

        gqbe bench-serve --workload freebase --requests 200 --json out.json
``gqbe ingest``
    Push a triple file into a running server's live delta overlay via
    ``POST /admin/ingest`` (``--compact`` folds it to disk afterwards)::

        gqbe ingest new-edges.tsv --url http://127.0.0.1:8080 --compact
``gqbe generate``
    Generate a synthetic Freebase-like or DBpedia-like dataset to a TSV file.
``gqbe check``
    Run the :mod:`tools.gqbecheck` static invariant analyzers (determinism,
    mapped-memory safety, concurrency hygiene, exception discipline,
    config/doc coverage) over the checkout::

        gqbe check src benchmarks tools
``gqbe experiment``
    Run one of the paper's experiments (table1, fig13, fig14, ...) and
    print its table; ``tests/test_paper_claims.py`` asserts the paper's
    claims on the same rows::

        gqbe experiment fig14 --scale 0.5
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.core.config import GQBEConfig
from repro.core.gqbe import GQBE
from repro.datasets.synthetic import DBpediaLikeGenerator, FreebaseLikeGenerator
from repro.evaluation.harness import ExperimentHarness, HarnessConfig
from repro.evaluation.reporting import format_answer_list, format_table
from repro.graph.triples import load_graph, write_triples
from repro.storage.snapshot import GraphStore


def _cmd_query(args: argparse.Namespace) -> int:
    if args.snapshot is not None:
        if args.graph is not None:
            print(
                "pass either a graph file or --snapshot, not both",
                file=sys.stderr,
            )
            return 2
        config = GQBEConfig(d=args.d, mqg_size=args.mqg_size)
        system = GQBE(config=config, graph_store=GraphStore.load(args.snapshot))
    elif args.graph is not None:
        config = GQBEConfig(d=args.d, mqg_size=args.mqg_size)
        system = GQBE(load_graph(args.graph), config=config)
    else:
        print("pass a graph file or --snapshot", file=sys.stderr)
        return 2
    tuples = [tuple(t.split(",")) for t in args.tuple]
    if len(tuples) == 1:
        result = system.query(tuples[0], k=args.k)
    else:
        result = system.query_multi(tuples, k=args.k)
    rows = [
        {
            "rank": answer.rank,
            "answer": answer.entities,
            "score": answer.score,
        }
        for answer in result.answers
    ]
    print(format_table(rows, title=f"Top-{args.k} answers"))
    print(
        f"\nMQG edges: {result.mqg.num_edges}  "
        f"lattice nodes evaluated: {result.statistics.nodes_evaluated}  "
        f"lattice nodes skipped (join cap): {result.statistics.nodes_skipped}  "
        f"peak retained rows: {result.statistics.peak_retained_rows}  "
        f"total time: {result.total_seconds:.3f}s"
    )
    return 0


def _peak_rss_bytes() -> int | None:
    """This process's peak RSS so far (None where rusage is unavailable)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms only
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is kilobytes on Linux, bytes on macOS.
    return peak if sys.platform == "darwin" else peak * 1024


def _build_index_footer(rows: int, seconds: float) -> str:
    """The shared throughput / peak-RSS report line of ``build-index``."""
    throughput = rows / seconds if seconds > 0 else 0.0
    peak = _peak_rss_bytes()
    rss = f"  peak RSS {peak / 1e6:.1f} MB" if peak is not None else ""
    return f"throughput {throughput:,.0f} rows/s{rss}"


def _cmd_build_index(args: argparse.Namespace) -> int:
    from repro.storage.build import build_streaming_snapshot

    say = (lambda *_: None) if args.quiet else print
    report = build_streaming_snapshot(
        args.graph,
        args.output,
        workers=args.build_workers,
        memory_budget_mb=args.memory_budget_mb,
    )
    say(
        f"indexed {report['edges']} edges ({report['nodes']} nodes, "
        f"{report['labels']} labels) to {args.output} "
        f"({report['bytes_written']} bytes)\n"
        f"pass1 {report['pass1_seconds']:.3f}s  "
        f"pass2 {report['pass2_seconds']:.3f}s  "
        f"finalize {report['finalize_labels_seconds'] + report['finalize_shards_seconds']:.3f}s  "
        f"({report['duplicates']} duplicates, "
        f"{report['spill_runs']} spill runs, "
        f"{report['workers']} workers, "
        f"budget {report['memory_budget_mb']} MB)"
    )
    say(_build_index_footer(report["triples_read"], report["total_seconds"]))
    return 0


def _post_json(url: str, path: str, payload, api_key: str | None, timeout: float):
    """POST ``payload`` to ``url + path``; returns ``(status, body_dict)``."""
    import http.client
    from urllib.parse import urlsplit

    parts = urlsplit(url)
    if parts.scheme not in ("http", ""):
        raise ValueError(f"only http:// URLs are supported, got {url!r}")
    host = parts.hostname or "127.0.0.1"
    port = parts.port or 80
    connection = http.client.HTTPConnection(host, port, timeout=timeout)
    headers = {"Content-Type": "application/json"}
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    try:
        connection.request("POST", path, body=json.dumps(payload), headers=headers)
        response = connection.getresponse()
        raw = response.read()
    finally:
        connection.close()
    try:
        body = json.loads(raw) if raw else {}
    except ValueError:
        body = {"error": raw.decode("utf-8", "replace")}
    return response.status, body


def _cmd_ingest(args: argparse.Namespace) -> int:
    from repro.graph.triples import read_triples

    if args.batch_size < 1:
        print(f"--batch-size must be >= 1, got {args.batch_size}", file=sys.stderr)
        return 2
    triples = read_triples(args.triples)
    if not triples:
        print(f"no triples found in {args.triples}", file=sys.stderr)
        return 2
    applied = duplicates = 0
    delta_edges = 0
    for start in range(0, len(triples), args.batch_size):
        batch = triples[start : start + args.batch_size]
        payload = {"triples": [[t.subject, t.label, t.object] for t in batch]}
        status, body = _post_json(
            args.url, "/admin/ingest", payload, args.api_key, args.timeout
        )
        if status != 200:
            print(
                f"ingest batch at offset {start} failed with HTTP {status}: "
                f"{body.get('error', body)}",
                file=sys.stderr,
            )
            return 1
        applied += body.get("applied", 0)
        duplicates += body.get("duplicates", 0)
        delta_edges = body.get("delta_edges", delta_edges)
    print(
        f"ingested {len(triples)} triples: {applied} applied, "
        f"{duplicates} duplicates, delta now {delta_edges} edges"
    )
    if args.compact:
        status, body = _post_json(
            args.url, "/admin/compact", None, args.api_key, args.timeout
        )
        if status != 200:
            print(
                f"compaction failed with HTTP {status}: "
                f"{body.get('error', body)}",
                file=sys.stderr,
            )
            return 1
        print(
            f"compacted {body.get('delta_edges')} delta edges into "
            f"{body.get('snapshot')}"
        )
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.dataset == "freebase":
        generator = FreebaseLikeGenerator(seed=args.seed, scale=args.scale)
    else:
        generator = DBpediaLikeGenerator(seed=args.seed, scale=args.scale)
    dataset = generator.generate()
    count = write_triples(sorted(dataset.graph.edges), args.output)
    print(
        f"wrote {count} triples ({dataset.graph.num_nodes} nodes, "
        f"{dataset.graph.num_labels} labels) to {args.output}"
    )
    return 0


def _load_system(args: argparse.Namespace) -> tuple[GQBE, str | None] | int:
    """Build a system from ``--snapshot`` or a triple file (shared by
    ``serve`` and ``bench-serve``); returns an exit code on usage errors."""
    if args.snapshot is not None and args.graph is not None:
        print("pass either a graph file or --snapshot, not both", file=sys.stderr)
        return 2
    if args.snapshot is not None:
        from repro.storage.generations import resolve_latest_generation

        # After a crash or restart, serve the newest compacted
        # generation of this snapshot family (sweeping any .tmp
        # wreckage a dying compaction left behind).
        resolved = str(resolve_latest_generation(args.snapshot))
        return GQBE.from_snapshot(resolved), resolved
    if args.graph is not None:
        return GQBE(load_graph(args.graph)), None
    print("pass a graph file or --snapshot", file=sys.stderr)
    return 2


def build_frontend(system: GQBE, snapshot_path: str | None, args: argparse.Namespace):
    """Construct the server the parsed ``serve``/``bench-serve`` argv
    asks for (shared with ``tools/check_docs.py``, which replays the
    documented console blocks against a real server)."""
    from repro.serving.async_server import AsyncGQBEServer

    options = {}
    if args.max_body_bytes is not None:
        options["max_body_bytes"] = args.max_body_bytes
    return AsyncGQBEServer(
        system,
        snapshot_path=snapshot_path,
        host=args.host,
        port=args.port,
        max_batch=args.max_batch,
        cache_size=args.cache_size,
        workers=args.workers,
        compact_threshold=args.compact_threshold,
        high_water=args.high_water,
        deadline_ms=args.deadline_ms,
        rate_limit_rps=args.rate_limit_rps,
        rate_limit_burst=args.rate_limit_burst,
        api_keys=args.api_keys or None,
        cache_ttl_seconds=args.cache_ttl_seconds,
        **options,
    )


def _refused(args: argparse.Namespace, error: ValueError) -> int:
    """Report a serving setting the server refused, as a usage error."""
    print(f"gqbe {args.command}: error: {error}", file=sys.stderr)
    return 2


def _cmd_serve(args: argparse.Namespace) -> int:
    loaded = _load_system(args)
    if isinstance(loaded, int):
        return loaded
    system, snapshot_path = loaded
    try:
        server = build_frontend(system, snapshot_path, args)
    except ValueError as error:
        return _refused(args, error)
    meta = system.graph_store.meta()
    extras = (
        f", high water {args.high_water}"
        + (f", deadline {args.deadline_ms}ms" if args.deadline_ms else "")
        + (f", rate limit {args.rate_limit_rps:g} rps" if args.rate_limit_rps else "")
    )
    print(
        f"serving {meta.get('num_edges')} edges ({meta.get('num_nodes')} nodes) "
        f"on http://{server.host}:{server.port}  "
        f"[max batch {args.max_batch}, cache {args.cache_size}, "
        f"workers {args.workers}{extras}]"
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("\nshutting down")
        server.stop()
    return 0


def _cmd_bench_serve(args: argparse.Namespace) -> int:
    from repro.serving.loadgen import bench_serve

    scratch_dir: str | None = None
    if args.workload is not None:
        if args.snapshot is not None or args.graph is not None:
            print(
                "pass either --workload or a graph/--snapshot, not both",
                file=sys.stderr,
            )
            return 2
        from repro.datasets.workloads import (
            build_dbpedia_workload,
            build_freebase_workload,
        )

        build = (
            build_freebase_workload
            if args.workload == "freebase"
            else build_dbpedia_workload
        )
        workload = build(scale=args.scale)
        if args.workers > 1:
            # Pooled runs serve from a real snapshot so the workers
            # memory-map shared pages instead of each forking a private
            # copy of the workload graph.
            import tempfile

            scratch_dir = tempfile.mkdtemp(prefix="gqbe-bench-")
            snapshot_path = str(Path(scratch_dir) / "workload.snap")
            GraphStore.build(workload.dataset.graph).save(snapshot_path)
            system = GQBE.from_snapshot(snapshot_path)
        else:
            system = GQBE(workload.dataset.graph)
            snapshot_path = None
        tuples = [list(query.query_tuple) for query in workload.queries]
    else:
        loaded = _load_system(args)
        if isinstance(loaded, int):
            return loaded
        system, snapshot_path = loaded
        if not args.tuple:
            print(
                "bench-serve needs --tuple (repeatable) unless --workload is used",
                file=sys.stderr,
            )
            return 2
        tuples = [t.split(",") for t in args.tuple]

    server = None
    try:
        try:
            server = build_frontend(system, snapshot_path, args)
        except ValueError as error:
            return _refused(args, error)
        server.start()
        report = bench_serve(
            server,
            tuples,
            k=args.k,
            requests=args.requests,
            concurrency=args.concurrency,
            warmup_requests=args.warmup,
            arrival=args.arrival,
            rate=args.rate,
            api_key=args.api_keys[0] if args.api_keys else None,
        )
    finally:
        if server is not None:
            server.stop()
        if scratch_dir is not None:
            import shutil

            shutil.rmtree(scratch_dir, ignore_errors=True)

    latency = report["latency_ms"]
    source = (
        f"from {report['concurrency']} workers"
        if report["arrival"] == "closed"
        else f"at {report['rate_rps']:g} req/s open-loop"
    )
    print(
        f"{report['completed']}/{report['requests']} requests ok "
        f"({report['errors']} errors, {report['cached_responses']} cached) "
        f"in {report['duration_seconds']:.2f}s {source}"
    )
    if report["arrival"] == "open":
        counts = "  ".join(
            f"{status}: {count}"
            for status, count in report["status_counts"].items()
        )
        print(
            f"status counts: {counts}   "
            f"Retry-After on {report['retry_after_seen']} responses, "
            f"{report['transport_errors']} transport errors"
        )
    print(
        f"throughput {report['throughput_rps']:.1f} req/s   latency ms: "
        f"mean {latency['mean']:.2f}  p50 {latency['p50']:.2f}  "
        f"p95 {latency['p95']:.2f}  p99 {latency['p99']:.2f}"
    )
    batcher = report.get("server_stats", {}).get("batcher", {})
    if batcher:
        print(
            f"batches {batcher.get('batches_run')}  "
            f"mean batch size {batcher.get('mean_batch_size', 0):.2f}  "
            f"largest {batcher.get('largest_batch')}  "
            f"pooled {batcher.get('pooled_batches', 0)}"
        )
    memory = report.get("memory", {})
    if memory.get("parent_rss_bytes"):
        worker_rss = memory.get("worker_rss_bytes") or []
        workers_part = (
            "  workers " + "+".join(f"{rss / 1e6:.0f}" for rss in worker_rss) + " MB"
            if worker_rss
            else ""
        )
        print(
            f"rss: parent {memory['parent_rss_bytes'] / 1e6:.0f} MB{workers_part}"
        )
    structural = memory.get("snapshot_worker_structural_incremental_bytes")
    if structural is not None:
        print(
            f"structural per-worker incremental rss: {structural / 1e6:.2f} MB "
            "(snapshot sections only, over the interpreter+numpy floor)"
        )
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote report to {args.json}")
    return 0 if report["errors"] == 0 else 1


#: ``gqbe experiment`` name -> (title, the harness method that runs it).
_EXPERIMENTS = {
    "table1": ("Table I", ExperimentHarness.table1_workload_summary),
    "table2": ("Table II", ExperimentHarness.table2_case_study),
    "fig13": ("Figure 13", ExperimentHarness.figure13_accuracy),
    "table3": ("Table III", ExperimentHarness.table3_dbpedia_accuracy),
    "table5": ("Table V", ExperimentHarness.table5_multi_tuple),
    "fig14": ("Figures 14-15", ExperimentHarness.figure14_15_efficiency),
    "table6": (
        "Table VI / Figure 16",
        ExperimentHarness.table6_fig16_multituple_efficiency,
    ),
}


def _cmd_experiment(args: argparse.Namespace) -> int:
    title, run = _EXPERIMENTS[args.name]
    result = run(ExperimentHarness(HarnessConfig(scale=args.scale)))
    if args.name == "table2":
        print(title)
        for query_id, answers in result.items():
            print(format_answer_list(query_id, answers))
    else:
        print(format_table(result, title=title))
    return 0


def _positive_scale(text: str) -> float:
    """The argparse ``type`` of every ``--scale``: a finite number > 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _find_check_root() -> Path | None:
    """The directory holding the ``tools.gqbecheck`` package, if any.

    Walk up from the working directory first (so the analyzers run
    against the tree the user is standing in), then fall back to the
    checkout this module was imported from — an editable install has
    ``src/repro/cli.py`` two levels below the repo root.
    """
    candidates = [Path.cwd(), *Path.cwd().parents]
    candidates.append(Path(__file__).resolve().parents[2])
    for candidate in candidates:
        if (candidate / "tools" / "gqbecheck" / "__init__.py").is_file():
            return candidate
    return None


def _cmd_check(args: argparse.Namespace) -> int:
    return _run_check(list(args.check_args))


def _run_check(forwarded: list[str]) -> int:
    root = _find_check_root()
    if root is None:
        print(
            "gqbe check: cannot locate the tools/gqbecheck package "
            "(run from a repo checkout)",
            file=sys.stderr,
        )
        return 2
    if str(root) not in sys.path:
        sys.path.insert(0, str(root))
    from tools.gqbecheck.cli import main as check_main

    # A leading "--" separator (gqbe check -- --flags) is noise; drop it.
    if forwarded and forwarded[0] == "--":
        forwarded = forwarded[1:]
    if not any(piece.startswith("--root") for piece in forwarded):
        forwarded = ["--root", str(root), *forwarded]
    return check_main(forwarded)


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="gqbe", description="Query knowledge graphs by example entity tuples."
    )
    from repro import __version__

    parser.add_argument(
        "--version",
        action="version",
        version=f"gqbe {__version__}",
        help="print the installed package version and exit",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    query = subparsers.add_parser("query", help="run a query over a triple file")
    query.add_argument(
        "graph", nargs="?", default=None, help="path to a TSV or NT triple file"
    )
    query.add_argument(
        "--snapshot",
        default=None,
        help="warm-start from an index snapshot built with `gqbe build-index` "
        "instead of loading and indexing a triple file",
    )
    query.add_argument(
        "--tuple",
        action="append",
        required=True,
        help="comma-separated entity tuple; repeat for multi-tuple queries",
    )
    query.add_argument("--k", type=int, default=10)
    query.add_argument("--d", type=int, default=2)
    query.add_argument("--mqg-size", type=int, default=15, dest="mqg_size")
    query.set_defaults(func=_cmd_query)

    build_index = subparsers.add_parser(
        "build-index",
        help="stream a triple file into an index snapshot (the offline build, once)",
    )
    build_index.add_argument(
        "graph",
        help="path to a TSV, NT or CSV-export triple file (.gz accepted)",
    )
    build_index.add_argument("output", help="output snapshot directory")
    build_index.add_argument(
        "--build-workers",
        type=int,
        default=1,
        metavar="N",
        help="fan the per-label shard writers out over N processes "
        "(each worker owns disjoint labels)",
    )
    build_index.add_argument(
        "--memory-budget-mb",
        type=int,
        default=256,
        metavar="M",
        help="bound the build's chunk and spill buffers to roughly M "
        "megabytes (smaller budgets spill more; see docs/building.md)",
    )
    build_index.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the progress/timing report (CI use)",
    )
    build_index.set_defaults(func=_cmd_build_index)

    def add_serving_options(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "graph", nargs="?", default=None, help="path to a TSV or NT triple file"
        )
        parser.add_argument(
            "--snapshot",
            default=None,
            help="serve from an index snapshot built with `gqbe build-index`",
        )
        parser.add_argument("--host", default="127.0.0.1")
        parser.add_argument(
            "--port",
            type=int,
            default=8080,
            help="TCP port (0 picks an ephemeral port)",
        )
        parser.add_argument(
            "--max-batch",
            type=int,
            default=64,
            dest="max_batch",
            help="maximum requests per batched execution (a batch is "
            "whatever queued while the engine was busy)",
        )
        parser.add_argument(
            "--cache-size",
            type=int,
            default=1024,
            dest="cache_size",
            help="LRU answer-cache capacity (0 disables caching)",
        )
        parser.add_argument(
            "--workers",
            type=int,
            default=1,
            help="process-pool width for batch execution: each worker opens "
            "the served snapshot (shared mapped pages) "
            "and up to N batches run on them at once; 1 = inline",
        )
        parser.add_argument(
            "--max-body-bytes",
            type=int,
            default=None,
            dest="max_body_bytes",
            help="cap on POST request bodies (default 4 MiB); larger "
            "declared Content-Lengths are refused with 413 before any "
            "body byte is read",
        )
        parser.add_argument(
            "--high-water",
            type=int,
            default=64,
            dest="high_water",
            help="admission high-water mark: requests "
            "past this many in flight are shed with 429 + Retry-After",
        )
        parser.add_argument(
            "--deadline-ms",
            type=int,
            default=None,
            dest="deadline_ms",
            help="per-request engine deadline (ms); "
            "expired requests get 504 and their batch slot is abandoned "
            "(default: no deadline)",
        )
        parser.add_argument(
            "--rate-limit-rps",
            type=float,
            default=None,
            dest="rate_limit_rps",
            help="per-client sustained rate limit (requests/second, token "
            "bucket keyed by API key); default: no rate limit",
        )
        parser.add_argument(
            "--rate-limit-burst",
            type=int,
            default=32,
            dest="rate_limit_burst",
            help="token-bucket burst capacity per client",
        )
        parser.add_argument(
            "--api-key",
            action="append",
            default=None,
            dest="api_keys",
            help="allowed API key (repeatable); when set, requests must send "
            "Authorization: Bearer <key>",
        )
        parser.add_argument(
            "--cache-ttl-seconds",
            type=float,
            default=None,
            dest="cache_ttl_seconds",
            help="time-to-live for answer-cache entries "
            "(default: no TTL, pure LRU)",
        )
        parser.add_argument(
            "--compact-threshold",
            type=int,
            default=None,
            dest="compact_threshold",
            help="start a background compaction once the in-memory ingest "
            "delta holds this many edges, folding base + delta into a "
            "fresh snapshot generation (default: compact only on "
            "POST /admin/compact)",
        )

    serve = subparsers.add_parser(
        "serve",
        help="serve JSON queries over HTTP from one warm snapshot",
    )
    add_serving_options(serve)
    serve.set_defaults(func=_cmd_serve)

    bench_serve = subparsers.add_parser(
        "bench-serve",
        help="load-test an embedded serving frontend and report throughput",
    )
    add_serving_options(bench_serve)
    bench_serve.add_argument(
        "--workload",
        choices=("freebase", "dbpedia"),
        default=None,
        help="serve a built-in synthetic workload (its Table I queries become "
        "the request mix) instead of a snapshot/graph",
    )
    bench_serve.add_argument(
        "--scale",
        type=_positive_scale,
        default=0.5,
        help="workload scale for --workload",
    )
    bench_serve.add_argument(
        "--tuple",
        action="append",
        default=None,
        help="comma-separated query tuple for the request mix; repeatable",
    )
    bench_serve.add_argument("--k", type=int, default=10)
    bench_serve.add_argument("--requests", type=int, default=200)
    bench_serve.add_argument("--concurrency", type=int, default=8)
    bench_serve.add_argument(
        "--arrival",
        choices=("closed", "open"),
        default="closed",
        help="closed: workers issue the next request when the previous "
        "answer lands (capacity); open: fixed-rate dispatch regardless of "
        "completions (overload/shedding behavior)",
    )
    bench_serve.add_argument(
        "--rate",
        type=float,
        default=None,
        help="offered load in requests/second for --arrival open",
    )
    bench_serve.add_argument(
        "--warmup", type=int, default=20, help="unmeasured warm-up requests"
    )
    bench_serve.add_argument(
        "--json", default=None, help="write the JSON report to this path"
    )
    bench_serve.set_defaults(func=_cmd_bench_serve)

    ingest = subparsers.add_parser(
        "ingest",
        help="push a triple file into a running server via POST /admin/ingest",
    )
    ingest.add_argument("triples", help="path to a TSV or NT triple file")
    ingest.add_argument(
        "--url",
        default="http://127.0.0.1:8080",
        help="base URL of the running gqbe serve instance",
    )
    ingest.add_argument(
        "--api-key",
        default=None,
        dest="api_key",
        help="API key to send as Authorization: Bearer <key>",
    )
    ingest.add_argument(
        "--batch-size",
        type=int,
        default=1000,
        dest="batch_size",
        help="triples per /admin/ingest request",
    )
    ingest.add_argument(
        "--timeout",
        type=float,
        default=60.0,
        help="per-request HTTP timeout in seconds",
    )
    ingest.add_argument(
        "--compact",
        action="store_true",
        help="POST /admin/compact after the last batch, folding the delta "
        "into a fresh on-disk snapshot generation",
    )
    ingest.set_defaults(func=_cmd_ingest)

    generate = subparsers.add_parser("generate", help="generate a synthetic dataset")
    generate.add_argument("dataset", choices=("freebase", "dbpedia"))
    generate.add_argument("output", help="output TSV path")
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument("--scale", type=_positive_scale, default=1.0)
    generate.set_defaults(func=_cmd_generate)

    experiment = subparsers.add_parser("experiment", help="run a paper experiment")
    experiment.add_argument("name", choices=_EXPERIMENTS)
    experiment.add_argument("--scale", type=_positive_scale, default=0.5)
    experiment.set_defaults(func=_cmd_experiment)

    check = subparsers.add_parser(
        "check",
        help="run the gqbecheck static invariant analyzers",
        description=(
            "Run tools.gqbecheck (determinism, mapped-memory, concurrency, "
            "exception-discipline and config/doc analyzers) over the repo. "
            "All arguments are forwarded; see `gqbe check -- --help`."
        ),
    )
    check.add_argument(
        "check_args",
        nargs=argparse.REMAINDER,
        help="arguments forwarded to python -m tools.gqbecheck",
    )
    check.set_defaults(func=_cmd_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    arg_list = list(argv) if argv is not None else sys.argv[1:]
    if arg_list and arg_list[0] == "check":
        # argparse.REMAINDER cannot capture leading option-style
        # arguments (`gqbe check --list-rules`), so the check
        # subcommand forwards its argv verbatim.  The subparser stays
        # registered above purely so `gqbe --help` documents it.
        return _run_check(arg_list[1:])
    parser = build_parser()
    args = parser.parse_args(arg_list)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
