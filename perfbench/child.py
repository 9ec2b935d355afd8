"""Measured child processes: ``python perfbench/child.py ROLE SPEC.json``.

Every process whose time or memory the benchmark reports is a fresh
interpreter started from here, so its ``ru_maxrss`` is the program's and
not the runner's (which has held a generated graph).  A child reads its
spec, does one role, writes ``spec["out"]`` as JSON and exits.  Lines it
prints on stdout are signals the runner timestamps (``ready``,
``first``, ``port N``); nothing else goes to stdout.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

if __package__ in (None, ""):
    sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench import require_program, spans  # noqa: E402


def _signal(line: str) -> None:
    sys.stdout.write(line + "\n")
    sys.stdout.flush()


def _peak_rss_mb() -> float:
    """This process's own peak resident size.

    ``VmHWM`` where procfs has it: it starts from zero at exec, whereas
    ``ru_maxrss`` starts from the resident size of the runner that forked
    us (which has held a whole generated graph).
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0  # KiB
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _load_engine(spec: dict):
    """Import the program and warm-start the engine; returns it with timings."""
    started = time.perf_counter()
    from repro.core.config import GQBEConfig
    from repro.core.gqbe import GQBE

    imported = time.perf_counter()
    config = GQBEConfig(**spec["config"])
    system = GQBE.from_snapshot(spec["snapshot"], config)
    loaded = time.perf_counter()
    return system, config, imported - started, loaded - imported


def _run_query(system, query: dict, k: int):
    tuples = query["tuples"]
    if len(tuples) == 1:
        return system.query(tuples[0], k=k)
    return system.query_multi(tuples, k=k)


def _answers(result) -> list:
    return [[list(answer.entities), answer.score] for answer in result.answers]


def _timed_pass(system, queries: list[dict], k: int) -> dict:
    """Closed loop, one client: each query timed, errors recorded per query."""
    from repro.exceptions import GQBEError

    records = []
    started = time.perf_counter()
    for query in queries:
        began = time.perf_counter()
        try:
            result = _run_query(system, query, k)
        except GQBEError as error:
            records.append({"id": query["id"], "error": repr(error)})
            continue
        records.append(
            {
                "id": query["id"],
                "seconds": time.perf_counter() - began,
                "answers": _answers(result),
            }
        )
    return {"wall_s": time.perf_counter() - started, "records": records}


def _traced_pass(system, config, queries: list[dict], k: int) -> tuple[list, list]:
    """One staged pass: its span list and the per-query answers or errors."""
    from repro.exceptions import GQBEError

    recorder = spans.Recorder()
    records = []
    with spans.wrapped_joins(recorder):
        for query in queries:
            recorder.query_id = query["id"]
            try:
                result = spans.staged_query(system, config, query["tuples"], k, recorder)
            except GQBEError as error:
                records.append({"id": query["id"], "error": repr(error)})
                continue
            records.append({"id": query["id"], "answers": _answers(result)})
    return recorder.spans, records


def role_build(spec: dict) -> dict:
    from repro.storage.build import build_streaming_snapshot

    report = build_streaming_snapshot(
        spec["dump"],
        spec["snapshot"],
        snapshot_format="v3",
        memory_budget_mb=256,
        workers=1,
    )
    return {
        "report": {
            key: value
            for key, value in report.items()
            if isinstance(value, (int, float, str, bool))
        }
    }


def role_cold(spec: dict) -> dict:
    """A restart: import, load, answer — the first answer is signalled."""
    system, _config, import_s, load_s = _load_engine(spec)
    queries, k = spec["queries"], spec["k"]
    first = _timed_pass(system, queries[:1], k)
    _signal("first")
    lazy = system.graph_store.lazy_report()
    rest = _timed_pass(system, queries[1:], k)
    return {
        "import_s": import_s,
        "load_s": load_s,
        "tables_opened": lazy["tables_opened"],
        "records": first["records"] + rest["records"],
    }


def role_engine(spec: dict) -> dict:
    """One timed facade pass per query list in ``spec["passes"]``.

    The peak resident size is read after the first pass, whose order the
    runner pins.  With ``trace``, the later passes run twice over, each
    followed by a staged, traced pass over the same list: facade and
    staged passes alternate, so a drift in the machine's speed hits both
    alike and does not pass for tracing overhead.
    """
    system, config, _import_s, _load_s = _load_engine(spec)
    _signal("ready")
    k = spec["k"]
    first, *later = spec["passes"]
    passes = [_timed_pass(system, first, k)]
    out = {"passes": passes, "first_pass_rss_mb": _peak_rss_mb()}
    traced = []
    for queries in later * (2 if spec["trace"] else 1):
        passes.append(_timed_pass(system, queries, k))
        if spec["trace"]:
            traced.append(_traced_pass(system, config, queries, k))
    if traced:
        # Each query's fastest staged run, as the runner takes its fastest
        # facade run.
        out["traced"] = {
            "spans": spans.fastest_per_query([recorded for recorded, _ in traced]),
            "records": traced[-1][1],
        }
    return out


def role_serve(spec: dict) -> dict:
    """Serve until stdin closes (so a dead runner cannot leave a server)."""
    from repro.serving.async_server import AsyncGQBEServer

    system, _config, _import_s, _load_s = _load_engine(spec)
    server = AsyncGQBEServer(
        system, snapshot_path=spec["snapshot"], host="127.0.0.1", port=0
    ).start()
    try:
        _signal(f"port {server.port}")
        sys.stdin.readline()
    finally:
        server.stop()
    return {}


def role_probe_serving(spec: dict) -> dict:
    """In-process serving-core and ingest costs, no HTTP (traced runs only)."""
    from repro.serving.server import ServingCore

    system, _config, _import_s, _load_s = _load_engine(spec)
    core = ServingCore(system, snapshot_path=spec["snapshot"])
    try:
        payload = {"tuple": spec["query"]["tuples"][0], "k": spec["k"]}
        core.handle_query(payload)  # the miss that fills the cache
        hits = []
        for _ in range(spec["hit_repeats"]):
            began = time.perf_counter()
            status, body = core.handle_query(payload)
            hits.append(time.perf_counter() - began)
            if status != 200 or not body.get("cached"):
                raise RuntimeError(f"expected a cache hit, got {status} {body!r}")
        began = time.perf_counter()
        applied = system.ingest([tuple(triple) for triple in spec["ingest_batch"]])
        ingest_s = time.perf_counter() - began
    finally:
        core.close_engine()
    return {"hit_seconds": hits, "ingest_s": ingest_s, "applied": applied["applied"]}


ROLES = {
    "build": role_build,
    "cold": role_cold,
    "engine": role_engine,
    "serve": role_serve,
    "probe_serving": role_probe_serving,
}


def main(argv: list[str]) -> int:
    role, spec_path = argv
    require_program()
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    out = ROLES[role](spec)
    out["peak_rss_mb"] = _peak_rss_mb()
    Path(spec["out"]).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
