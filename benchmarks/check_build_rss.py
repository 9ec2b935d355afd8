#!/usr/bin/env python
"""CI gate: the streaming build's peak RSS sits under its memory budget.

``gqbe build-index --streaming`` promises bounded peak memory: working
buffers scale with ``--memory-budget-mb``, not with the dump (see
docs/building.md).  This script generates a synthetic dump at least
``--min-dump-ratio`` times the budget, builds it twice in fresh child
processes — streaming under the budget, then in-memory — and
hard-asserts the separation on each child's own ``ru_maxrss``:

* the streaming build's peak RSS, measured *incrementally over the
  import floor* (interpreter + numpy + repro, probed by an identical
  child that only imports), stays **under** the budget;
* the in-memory build's incremental peak **exceeds** the budget (if it
  did not, the gate would be vacuous at this scale);
* the two outputs are byte-identical (manifest equality is sufficient:
  the manifest records every shard's SHA-256).

Run from the repository root (CI's tests job does)::

    python benchmarks/check_build_rss.py

Exits 0 with a notice where ``resource`` rusage probes are unavailable.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

_FLOOR_PROBE = (
    "import resource, numpy, repro.cli, repro.storage.build;"
    "print('PEAK', resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
)
_BUILD_PROBE = (
    "import resource, sys;"
    "from repro.cli import main;"
    "rc = main(sys.argv[1:]);"
    "print('PEAK', resource.getrusage(resource.RUSAGE_SELF).ru_maxrss);"
    "sys.exit(rc)"
)


def _child_peak_bytes(command: list[str]) -> int:
    """Run a probe child; return its self-reported peak RSS in bytes."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    result = subprocess.run(command, env=env, capture_output=True, text=True)
    if result.returncode != 0:
        sys.stderr.write(result.stderr)
        raise SystemExit(f"probe child failed: {' '.join(command[:3])}...")
    for line in result.stdout.splitlines():
        if line.startswith("PEAK "):
            kilobytes = int(line.split()[1])
            # ru_maxrss is kilobytes on Linux, bytes on macOS.
            return kilobytes if sys.platform == "darwin" else kilobytes * 1024
    raise SystemExit("probe child printed no PEAK line")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale",
        type=float,
        default=100.0,
        help="freebase workload scale; must make the in-memory build's "
        "incremental RSS clearly exceed the budget (default 100.0, "
        "~440k edges, ~17 MB dump)",
    )
    parser.add_argument(
        "--memory-budget-mb",
        type=int,
        default=4,
        help="streaming budget to enforce (default 4)",
    )
    parser.add_argument(
        "--min-dump-ratio",
        type=float,
        default=4.0,
        help="required dump-size / budget ratio so the bound is "
        "non-trivial (default 4.0)",
    )
    args = parser.parse_args(argv)

    try:
        import resource  # noqa: F401
    except ImportError:
        print("resource rusage probes unavailable on this platform; skipping")
        return 0

    from repro.datasets.synthetic import FreebaseLikeGenerator
    from repro.graph.triples import write_triples

    budget_bytes = args.memory_budget_mb * 1e6
    graph = FreebaseLikeGenerator(seed=7, scale=args.scale).generate().graph
    with tempfile.TemporaryDirectory(prefix="gqbe-build-rss-") as scratch:
        dump = Path(scratch) / "dump.tsv"
        write_triples(graph.edges, dump)
        dump_bytes = dump.stat().st_size
        print(
            f"dump: freebase scale {args.scale} ({graph.num_edges} edges, "
            f"{graph.num_nodes} nodes, {dump_bytes / 1e6:.1f} MB); "
            f"budget {args.memory_budget_mb} MB"
        )
        if dump_bytes < args.min_dump_ratio * budget_bytes:
            print(
                f"FAIL: dump is only {dump_bytes / budget_bytes:.1f}x the "
                f"budget (need >= {args.min_dump_ratio}x); raise --scale"
            )
            return 1

        floor = _child_peak_bytes([sys.executable, "-c", _FLOOR_PROBE])
        print(f"import floor (interpreter + numpy + repro): {floor / 1e6:.1f} MB")

        streamed = Path(scratch) / "streamed"
        streaming_peak = _child_peak_bytes(
            [
                sys.executable,
                "-c",
                _BUILD_PROBE,
                "build-index",
                str(dump),
                str(streamed),
                "--streaming",
                "--memory-budget-mb",
                str(args.memory_budget_mb),
                "--quiet",
            ]
        )
        in_memory = Path(scratch) / "in_memory"
        in_memory_peak = _child_peak_bytes(
            [
                sys.executable,
                "-c",
                _BUILD_PROBE,
                "build-index",
                str(dump),
                str(in_memory),
                "--quiet",
            ]
        )
        streaming_incr = streaming_peak - floor
        in_memory_incr = in_memory_peak - floor
        print(
            f"streaming: peak {streaming_peak / 1e6:.1f} MB "
            f"(incremental {streaming_incr / 1e6:.1f} MB)\n"
            f"in-memory: peak {in_memory_peak / 1e6:.1f} MB "
            f"(incremental {in_memory_incr / 1e6:.1f} MB)"
        )

        failures = []
        if streaming_incr >= budget_bytes:
            failures.append(
                f"streaming incremental peak {streaming_incr / 1e6:.1f} MB "
                f"is not under the {args.memory_budget_mb} MB budget"
            )
        if in_memory_incr <= budget_bytes:
            failures.append(
                f"in-memory incremental peak {in_memory_incr / 1e6:.1f} MB "
                "does not exceed the budget — the gate is vacuous at this "
                "scale; raise --scale"
            )
        streamed_manifest = (streamed / "MANIFEST.json").read_bytes()
        in_memory_manifest = (in_memory / "MANIFEST.json").read_bytes()
        if streamed_manifest != in_memory_manifest:
            failures.append(
                "streaming and in-memory manifests differ — the builds are "
                "no longer byte-identical (the manifest hashes every shard)"
            )
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}")
            return 1
    print("ok: streaming build is memory-bounded and byte-identical at scale")
    return 0


if __name__ == "__main__":
    sys.exit(main())
