#!/usr/bin/env python
"""CI gate: the streaming build's peak RSS stays within its budget plus floors.

``gqbe build-index`` (the streaming build) promises bounded peak memory: working
buffers scale with ``--memory-budget-mb``, not with the dump, and the few
footprints that do scale with the data are documented floors (see
docs/building.md, "Memory-budget semantics").  This script builds
synthetic dumps in fresh child processes and hard-asserts on each child's
own ``VmHWM`` (peak resident size since its exec, so nothing of this
generating process carries over), incremental over the import floor
(interpreter + numpy + repro, probed by a child that only imports):

* a dump at least ``--min-dump-ratio`` times the budget, built streaming
  under the budget, stays under ``budget + floors``; the floors come from
  the build's own manifest and the dump's label counts: the vocabulary
  arena's bytes, 8 bytes per node and ``FINALIZE_BYTES_PER_ROW`` per row
  routed to the largest label (duplicates included: a label's finalize
  reads its whole spill run before it drops them);
* the same dump built in memory — ``GraphStore.build(load_graph(dump))
  .save(...)`` — **exceeds** that bound (if it did not, the gate would be
  vacuous at this scale), and the two outputs are byte-identical
  (manifest equality is sufficient: the manifest records every shard's
  SHA-256);
* a duplicate-heavy dump — a smaller graph written ``DUPLICATE_COPIES``
  times over, so every triple repeats across spill segments — built at
  ``DUPLICATE_BUDGET_MB`` stays under its own ``budget + floors``.

Run from the repository root (CI's tests job does)::

    python benchmarks/check_build_rss.py

Exits 0 with a notice where ``/proc/self/status`` has no ``VmHWM``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: Bytes a label's finalize may hold per row routed to it (measured ~106
#: with no duplicates: the run, one sort order, one CSR run, then the
#: table's columns and probe indexes; ~60 per raw row while duplicates
#: are dropped).
FINALIZE_BYTES_PER_ROW = 128
#: The duplicate-heavy case: this scale's graph written this many times,
#: built under this budget (the smallest, so spill segments are shortest).
DUPLICATE_SCALE = 25.0
DUPLICATE_COPIES = 4
DUPLICATE_BUDGET_MB = 1

_PEAK = (
    "print('PEAK', [line.split()[1] for line in open('/proc/self/status')"
    " if line.startswith('VmHWM:')][0])"
)
_FLOOR_PROBE = "import numpy, repro.cli, repro.storage.build;" + _PEAK
_BUILD_PROBE = (
    "import sys;"
    "from repro.cli import main;"
    "rc = main(sys.argv[1:]);" + _PEAK + ";sys.exit(rc)"
)
_IN_MEMORY_PROBE = (
    "import sys;"
    "from repro.graph.triples import load_graph;"
    "from repro.storage.snapshot import GraphStore;"
    "GraphStore.build(load_graph(sys.argv[1])).save(sys.argv[2]);" + _PEAK
)


def _vm_hwm_available() -> bool:
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            return any(line.startswith("VmHWM:") for line in status)
    except OSError:
        return False


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
            return int(line.split()[1]) * 1024  # VmHWM is in KiB
    raise SystemExit("probe child printed no PEAK line")


def _build_peak_bytes(dump: Path, output: Path, budget_mb: int | None) -> int:
    """Peak RSS of a build in a child: ``gqbe build-index`` under
    ``budget_mb``, or ``GraphStore.build`` + ``save`` when it is None."""
    if budget_mb is None:
        return _child_peak_bytes(
            [sys.executable, "-c", _IN_MEMORY_PROBE, str(dump), str(output)]
        )
    return _child_peak_bytes(
        [sys.executable, "-c", _BUILD_PROBE, "build-index", str(dump), str(output),
         "--memory-budget-mb", str(budget_mb), "--quiet"]
    )


def _write_dump(path: Path, scale: float, copies: int = 1) -> tuple[Counter, str]:
    """Write a Freebase-like dump ``copies`` times over; return the rows
    per label it holds and a one-line description."""
    from repro.datasets.synthetic import FreebaseLikeGenerator
    from repro.graph.triples import write_triples

    graph = FreebaseLikeGenerator(seed=7, scale=scale).generate().graph
    edges = list(graph.edges)
    write_triples(itertools.chain.from_iterable(itertools.repeat(edges, copies)), path)
    per_copy = Counter(edge.label for edge in edges)
    label_rows = Counter({label: rows * copies for label, rows in per_copy.items()})
    return label_rows, (
        f"freebase scale {scale} x {copies} ({len(edges)} distinct edges, "
        f"{graph.num_nodes} nodes, {path.stat().st_size / 1e6:.1f} MB)"
    )


def _floor_bytes(manifest: dict, label_rows: Counter) -> tuple[int, str]:
    """The documented floors of a build, from its manifest and the rows
    its dump routes to each label, and a breakdown."""
    arena = manifest["vocabulary"]["bytes"]
    nodes = manifest["graph"]["nodes"]
    largest = max(label_rows.values())
    floors = arena + 8 * nodes + FINALIZE_BYTES_PER_ROW * largest
    return floors, (
        f"arena {arena / 1e6:.1f} MB + {nodes} nodes x 8 B + largest label "
        f"{largest} rows x {FINALIZE_BYTES_PER_ROW} B = {floors / 1e6:.1f} MB"
    )


def _check_streaming(
    name: str, dump: Path, output: Path, budget_mb: int, label_rows: Counter, floor: int
) -> tuple[int, list[str]]:
    """Build ``dump`` streaming; return its bound and any failure."""
    incremental = _build_peak_bytes(dump, output, budget_mb) - floor
    floors, breakdown = _floor_bytes(
        json.loads((output / "MANIFEST.json").read_text(encoding="utf-8")), label_rows
    )
    bound = budget_mb * 1e6 + floors
    print(
        f"{name}: floors {breakdown}\n"
        f"{name}: bound budget {budget_mb} MB + floors = {bound / 1e6:.1f} MB, "
        f"streaming incremental peak {incremental / 1e6:.1f} MB"
    )
    if incremental < bound:
        return bound, []
    return bound, [
        f"{name}: streaming incremental peak {incremental / 1e6:.1f} MB "
        f"is not under the {bound / 1e6:.1f} MB bound"
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scale",
        type=float,
        default=100.0,
        help="freebase workload scale; must make the in-memory build's "
        "incremental RSS clearly exceed the bound (default 100.0, "
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

    if not _vm_hwm_available():
        print("no VmHWM in /proc/self/status on this platform; skipping")
        return 0

    failures = []
    with tempfile.TemporaryDirectory(prefix="gqbe-build-rss-") as scratch:
        scratch = Path(scratch)
        dump = scratch / "dump.tsv"
        label_rows, description = _write_dump(dump, args.scale)
        ratio = dump.stat().st_size / (args.memory_budget_mb * 1e6)
        print(f"dump: {description}; budget {args.memory_budget_mb} MB")
        if ratio < args.min_dump_ratio:
            print(
                f"FAIL: dump is only {ratio:.1f}x the budget "
                f"(need >= {args.min_dump_ratio}x); raise --scale"
            )
            return 1

        floor = _child_peak_bytes([sys.executable, "-c", _FLOOR_PROBE])
        print(f"import floor (interpreter + numpy + repro): {floor / 1e6:.1f} MB")

        streamed = scratch / "streamed"
        bound, failed = _check_streaming(
            "dump", dump, streamed, args.memory_budget_mb, label_rows, floor
        )
        failures += failed
        in_memory = scratch / "in_memory"
        in_memory_incr = _build_peak_bytes(dump, in_memory, None) - floor
        print(f"dump: in-memory incremental peak {in_memory_incr / 1e6:.1f} MB")
        if in_memory_incr <= bound:
            failures.append(
                f"in-memory incremental peak {in_memory_incr / 1e6:.1f} MB "
                "does not exceed the bound — the gate is vacuous at this "
                "scale; raise --scale"
            )
        streamed_manifest = (streamed / "MANIFEST.json").read_bytes()
        in_memory_manifest = (in_memory / "MANIFEST.json").read_bytes()
        if streamed_manifest != in_memory_manifest:
            failures.append(
                "streaming and in-memory manifests differ — the builds are "
                "no longer byte-identical (the manifest hashes every shard)"
            )

        duplicated = scratch / "duplicated.tsv"
        label_rows, description = _write_dump(
            duplicated, DUPLICATE_SCALE, copies=DUPLICATE_COPIES
        )
        print(f"duplicated dump: {description}; budget {DUPLICATE_BUDGET_MB} MB")
        failures += _check_streaming(
            "duplicated dump",
            duplicated,
            scratch / "duplicated",
            DUPLICATE_BUDGET_MB,
            label_rows,
            floor,
        )[1]
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("ok: streaming build is memory-bounded and byte-identical at scale")
    return 0


if __name__ == "__main__":
    sys.exit(main())
