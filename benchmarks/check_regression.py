#!/usr/bin/env python
"""Compare pytest-benchmark medians against a committed baseline.

CI runs the micro-benchmark smoke pass with ``--benchmark-json`` and then
calls this script to gate the job::

    python benchmarks/check_regression.py bench-results.json \\
        benchmarks/baseline.json --tolerance 1.5

Exit status 1 (job fails) when any benchmark's median exceeds its
baseline median by more than the tolerance factor.  Benchmarks present in
the results but missing from the baseline are reported as NEW (not a
failure — commit a refreshed baseline to start gating them); baseline
entries with no matching result are reported as MISSING (not a failure,
but they stop being gated, so prune or refresh the baseline).

Refresh the baseline from a results file with::

    python benchmarks/check_regression.py bench-results.json \\
        benchmarks/baseline.json --update

The baseline format is ``{"meta": {...}, "medians": {name: seconds}}``;
``meta`` records how the numbers were produced so refreshes stay
comparable.

``--speedup-pair SLOW:FAST:RATIO`` (repeatable) additionally requires
the results to show ``min(SLOW) / min(FAST) >= RATIO``.  Speedup pairs
compare minima rather than medians: scheduler noise on shared CI
runners only ever inflates a round, so each leg's best round is the
noise-robust estimate of its true cost, and a ratio of minima does not
flap when one leg's median happens to absorb more interference than the
other's.  A pair with either leg absent from the results is reported
and ignored, not failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path


def load_result_stats(path: Path) -> dict[str, dict]:
    """Extract ``{benchmark name: stats}`` from pytest-benchmark JSON."""
    data = json.loads(path.read_text())
    return {bench["name"]: bench["stats"] for bench in data["benchmarks"]}


def load_baseline(path: Path) -> dict[str, float]:
    """Load the committed baseline's medians mapping."""
    data = json.loads(path.read_text())
    return data["medians"]


def compare(
    results: dict[str, float],
    baseline: dict[str, float],
    tolerance: float,
) -> tuple[list[str], list[str]]:
    """Return (report lines, regression names)."""
    lines: list[str] = []
    regressions: list[str] = []
    width = max((len(name) for name in results | baseline), default=0)
    for name in sorted(results):
        median = results[name]
        base = baseline.get(name)
        if base is None:
            lines.append(f"NEW        {name:<{width}}  median {median * 1000:9.3f} ms")
            continue
        ratio = median / base if base > 0 else float("inf")
        status = "REGRESSION" if ratio > tolerance else "ok"
        lines.append(
            f"{status:<10} {name:<{width}}  median {median * 1000:9.3f} ms  "
            f"baseline {base * 1000:9.3f} ms  ratio {ratio:5.2f}x"
        )
        if ratio > tolerance:
            regressions.append(name)
    for name in sorted(set(baseline) - set(results)):
        lines.append(f"MISSING    {name:<{width}}  (in baseline, not in results)")
    return lines, regressions


def parse_speedup_pair(spec: str) -> tuple[str, str, float]:
    """Parse a ``SLOW:FAST:RATIO`` speedup-pair argument."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected SLOW:FAST:RATIO, got {spec!r}"
        )
    slow, fast, ratio_text = parts
    try:
        ratio = float(ratio_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"speedup ratio must be a number, got {ratio_text!r}"
        ) from None
    if ratio <= 0:
        raise argparse.ArgumentTypeError(
            f"speedup ratio must be positive, got {ratio_text!r}"
        )
    return slow, fast, ratio


def check_speedup_pairs(
    stats: dict[str, dict],
    pairs: list[tuple[str, str, float]],
) -> tuple[list[str], list[str]]:
    """Return (report lines, failed pair names) for the speedup gates.

    Compares each leg's ``min`` (falling back to ``median`` when a
    results file carries no minima): interference only inflates rounds,
    so best-round ratios are stable where median ratios flap.
    """
    lines: list[str] = []
    failures: list[str] = []
    for slow, fast, required in pairs:
        name = f"{slow} / {fast}"
        slow_stats = stats.get(slow)
        fast_stats = stats.get(fast)
        if slow_stats is None or fast_stats is None:
            missing = slow if slow_stats is None else fast
            lines.append(f"SKIPPED    {name}  ({missing} not in results)")
            continue
        slow_best = slow_stats.get("min", slow_stats["median"])
        fast_best = fast_stats.get("min", fast_stats["median"])
        speedup = slow_best / fast_best if fast_best > 0 else float("inf")
        status = "ok" if speedup >= required else "TOO SLOW"
        lines.append(
            f"{status:<10} {name}  speedup {speedup:5.2f}x  "
            f"required {required:.2f}x"
        )
        if speedup < required:
            failures.append(name)
    return lines, failures


def update_baseline(results: dict[str, float], path: Path, meta: dict) -> None:
    path.write_text(
        json.dumps({"meta": meta, "medians": results}, indent=2, sort_keys=True)
        + "\n"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", type=Path, help="pytest-benchmark JSON output")
    parser.add_argument("baseline", type=Path, help="committed baseline JSON")
    parser.add_argument(
        "--tolerance",
        type=float,
        # The committed baseline records medians from one machine while CI
        # runners have different (and noisier) hardware, so the tolerance
        # must absorb cross-machine variance, not just run-to-run noise.
        # GQBE_BENCH_TOLERANCE overrides without a workflow edit — e.g. to
        # loosen the gate while migrating runner classes, then refresh the
        # baseline from a CI artifact of the new class.
        default=float(os.environ.get("GQBE_BENCH_TOLERANCE", "1.5")),
        help="fail when median > baseline * tolerance "
        "(default: $GQBE_BENCH_TOLERANCE or 1.5)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baseline from the results instead of comparing",
    )
    parser.add_argument(
        "--speedup-pair",
        action="append",
        default=[],
        type=parse_speedup_pair,
        metavar="SLOW:FAST:RATIO",
        help="require min(SLOW) / min(FAST) >= RATIO; pairs with "
        "either leg missing are skipped (repeatable)",
    )
    args = parser.parse_args(argv)

    stats = load_result_stats(args.results)
    results = {name: bench["median"] for name, bench in stats.items()}
    if args.update:
        update_baseline(
            results,
            args.baseline,
            meta={
                "source": "benchmarks/check_regression.py --update",
                "benchmark_count": len(results),
            },
        )
        print(f"wrote {len(results)} baseline medians to {args.baseline}")
        return 0

    baseline = load_baseline(args.baseline)
    lines, regressions = compare(results, baseline, args.tolerance)
    print(f"benchmark regression gate (tolerance {args.tolerance:.2f}x)")
    for line in lines:
        print(line)
    failed_pairs: list[str] = []
    if args.speedup_pair:
        pair_lines, failed_pairs = check_speedup_pairs(
            stats, args.speedup_pair
        )
        print("\nspeedup-pair gates")
        for line in pair_lines:
            print(line)
    if regressions:
        print(
            f"\n{len(regressions)} regression(s) beyond {args.tolerance:.2f}x: "
            + ", ".join(regressions),
            file=sys.stderr,
        )
        return 1
    if failed_pairs:
        print(
            f"\n{len(failed_pairs)} speedup pair(s) below their required "
            "ratio: " + ", ".join(failed_pairs),
            file=sys.stderr,
        )
        return 1
    print(f"\nall {len(results)} benchmarks within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
