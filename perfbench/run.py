"""perfbench runner: ``python perfbench/run.py [--workload NAME ...] [--trace]``.

Generates the inputs, runs the named workloads (all four by default),
checks every output and prints every metric by name with its unit.  The
last line of each workload's report is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
metrics, or with ``--trace`` the per-layer metrics of the separate
traced run.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench import ROOT, WORK_ROOT, require_program  # noqa: E402


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    from perfbench.workloads import NOMINAL_SECONDS, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        action="append",
        choices=sorted(WORKLOADS),
        help="workload to run (repeatable; default: all four)",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=7,
        help="order of the queries and requests, and the ingested triples (default 7)",
    )
    parser.add_argument(
        "--seconds",
        type=float,
        default=NOMINAL_SECONDS,
        help=f"scales the amount of work; sizes are calibrated for {NOMINAL_SECONDS}",
    )
    parser.add_argument(
        "--trace",
        nargs="?",
        type=int,
        choices=(0, 1),
        const=1,
        default=0,
        help="make the traced run and report the per-layer metrics instead",
    )
    parser.add_argument("--trace-out", type=Path, help="write the spans here (JSON)")
    parser.add_argument("--out", type=Path, help="write the full result file here")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="a tenth of the scale, ~20 queries: checks the plumbing, not the speed",
    )
    parser.add_argument(
        "--write-expected",
        action="store_true",
        help="record the generated inputs' hashes in expected_inputs.json",
    )
    return parser.parse_args(argv)


def environment() -> dict:
    """What the numbers depend on besides the code: recorded in every result."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": commit,
    }


def report_lines(result: dict, units: dict, section: str) -> list[str]:
    counts = result["counts"]
    lines = []
    for name, unit in units.items():
        value = result[section][name]
        note = f"n={counts[name]}" if name in counts else ""
        used = counts.get(f"{name}.percentile_used")
        if used is not None:
            note += f" (reported at p{used:g}: too few samples for the named percentile)"
        lines.append(f"  {name:<42} {value:>16.6g} {unit:<6} {note}".rstrip())
    return lines


def print_result(result: dict, trace: bool) -> None:
    from perfbench.workloads import END_TO_END_UNITS, PER_LAYER_UNITS, WORKLOADS

    section, units = (
        ("per_layer", PER_LAYER_UNITS) if trace else ("end_to_end", END_TO_END_UNITS)
    )
    name = result["workload"]
    print(f"== {name}: {WORKLOADS[name].why}")
    print(
        f"   seed {result['seed']}, {result['inputs']['triples']} triples, "
        f"kernels {result['kernel_backend']}, "
        f"{'traced' if trace else 'untraced'} run, {result['wall_s']:.1f} s wall"
    )
    for line in report_lines(result, units, section):
        print(line)
    print(
        f"  failed_share {result['failed']}/{result['attempted']}, "
        f"empty_answers {result['empty_answers']}, "
        f"answers_sha256 {result['answers_sha256'][:16]}"
    )
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    metric: {"value": result[section][metric], "unit": unit}
                    for metric, unit in units.items()
                },
            }
        ),
        flush=True,
    )


def _terminated(signum, frame):
    raise KeyboardInterrupt(f"signal {signum}")


def main(argv: list[str] | None = None) -> int:
    require_program()
    from perfbench import inputs
    from perfbench.workloads import WORKLOADS, Run, run_workload, smoke

    args = parse_args(argv)
    run = Run(seed=args.seed, seconds=args.seconds, trace=bool(args.trace))
    expected = (
        json.loads(inputs.EXPECTED_INPUTS.read_text(encoding="utf-8"))
        if args.write_expected and inputs.EXPECTED_INPUTS.exists()
        else {}
    )
    results, spans_by_workload = {}, {}
    work_root = WORK_ROOT / f"run-{os.getpid()}"
    # SIGTERM must unwind like Ctrl-C so children are reaped and the
    # work directory removed.
    signal.signal(signal.SIGTERM, _terminated)
    try:
        for name in args.workload or list(WORKLOADS):
            workload = smoke(WORKLOADS[name]) if args.smoke else WORKLOADS[name]
            work = work_root / name
            work.mkdir(parents=True)
            key = f"{name}.smoke" if args.smoke else name
            if args.write_expected:
                check_inputs = functools.partial(expected.__setitem__, key)
            else:
                check_inputs = functools.partial(inputs.check_pinned, key)
            result = run_workload(workload, run, work, check_inputs)
            shutil.rmtree(work)
            spans_by_workload[name] = result.pop("spans", [])
            results[name] = result
            print_result(result, run.trace)
    except inputs.InputsDrifted as drift:
        print(f"perfbench: {drift}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()  # only when no other run is using it
        except OSError:
            pass
    if args.write_expected:
        inputs.EXPECTED_INPUTS.write_text(
            json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
    if args.out is not None:
        document = {
            "environment": environment(),
            "arguments": {
                "seed": run.seed,
                "dataset_seed": inputs.DATASET_SEED,
                "seconds": run.seconds,
                "trace": run.trace,
                "smoke": args.smoke,
            },
            "workloads": results,
        }
        args.out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    if args.trace_out is not None:
        from perfbench import spans

        args.trace_out.write_text(
            json.dumps(
                {
                    name: spans.spans_as_json(recorded)
                    for name, recorded in spans_by_workload.items()
                }
            ),
            encoding="utf-8",
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
