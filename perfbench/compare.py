"""Compare two sets of perfbench result files against the bounds in BENCHMARK.json.

``python perfbench/compare.py A.json B.json`` — each side is one result
file written by ``run.py --out``, or several separated by commas (the
runs of one commit).  Prints one row per workload x end-to-end metric:
both medians, the ratio B/A with its base, and a verdict:

* ``ok``          B's median is not worse than A's by more than the bound;
* ``regressed``   it is, and the run-to-run spread is within the bound;
* ``unresolved``  the spread of either side (inter-quartile distance over
  the median, three or more runs) is wider than the bound, so the
  difference cannot be told from noise — not the same as unchanged.

Refuses (exit 2) to compare results whose input hashes or kernel backend
differ: they did not measure the same thing.  Exits 1 when a metric
regressed, 0 otherwise.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path[0] = str(Path(__file__).resolve().parent.parent)

from perfbench import ROOT, stats  # noqa: E402

IDENTITY_FIELDS = ("dump_sha256", "population_sha256")


def load_side(argument: str) -> list[dict]:
    return [
        json.loads(Path(name).read_text(encoding="utf-8"))
        for name in argument.split(",")
    ]


def identity(document: dict, workload: str) -> tuple:
    result = document["workloads"][workload]
    return (
        *(result["inputs"][field] for field in IDENTITY_FIELDS),
        result["kernel_backend"],
    )


def verdict(a: list[float], b: list[float], better: str, bound: float) -> dict:
    """Judge one metric: medians, ratio, worsening and the verdict."""
    base, new = statistics.median(a), statistics.median(b)
    worse_by = (new - base) / base if better == "lower" else (base - new) / base
    noise = max(stats.spread(a), stats.spread(b))
    if noise > bound:
        word = "unresolved"
    elif worse_by > bound:
        word = "regressed"
    else:
        word = "ok"
    return {
        "a": base,
        "b": new,
        "ratio": new / base,
        "worse_by": worse_by,
        "spread": noise,
        "verdict": word,
    }


def compare(side_a: list[dict], side_b: list[dict], benchmark: dict) -> list[dict]:
    """Rows for every workload both sides ran; raises ValueError on a mismatch."""
    rows = []
    workloads = [
        entry["name"]
        for entry in benchmark["workloads"]
        if all(entry["name"] in doc["workloads"] for doc in side_a + side_b)
    ]
    if not workloads:
        raise ValueError("the two sides share no workload")
    for workload in workloads:
        identities = {identity(doc, workload) for doc in side_a + side_b}
        if len(identities) != 1:
            raise ValueError(
                f"{workload}: input hashes or kernel backend differ between the "
                f"files ({sorted(identities)}); they did not measure the same thing"
            )
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            values = [
                [doc["workloads"][workload]["end_to_end"][name] for doc in side]
                for side in (side_a, side_b)
            ]
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": metric["unit"],
                    "bound": metric["bound"],
                    "runs": (len(side_a), len(side_b)),
                    **verdict(*values, metric["better"], metric["bound"]),
                }
            )
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        rows = compare(load_side(argv[0]), load_side(argv[1]), benchmark)
    except ValueError as error:
        print(f"perfbench compare: refused: {error}", file=sys.stderr)
        return 2
    print(
        f"{'workload':<12} {'metric':<26} {'A (base)':>12} {'B':>12} {'B/A':>7} "
        f"{'worse by':>9} {'bound':>6} {'spread':>7}  verdict"
    )
    for row in rows:
        print(
            f"{row['workload']:<12} {row['metric']:<26} {row['a']:>12.5g} "
            f"{row['b']:>12.5g} {row['ratio']:>7.3f} {row['worse_by']:>+9.1%} "
            f"{row['bound']:>6.0%} {row['spread']:>7.1%}  {row['verdict']}"
            f" (n={row['runs'][0]}+{row['runs'][1]} {row['unit']})"
        )
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
