"""Tests for the CI benchmark-regression gate (``benchmarks/check_regression.py``).

The gate compares pytest-benchmark medians against the committed
``benchmarks/baseline.json`` and fails CI on >tolerance regressions; these
tests pin its comparison logic, exit codes and baseline-refresh mode, and
sanity-check the committed baseline file itself.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SCRIPT = REPO_ROOT / "benchmarks" / "check_regression.py"


def _results_json(medians: dict[str, float], mins: dict[str, float] | None = None) -> dict:
    mins = mins or {}
    benchmarks = []
    for name, median in medians.items():
        stats = {"median": median}
        if name in mins:
            stats["min"] = mins[name]
        benchmarks.append({"name": name, "stats": stats})
    return {"benchmarks": benchmarks}


def _run_gate(
    tmp_path,
    results: dict[str, float],
    baseline: dict[str, float],
    *args,
    mins: dict[str, float] | None = None,
):
    results_path = tmp_path / "results.json"
    results_path.write_text(json.dumps(_results_json(results, mins)))
    baseline_path = tmp_path / "baseline.json"
    baseline_path.write_text(json.dumps({"meta": {}, "medians": baseline}))
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(results_path), str(baseline_path), *args],
        capture_output=True,
        text=True,
    )


class TestGate:
    def test_passes_within_tolerance(self, tmp_path):
        run = _run_gate(
            tmp_path, {"bench_a": 0.0014, "bench_b": 0.002}, {"bench_a": 0.001, "bench_b": 0.002}
        )
        assert run.returncode == 0, run.stderr
        assert "all 2 benchmarks within tolerance" in run.stdout

    def test_fails_on_regression_beyond_tolerance(self, tmp_path):
        run = _run_gate(
            tmp_path, {"bench_a": 0.0016, "bench_b": 0.002}, {"bench_a": 0.001, "bench_b": 0.002}
        )
        assert run.returncode == 1
        assert "REGRESSION" in run.stdout
        assert "bench_a" in run.stderr

    def test_tolerance_flag_is_honored(self, tmp_path):
        run = _run_gate(
            tmp_path, {"bench_a": 0.0019}, {"bench_a": 0.001}, "--tolerance", "2.0"
        )
        assert run.returncode == 0, run.stderr

    def test_new_and_missing_benchmarks_do_not_fail(self, tmp_path):
        run = _run_gate(
            tmp_path, {"bench_new": 0.001}, {"bench_gone": 0.001}
        )
        assert run.returncode == 0, run.stderr
        assert "NEW" in run.stdout
        assert "MISSING" in run.stdout

    def test_update_rewrites_baseline(self, tmp_path):
        results_path = tmp_path / "results.json"
        results_path.write_text(json.dumps(_results_json({"bench_a": 0.005})))
        baseline_path = tmp_path / "baseline.json"
        run = subprocess.run(
            [
                sys.executable,
                str(SCRIPT),
                str(results_path),
                str(baseline_path),
                "--update",
            ],
            capture_output=True,
            text=True,
        )
        assert run.returncode == 0, run.stderr
        written = json.loads(baseline_path.read_text())
        assert written["medians"] == {"bench_a": 0.005}


class TestSpeedupPairs:
    """The ``--speedup-pair`` gate used by the native-kernel benchmarks."""

    BASE = {"slow": 0.010, "fast": 0.004}

    def test_pair_meeting_ratio_passes(self, tmp_path):
        run = _run_gate(
            tmp_path, dict(self.BASE), dict(self.BASE),
            "--speedup-pair", "slow:fast:2.0",
        )
        assert run.returncode == 0, run.stderr
        assert "ok         slow / fast  speedup  2.50x" in run.stdout

    def test_pair_below_ratio_fails(self, tmp_path):
        run = _run_gate(
            tmp_path, dict(self.BASE), dict(self.BASE),
            "--speedup-pair", "slow:fast:3.0",
        )
        assert run.returncode == 1
        assert "TOO SLOW" in run.stdout
        assert "slow / fast" in run.stderr

    def test_pair_compares_minima_when_present(self, tmp_path):
        # Medians alone would fail the 3x gate (2.5x); the noise-robust
        # minima (0.009 / 0.002 = 4.5x) pass it.
        run = _run_gate(
            tmp_path, dict(self.BASE), dict(self.BASE),
            "--speedup-pair", "slow:fast:3.0",
            mins={"slow": 0.009, "fast": 0.002},
        )
        assert run.returncode == 0, run.stderr
        assert "speedup  4.50x" in run.stdout

    def test_pair_with_missing_leg_is_skipped(self, tmp_path):
        # The native leg is absent (e.g. extension not built): the pair
        # is reported as skipped, and the same invocation still passes.
        run = _run_gate(
            tmp_path, {"slow": 0.010}, {"slow": 0.010},
            "--speedup-pair", "slow:fast:2.0",
        )
        assert run.returncode == 0, run.stderr
        assert "SKIPPED" in run.stdout

    def test_malformed_pair_spec_is_rejected(self, tmp_path):
        run = _run_gate(
            tmp_path, dict(self.BASE), dict(self.BASE),
            "--speedup-pair", "slow:fast",
        )
        assert run.returncode == 2
        assert "expected SLOW:FAST:RATIO" in run.stderr


class TestCommittedBaseline:
    def test_baseline_exists_and_covers_core_benchmarks(self):
        baseline = json.loads((REPO_ROOT / "benchmarks" / "baseline.json").read_text())
        medians = baseline["medians"]
        assert all(isinstance(v, float) and v > 0 for v in medians.values())
        for required in (
            "test_bench_mqg_discovery_with_reduction",
            "test_bench_v3_warm_start_first_query",
            "test_bench_offline_precomputation",
            "test_bench_v3_warm_start",
            "test_bench_cold_start_from_triples",
            "test_ness_csr_neighbors_python",
            "test_ness_csr_neighbors_native",
        ):
            assert required in medians

    def test_baseline_gates_exactly_the_benchmarks_ci_runs(self):
        # A baseline entry without a benchmark is reported MISSING and a
        # benchmark without an entry NEW; neither fails the gate, so
        # either would sit there un-gated.  Whole-query latency belongs
        # to perfbench (BENCHMARK.json), not to this gate.
        workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
        step = workflow[workflow.index("GQBE_BENCH_SCALE="):]
        assert step.startswith("GQBE_BENCH_SCALE=2 ")
        files = re.findall(r"benchmarks/bench_\w+\.py", step[: step.index("--benchmark-json")])
        defined = {
            name
            for file in files
            for name in re.findall(
                r"^def (test_\w+)\(", (REPO_ROOT / file).read_text(), re.MULTILINE
            )
        }
        baseline = json.loads((REPO_ROOT / "benchmarks" / "baseline.json").read_text())
        assert set(baseline["medians"]) == defined
        assert not any("end_to_end" in name or "serving_window" in name for name in defined)

    def test_ci_runs_every_benchmark_script(self):
        # pytest's testpaths is tests/, so a script under benchmarks/ runs
        # only if a CI step names it; otherwise what it asserts never runs.
        workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
        steps = "\n".join(
            line for line in workflow.splitlines() if not line.lstrip().startswith("#")
        )
        scripts = sorted(
            path.relative_to(REPO_ROOT).as_posix()
            for pattern in ("bench_*.py", "check_*.py")
            for path in (REPO_ROOT / "benchmarks").glob(pattern)
        )
        assert scripts
        assert [script for script in scripts if script not in steps] == []
