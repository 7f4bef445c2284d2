"""Smoke test of the benchmark at toy sizes; no timing bound.

    python3 -m pytest benchmark/test_smoke.py -q      (from the repository root)

Every workload runs end to end, untraced and traced, with its output checks
passing and its printed metric names matching BENCHMARK.json; and a
deliberately corrupted output of each workload is counted as a failure.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import worker  # noqa: F401  (pins BLAS threads and puts src/ on the path first)
from workloads import SIZES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_runs_and_reports_declared_metrics(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def _corrupt_fit_scale(root: Path):
    path = root / "fit" / "fit_report.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    report["loglik_trace"].append(report["loglik_trace"][-1] - 1.0)
    path.write_text(json.dumps(report), encoding="utf-8")
    return "fit"


def _corrupt_em_boundary(root: Path):
    path = root / "fit1" / "fit_report.json"
    report = json.loads(path.read_text(encoding="utf-8"))
    report["zeta"]["values"] = [2.0 * v for v in report["zeta"]["values"]]
    path.write_text(json.dumps(report), encoding="utf-8")
    return "fit1"


def _corrupt_compare_cv(root: Path):
    path = root / "cmp" / "comparison.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[3] = lines[3].split(",")[0] + ",,,,,,"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return "compare"


def _corrupt_micrograph(root: Path):
    import numpy as np
    path = root / "tpc_large" / "curves.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = lines[5].split(",")
    fields[3] = repr(float(np.nextafter(float(fields[3]), 2.0)))  # one ulp off
    lines[5] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return "tpc_large"


CORRUPT = {
    "fit_scale": _corrupt_fit_scale,
    "em_boundary": _corrupt_em_boundary,
    "compare_cv": _corrupt_compare_cv,
    "micrograph": _corrupt_micrograph,
}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_corrupted_output_counts_as_failure(workload):
    root = ROOT / ".bench_work" / f"smoke-{workload}"
    shutil.rmtree(root, ignore_errors=True)
    args = argparse.Namespace(workload=workload, seed=3, size="toy", dir=str(root))
    try:
        worker.setup(args)
        if workload == "micrograph":
            worker.reference(args)
        runner = worker.Runner(args)
        runner.run_pass()
        assert runner.result()["failed"] == 0, runner.failures
        op = CORRUPT[workload](root)
        size = SIZES["toy"][workload]
        errors = dict(WORKLOADS[workload].check(root, size, runner.reference))
        assert errors[op] is not None
        assert all(err is None for name, err in errors.items() if name != op)
    finally:
        shutil.rmtree(root, ignore_errors=True)
