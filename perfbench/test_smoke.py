"""Smoke test of the benchmark itself, at the smallest input sizes.

    python3 -m pytest perfbench/test_smoke.py

It checks that every metric BENCHMARK.json names is emitted with its unit,
that the traced run's outputs and counts repeat, that a corrupted path.csv is
counted as a failed job, and that a missing hook is listed instead of
crashing.  It makes no timing assertion.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(workload, trace):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    details, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    return details, result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    details, result = _bench(workload, trace)
    section = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section
    }
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == len(details["failures"])
    assert details["environment"]["threads"] == {
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"
    }
    if trace:
        checks = details["trace_checks"]
        assert checks["outputs_byte_identical"] and checks["counts_repeat"]
        assert checks["missing_hooks"] == []


def test_benchmark_workloads_exist():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)


def _corrupt_cell(path, row, column, value):
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[column] = value
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_corrupted_path_csv_is_counted_as_failed(tmp_path):
    result, _ = run.run_worker("lasso_ls", 0, 0.0, "smoke", tmp_path / "w", run.child_env(ROOT))
    jobs = result["jobs"]
    first, second = (Path(job["out"]) / "path.csv" for job in jobs[:2])
    # a row the oracle compares in the oracle-checked job, the terminal row of another
    data_rows = len(first.read_text().splitlines()) - 1
    _corrupt_cell(first, 1 + checks._interior(data_rows)[1], 1, "0.125")
    _corrupt_cell(second, -1, 1, "0.125")
    run.check_jobs(jobs)
    failures, wrong_output = run.tally(jobs)
    assert [f["index"] for f in failures] == [0, 1]
    assert all(f["reason"].startswith("check:") for f in failures)
    assert wrong_output
    assert all(job["ok"] for job in jobs[2:])


def test_failed_crossval_job_records_the_library_exception(tmp_path):
    import numpy as np
    from penpath import cli

    import worker
    from workloads import Job

    # a response that the first column separates: no unpenalized MLE exists
    rng = np.random.default_rng(0)
    x = rng.normal(size=(30, 3))
    y = (x[:, 0] + 0.05 * rng.normal(size=30) > 0).astype(float)
    np.savetxt(tmp_path / "design.csv", x, delimiter=",")
    np.savetxt(tmp_path / "response.csv", y, delimiter=",")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "dimension": 3,
        "loss": {"kind": "glm", "family": "logistic", "design": "design.csv",
                 "response": "response.csv"},
        "constraints": [{"builder": "lasso"}],
    }))
    out = tmp_path / "out"
    argv = ["crossval", str(spec), "--folds", "2", "--seed", "7", "--out", str(out)]
    job = Job(0, argv, spec, out, "crossval", 3, {"folds": 2, "cv_seed": 7})
    failure = worker.run_job(job, cli.main, None)["failure"]
    assert failure["exit"] == 2
    assert failure["class"] == "ReducedHessianSingular"


def test_missing_hook_is_listed_not_fatal():
    import penpath.path

    tracer = Tracer()
    tracer.patch(penpath.path, "no_such_helper", lambda fn: fn)
    assert tracer.missing_hooks == ["penpath.path.no_such_helper"]


def test_run_refuses_a_directory_without_the_program(tmp_path):
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "lasso_ls", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0 and done.stdout == ""
