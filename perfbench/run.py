"""penpath benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload lasso_ls --seed 1 --seconds 20 --trace 0

Run it from the root of a penpath checkout; it imports the package from
src/ and reads and writes nothing outside the checkout (its scratch files go
to .perfbench_work/ and are removed at exit).

A job is one in-process `penpath.cli.main(["solve" | "crossval", ...])` call
on seeded input files, timed from the spec file to the written outputs.  The
jobs of a run execute in one fresh worker subprocess (worker.py) with one
BLAS and OpenMP thread; the caller waits for it with wait4, so the worker's
own peak RSS is known.  Every job's outputs are checked afterwards
(checks.py), outside the timed region.

--trace 0 reports the end-to-end metrics of an untraced run:
  setup_s       median time for a fresh interpreter to import penpath.cli
  solve_s_p50   median job wall time, a failed job counting as +inf
  paths_per_s   completed run_path calls (1 per solve, k+1 per k-fold
                crossval) per second of job wall time
  peak_rss_mb   peak resident memory of the worker
Each time is taken at the reference host speed of calibration.py, from the
kernel timed right before it; the details line holds the values as measured.
--trace 1 splits the time between an untraced worker and a traced one
(tracer.py) and reports the per-layer metrics as per-job means, plus the
tracing overhead.  Every job the two workers both ran must write
byte-identical outputs, and the traced counts must repeat on a second run of
job 0; a run where either does not hold is not correct.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
line before it holds the details: environment, every job, every failure.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
SETUP_SAMPLES = 5
WORKER_GRACE_S = 60.0

END_TO_END_UNITS = {"setup_s": "s", "solve_s_p50": "s", "paths_per_s": "1/s", "peak_rss_mb": "MB"}


def source_identity(root):
    """Git commit when the checkout is a repository, and a digest of src/."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def child_env(root):
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


# A fresh interpreter times the pure-Python kernel, then imports penpath.cli.
SETUP_PROBE = "import calibration; print(calibration.python_kernel()); import penpath.cli"


def measure_setup(env, samples=SETUP_SAMPLES):
    """(seconds for fresh interpreters to start and import penpath.cli, each one's
    python_kernel time)."""
    env = dict(env, PYTHONPATH=os.pathsep.join([str(HERE), env["PYTHONPATH"]]))
    times, kernel_s = [], []
    for _ in range(samples):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env, check=True,
                              stdin=subprocess.DEVNULL, capture_output=True, text=True,
                              timeout=60)
        wall = time.perf_counter() - start
        kernel_s.append(float(done.stdout))
        times.append(wall - kernel_s[-1])
    return times, kernel_s


def run_worker(workload, seed, seconds, size, work, env, trace=False):
    """Run worker.py to completion: (its result JSON, its peak RSS in MB)."""
    work.mkdir(parents=True)
    result_path = work / "result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--size", size, "--work", str(work),
           "--result", str(result_path)]
    if trace:
        cmd.append("--trace")
    with open(work / "stderr.txt", "w") as err:
        proc = subprocess.Popen(cmd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        deadline = time.monotonic() + seconds + WORKER_GRACE_S
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.05)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not result_path.is_file():
        tail = (work / "stderr.txt").read_text()[-2000:]
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{tail}")
    return json.loads(result_path.read_text()), usage.ru_maxrss / 1024.0


def check_jobs(jobs, oracle_first=True):
    """Check every job record in place; returns the largest oracle gap seen."""
    from checks import check_job

    gap = 0.0
    for i, job in enumerate(jobs):
        ok, reason, job_gap = check_job(job, oracle=oracle_first and i == 0)
        job["ok"], job["reason"] = ok, reason
        if job_gap is not None:
            gap = max(gap, job_gap)
    return gap


def _median_time(jobs, times):
    # a failed job misses every time limit, so it counts as +inf
    return statistics.median(t if job["ok"] else float("inf") for job, t in zip(jobs, times))


def _reference_times(result):
    """A worker's job wall times at the reference host speed."""
    from calibration import at_reference

    return [at_reference(job["wall_s"], k) for job, k in zip(result["jobs"], result["kernel_s"])]


def _finite(value):
    return value if value != float("inf") else sys.float_info.max


def end_to_end(result, setup, peak_rss_mb):
    """(metrics at the reference host speed, the same metrics as measured)."""
    from calibration import PYTHON_KERNEL_NOMINAL_S, at_reference

    jobs = result["jobs"]
    paths = sum(job["paths"] for job in jobs if job["ok"])

    def values(job_s, setup_s):
        return {
            "setup_s": statistics.median(setup_s),
            "solve_s_p50": _finite(_median_time(jobs, job_s)),
            "paths_per_s": paths / sum(job_s),
            "peak_rss_mb": peak_rss_mb,
        }

    measured = values([job["wall_s"] for job in jobs], setup[0])
    reference = values(_reference_times(result), [
        at_reference(s, k, PYTHON_KERNEL_NOMINAL_S) for s, k in zip(*setup)
    ])
    metrics = {name: {"value": reference[name], "unit": unit}
               for name, unit in END_TO_END_UNITS.items()}
    return metrics, measured


def per_layer(jobs, extra):
    """Per-job means of the traced counters, by metric name: (value, unit)."""
    from tracer import LAYER_OF

    n = len(jobs)
    stats, counts = {}, {}
    for job in jobs:
        for name, rec in job["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            for k in range(3):
                acc[k] += rec[k]
        for name, value in job["counts"].items():
            counts[name] = counts.get(name, 0) + value

    def calls(hook):
        return stats.get(hook, (0, 0.0, 0.0))[0] / n

    def total(hook):
        return stats.get(hook, (0, 0.0, 0.0))[1] / n

    def own(hook):
        return stats.get(hook, (0, 0.0, 0.0))[2] / n

    def count(name):
        return counts.get(name, 0) / n

    def ratio(a, b):
        return a / b if b else 0.0

    layer_self = {}
    for hook, layer in LAYER_OF.items():
        layer_self[layer] = layer_self.get(layer, 0.0) + own(hook)
    accepted = count("odeint.steps_accepted")

    m = {
        "problemspec.parse_s": (total("problemspec.parse"), "s"),
        "losses.self_s": (layer_self["losses"], "s"),
        "losses.newton_start_s": (total("losses.newton_start"), "s"),
        "losses.dhessian_calls": (calls("losses.dhessian"), "count"),
        "sweeplin.self_s": (layer_self["sweeplin"], "s"),
        "sweeplin.kkt_blocks_calls": (calls("sweeplin.kkt_blocks"), "count"),
        "sweeplin.kkt_blocks_s": (total("sweeplin.kkt_blocks"), "s"),
        "sweeplin.null_basis_calls": (calls("sweeplin.null_basis"), "count"),
        "sweeplin.null_basis_s": (total("sweeplin.null_basis"), "s"),
        "sweeplin.factorizations": (calls("sweeplin.factor"), "count"),
        "sweeplin.factor_s": (total("sweeplin.factor"), "s"),
        "sweeplin.solves": (calls("sweeplin.solve"), "count"),
        "sweeplin.solve_s": (total("sweeplin.solve"), "s"),
        "sweeplin.factorizations_per_rhs": (ratio(calls("sweeplin.factor"), calls("odeint.rhs")), "ratio"),
        "odeint.integrate_calls": (calls("odeint.integrate"), "count"),
        "odeint.integrate_s": (total("odeint.integrate"), "s"),
        "odeint.steps_accepted": (accepted, "count"),
        "odeint.steps_rejected": (count("odeint.step_attempts") - accepted, "count"),
        "odeint.rhs_calls": (calls("odeint.rhs"), "count"),
        "odeint.rhs_s": (total("odeint.rhs"), "s"),
        "odeint.self_s": (layer_self["odeint"], "s"),
        "odeint.locate_calls": (calls("odeint.locate"), "count"),
        "odeint.locate_s": (total("odeint.locate"), "s"),
        "odeint.locate_evals": (count("odeint.locate_evals"), "count"),
        "path.run_path_s": (total("path.run_path"), "s"),
        "path.self_s": (layer_self["path"], "s"),
        "path.kinks": (count("path.kinks"), "count"),
        "path.segments": (count("path.segments"), "count"),
        "path.point_segments": (count("path.point_segments"), "count"),
        "path.event_evals": (calls("path.event_eval"), "count"),
        "path.event_eval_s": (total("path.event_eval"), "s"),
        "path.event_evals_per_step": (ratio(calls("path.event_eval"), accepted), "ratio"),
        "path.sample_points": (count("path.sample_points"), "count"),
        "path.beta_at_s": (total("path.beta_at"), "s"),
        "path.beta_at_us": (1e6 * ratio(total("path.beta_at"), calls("path.beta_at")), "us"),
        "cli.job_s": (total("cli.job"), "s"),
        "cli.self_s": (own("cli.job"), "s"),
        "cli.bytes_written": (sum(sum(size for size, _ in job["outputs"].values())
                                  for job in jobs) / n, "bytes"),
        "cli.cv_pool_wall_s": (total("cli.cv_pool"), "s"),
        "cli.cv_fold_busy_s": (total("cli.cv_fold"), "s"),
        "cli.cv_parallel_eff": (ratio(total("cli.cv_fold"), count("cli.cv_worker_s")), "frac"),
    }
    for method in ("hessian", "gradient", "value"):
        m[f"losses.{method}_calls"] = (calls(f"losses.{method}"), "count")
        m[f"losses.{method}_s"] = (total(f"losses.{method}"), "s")
    m.update(extra)
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(m.items())}
    return metrics, {layer: s for layer, s in sorted(layer_self.items())}


def _repeat_counts(record):
    calls = {name: rec[0] for name, rec in record["stats"].items()}
    ints = {name: v for name, v in record["counts"].items() if not name.endswith("_s")}
    return calls, ints


def tally(jobs):
    """(failure records, whether any job's output failed its check) of checked jobs."""
    failures = [dict(job["failure"] or {}, index=job["index"], reason=job["reason"])
                for job in jobs if not job["ok"]]
    wrong_output = any((job["reason"] or "").startswith("check:") for job in jobs)
    return failures, wrong_output


def run(workload, seed, seconds, trace, size, root, work):
    """One benchmark run; returns (details, result) as printed by main."""
    env = child_env(root)
    details = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
               "size": size, "source": source_identity(root)}
    if not trace:
        setup = measure_setup(env)
        plain, rss = run_worker(workload, seed, seconds, size, work / "plain", env)
        gap = check_jobs(plain["jobs"])
        jobs = plain["jobs"]
        metrics, details["measured"] = end_to_end(plain, setup, rss)
        details["setup_samples_s"], details["setup_kernel_s"] = setup
        details["job_kernel_s"] = plain["kernel_s"]
    else:
        plain, _ = run_worker(workload, seed, seconds / 2, size, work / "plain", env)
        traced, _ = run_worker(workload, seed, seconds / 2, size, work / "traced", env,
                               trace=True)
        gap = check_jobs(plain["jobs"])
        check_jobs(traced["jobs"], oracle_first=False)
        check_jobs([traced["repeat"]], oracle_first=False)
        jobs = plain["jobs"] + traced["jobs"] + [traced["repeat"]]
        for job in traced["jobs"] + [traced["repeat"]]:
            job["traced"] = True
        # both workers ran the same seed, so job i is the same input in each
        pairs = list(zip(plain["jobs"], traced["jobs"])) + [(plain["jobs"][0], traced["repeat"])]
        identical = all(a["outputs"] == b["outputs"] for a, b in pairs)
        repeat = _repeat_counts(traced["jobs"][0]) == _repeat_counts(traced["repeat"])
        overhead = (statistics.median(_reference_times(traced))
                    / statistics.median(_reference_times(plain)) - 1.0)
        metrics, layer_self = per_layer(traced["jobs"], {
            "check.oracle_gap_max": (gap, "abs"),
            "check.failed_frac": (len(tally(jobs)[0]) / len(jobs), "frac"),
            "trace.overhead_frac": (overhead, "frac"),
            "trace.missing_hooks": (len(traced["missing_hooks"]), "count"),
        })
        details["trace_checks"] = {
            "outputs_byte_identical": identical,
            "jobs_compared": len(pairs),
            "counts_repeat": repeat,
            "missing_hooks": traced["missing_hooks"],
            "layer_self_s": layer_self,
        }
    details["environment"] = plain["environment"]
    details["oracle_gap_max"] = gap
    details["jobs"] = [
        {"index": job["index"], "traced": job.get("traced", False), "wall_s": job["wall_s"],
         "cpu_s": job["cpu_s"], "ok": job["ok"], "reason": job["reason"]}
        for job in jobs
    ]
    failures, wrong_output = tally(jobs)
    details["failures"] = failures
    details["failed_frac"] = len(failures) / len(jobs)
    if trace and not (details["trace_checks"]["outputs_byte_identical"]
                      and details["trace_checks"]["counts_repeat"]):
        wrong_output = True
    result = {
        "correct": not wrong_output,
        "attempted": len(jobs),
        "failed": len(failures),
        "metrics": metrics,
    }
    return details, result


def main(argv=None):
    # one BLAS thread here too: the checks run ADMM in this process
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="penpath benchmark: one workload, one run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="input size; 'smoke' is the smoke test's smallest size")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "penpath" / "cli.py").is_file():
        print("error: run from the root of a penpath checkout; src/penpath is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    scratch = root / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        details, result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.size, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
