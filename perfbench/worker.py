"""Run one workload's jobs in this process and write their records as JSON.

run.py starts this script as a fresh subprocess with PYTHONPATH=src and one
BLAS/OpenMP thread.  For each job it times the calibration kernel, writes the
input files (untimed), times `penpath.cli.main(argv)` from the spec file to
the written output files, and hashes the outputs (untimed).  It keeps starting jobs until --seconds have
passed.  With --trace every job runs under the Tracer, its record carries
that job's per-hook statistics, and job 0 runs a second time into another
directory so the caller can check that counts and bytes repeat.

    python3 perfbench/worker.py --workload lasso_ls --seed 1 --seconds 10 \
        --size full --work DIR --result FILE [--trace]
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import sys
import time

import calibration
from workloads import WORKLOADS, make_job

MIN_JOBS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def _first_line(text):
    lines = str(text).strip().splitlines()
    return lines[0] if lines else ""


def _cli_message(stderr):
    """The CLI's own error line; warnings printed before it are skipped."""
    for line in stderr.splitlines():
        if line.startswith(("error: ", "solver error: ")):
            return line
    return _first_line(stderr)


def diagnose(job):
    """Class and message of the library error behind a failed job.

    The CLI reports only an exit code and a message; rerunning the paths
    outside the timed region shows which exception the solver raised: the
    full-data path, then for crossval each fold's path on its training rows.
    """
    import numpy as np
    from penpath.path import run_path
    from penpath.problemspec import parse_problem_spec

    from checks import held_out_folds

    try:
        spec = parse_problem_spec(job.spec)
        run_path(spec.model, spec.constraints, spec.options)
        if job.command == "crossval":
            n = spec.n_observations
            for held_out in held_out_folds(n, job.facts["folds"], job.facts["cv_seed"]):
                train = np.setdiff1d(np.arange(n), held_out)
                run_path(spec.split_loss(train), spec.constraints, spec.options)
    except Exception as exc:  # recorded, not handled: the job already failed
        return type(exc).__name__, _first_line(exc)
    return None, ""


def outputs(directory):
    """{file name: [bytes, sha256]} of everything a job wrote."""
    found = {}
    if directory.is_dir():
        for path in sorted(directory.iterdir()):
            data = path.read_bytes()
            found[path.name] = [len(data), hashlib.sha256(data).hexdigest()]
    return found


def run_job(job, call, tracer):
    before = tracer.snapshot() if tracer else None
    stderr = io.StringIO()
    failure = None
    cpu_start = time.process_time()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(stderr):
            code = call(job.argv)
    except Exception as exc:  # a job that raises is a failed job, not a crash
        wall = time.perf_counter() - start
        code = None
        failure = {"exit": "raised", "class": type(exc).__name__, "message": _first_line(exc)}
    else:
        wall = time.perf_counter() - start
        if code != 0:
            failure = {"exit": code, "class": None, "message": _cli_message(stderr.getvalue())}
    cpu = time.process_time() - cpu_start
    record = {
        "index": job.index,
        "command": job.command,
        "argv": job.argv,
        "spec": str(job.spec),
        "out": str(job.out),
        "paths": job.paths,
        "facts": job.facts,
        "wall_s": wall,
        "cpu_s": cpu,
        "failure": failure,
        "outputs": outputs(job.out),
    }
    if tracer:
        stats, counts = tracer.snapshot()
        old_stats, old_counts = before
        record["stats"] = {
            name: [v - o for v, o in zip(rec, old_stats.get(name, (0, 0.0, 0.0)))]
            for name, rec in stats.items()
        }
        record["counts"] = {name: v - old_counts.get(name, 0) for name, v in counts.items()}
    if failure is not None and failure["class"] is None:
        failure["class"], failure["library_message"] = diagnose(job)
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    from penpath import cli

    workload = WORKLOADS[args.workload]
    tracer = None
    call = cli.main
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()
        call = tracer.wrap("cli.job", cli.main)

    jobs, repeat, kernel_s = [], None, []
    start = time.perf_counter()
    while len(jobs) < MIN_JOBS or time.perf_counter() - start < args.seconds:
        kernel_s.append(calibration.kernel())
        job = make_job(workload, args.size, args.seed, len(jobs), args.work)
        jobs.append(run_job(job, call, tracer))
        if tracer and repeat is None:
            out = job.out.with_name("out_repeat")
            argv = [str(out) if a == str(job.out) else a for a in job.argv]
            repeat = run_job(dataclasses.replace(job, argv=argv, out=out), call, tracer)

    result = {
        "environment": environment(),
        "jobs": jobs,
        "repeat": repeat,
        "kernel_s": kernel_s,
        "missing_hooks": tracer.missing_hooks if tracer else [],
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
