"""Write the CLI outputs of the benchmark's jobs, to compare two versions of
penpath byte for byte.

This script is not collected by pytest.  For jobs 0 and 1 of seeds 3 and 11
of lasso_ls, fused_fsa and logistic_cv (perfbench/workloads.make_job, full
size), it writes the job's input files under OUT/<workload>-<seed>/job<index>/
and runs `penpath.cli.main` on them in this process, which writes the job's
outputs to out/ there: path.csv, kinks.jsonl and report.txt of a `solve`
job, cv.csv and cv_report.txt of a `crossval` one.

Run it from the root of each checkout, forked (one BLAS thread, so the CLI
shares its work with forked children on a host with two or more CPUs) and
serial (two BLAS threads), then compare:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/cli_outputs.py A/forked
    OPENBLAS_NUM_THREADS=2 PYTHONPATH=src python tests/cli_outputs.py A/serial
    (the same from the other checkout into B/forked and B/serial)
    diff -r A B

OUT must not exist yet.  The exit status is 1 when a job exits nonzero.
"""

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, make_job  # noqa: E402

from penpath import cli  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path)
    args = parser.parse_args(argv)

    failed = 0
    for name in ("lasso_ls", "fused_fsa", "logistic_cv"):
        for seed in (3, 11):
            for index in (0, 1):
                job = make_job(WORKLOADS[name], "full", seed, index, args.out / f"{name}-{seed}")
                code = cli.main(job.argv)
                print(f"{name} seed {seed} job {index}: exit {code}", flush=True)
                failed += code != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
