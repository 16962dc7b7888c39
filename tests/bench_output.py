"""Time the writing of path.csv's rows on the benchmark's jobs.

This script is not collected by pytest.  Run it from the root of a checkout,
with one BLAS thread:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/bench_output.py \
        [--seeds 3 11] [--jobs 2] [--repeat 7] [--fork-rows 150 299]

For jobs 0 .. jobs-1 of each seed of each benchmark workload
(perfbench/workloads.make_job, full size), it solves the path of the job's
spec as `penpath solve` does (logistic_cv's crossval job: its full-data
path), then times one serial `cli._sample_rows` call over the whole sample
grid, the minimum of --repeat calls.  It prints, per table:

    rows, coefficient cells, the seconds of the serial call,
    distinct share   distinct coefficient values (by bits) / coefficient cells
    repeat share     coefficient cells whose bits equal their left or upper
                     neighbour's and are not +0.0, / coefficient cells

and asserts that the bytes written equal a reference formatted cell by cell
("%.17g" for each float, "%d" for df) from `PathSolution.sample`.

With --fork-rows N ..., it also times, on N rows spread evenly over each
grid (so that they hold the path's ties as the whole table does), one serial
`_sample_rows` call against `_sampled_points` over two slices (one forked
child), the median of --repeat alternating calls each.  That is the
break-even the fork threshold `cli._SLICE_MIN_CELLS` is set from.
"""

import argparse
import io
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS, make_job  # noqa: E402

from penpath import cli  # noqa: E402
from penpath.path import information_criteria  # noqa: E402
from penpath.problemspec import parse_problem_spec  # noqa: E402


def reference_bytes(spec, solution, rhos):
    """path.csv's rows at rhos, each cell formatted on its own."""
    betas, dfs = solution.sample(rhos)
    out = io.StringIO()
    for rho, beta, df in zip(rhos, betas, dfs):
        value = spec.model.value(beta)
        aic, bic = information_criteria(-value, df, spec.n_observations)
        cells = ["%.17g" % float(rho)] + ["%.17g" % v for v in beta.tolist()]
        cells += ["%d" % df] + ["%.17g" % v for v in (value, aic, bic)]
        out.write(",".join(cells) + "\n")
    return out.getvalue().encode(), betas


def shares(betas):
    """(distinct share, repeat share) of a table's coefficient cells."""
    bits = np.ascontiguousarray(betas).view(np.int64)
    distinct = np.unique(bits).size
    repeat = np.zeros(bits.shape, dtype=bool)
    repeat[:, 1:] |= bits[:, 1:] == bits[:, :-1]
    repeat[1:, :] |= bits[1:, :] == bits[:-1, :]
    repeat &= bits != 0  # +0.0 is all zero bits
    return distinct / bits.size, repeat.sum() / bits.size


def timed(repeat, *fns):
    """Each fn's call times, the calls alternating over repeat rounds."""
    times = [[] for _ in fns]
    for _ in range(repeat):
        for fn, record in zip(fns, times):
            start = time.perf_counter()
            fn()
            record.append(time.perf_counter() - start)
    return times


def serial_rows(spec, solution, rhos, scratch):
    with tempfile.TemporaryFile(dir=scratch) as part:
        cli._sample_rows(spec, solution, rhos, part)
        part.seek(0)
        return part.read()


def two_slices(spec, solution, rhos, scratch):
    slices = np.array_split(rhos, 2)
    with tempfile.TemporaryFile(dir=scratch) as first, tempfile.TemporaryFile(dir=scratch) as second:
        cli._sampled_points(spec, solution, slices, [first, second])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[3, 11])
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--repeat", type=int, default=7)
    parser.add_argument("--workloads", nargs="+", default=["lasso_ls", "fused_fsa", "logistic_cv"])
    parser.add_argument("--fork-rows", type=int, nargs="*", default=[])
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as scratch:
        for name in args.workloads:
            for seed in args.seeds:
                for index in range(args.jobs):
                    job = make_job(WORKLOADS[name], "full", seed, index, Path(scratch) / f"{name}-{seed}")
                    spec = parse_problem_spec(str(job.spec))
                    solution = cli._checked_path(spec, spec.options)
                    rhos = solution.rho_grid(spec.samples_per_segment)
                    if solution.direction == "backward":
                        rhos = rhos[::-1]
                    expected, betas = reference_bytes(spec, solution, rhos)
                    assert serial_rows(spec, solution, rhos, scratch) == expected, (name, seed, index)
                    [seconds] = timed(args.repeat, lambda: serial_rows(spec, solution, rhos, scratch))
                    distinct, repeat = shares(betas)
                    print(f"{name} seed {seed} job {index}: {rhos.size} rows, {betas.size} "
                          f"coefficient cells, serial {1e3 * min(seconds):.1f} ms, "
                          f"distinct share {distinct:.3f}, repeat share {repeat:.3f}", flush=True)
                    for rows in args.fork_rows:
                        spread = rhos[np.linspace(0, rhos.size - 1, rows).round().astype(int)]
                        serial, forked = timed(args.repeat,
                                               lambda: serial_rows(spec, solution, spread, scratch),
                                               lambda: two_slices(spec, solution, spread, scratch))
                        print(f"    {spread.size} rows ({spread.size * (solution.p + 5)} cells): serial "
                              f"{1e3 * statistics.median(serial):.1f} ms, two slices "
                              f"{1e3 * statistics.median(forked):.1f} ms", flush=True)
    print("bytes equal the per-cell reference on every table")


if __name__ == "__main__":
    main()
