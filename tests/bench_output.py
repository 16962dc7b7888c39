"""Time the writing of path.csv's rows on the benchmark's jobs.

This script is not collected by pytest.  Run it from the root of a checkout,
with one BLAS thread:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/bench_output.py \
        [--seeds 3 11] [--jobs 2] [--repeat 7] [--fork-rows 150 299]

For jobs 0 .. jobs-1 of each seed of each benchmark workload
(perfbench/workloads.make_job, full size), it solves the path of the job's
spec as `penpath solve` does (logistic_cv's crossval job: its full-data
path), then times `cli._sampled_points` in this process alone over the
whole sample grid (`cli._block_rows` on each block of rows in turn), the
minimum of --repeat calls.  It prints, per table:

    rows, coefficient cells, the seconds of the serial call,
    distinct share   distinct coefficient values (by bits) / coefficient cells
    repeat share     coefficient cells whose bits equal their left or upper
                     neighbour's and are not +0.0, / coefficient cells

and asserts that the bytes written equal a reference formatted cell by cell
("%.17g" for each float, "%d" for df) from `PathSolution.sample`.

With --fork-rows N ..., it also times, on the whole grid and on N rows
spread evenly over it (so that they hold the path's ties as the whole table
does), `_sampled_points` in this process alone against the same call
shared by two processes (this one and one forked child, whatever the fork
threshold), the median of --repeat alternating calls each.  For the shared
calls it also prints the median time each process took over its own
blocks (its `cli._each` call), this process's against the child's, then
the same two shares each sampled alone, one after the other, which a host
whose CPUs are shared with other work does not skew; and it asserts that
the shared bytes equal the serial ones.  Serial against shared is the
break-even the fork threshold `cli._SLICE_MIN_CELLS` is set from, and the
shared time less the slower process's own is what sharing costs; it needs
two usable CPUs.
"""

import argparse
import io
import os
import statistics
import sys
import tempfile
import time
from contextlib import ExitStack
from pathlib import Path
from unittest import mock

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


class ProcessClock:
    """Times each cli._each call while installed, in this process and in the
    ones it forks, by process id: each call appends a line to a file."""

    def __init__(self, scratch):
        self.path = Path(scratch) / "clock"

    def install(self):
        real, path = cli._each, self.path

        def timed_share(*args):
            start = time.perf_counter()
            try:
                return real(*args)
            finally:
                with open(path, "a") as log:
                    log.write(f"{os.getpid()} {time.perf_counter() - start}\n")

        return mock.patch.object(cli, "_each", timed_share)

    def take(self):
        """Seconds by process id since the last take."""
        seconds = {}
        if self.path.exists():
            for line in self.path.read_text().splitlines():
                pid, elapsed = line.split()
                seconds[int(pid)] = seconds.get(int(pid), 0.0) + float(elapsed)
            self.path.unlink()
        return seconds


def split(solution, rhos, cpus):
    """cli._slices where cpus processes may share rhos, whatever the fork
    threshold."""
    with mock.patch.object(cli, "_fork_cpus", lambda: cpus), \
            mock.patch.object(cli, "_SLICE_MIN_CELLS", 1):
        blocks, shares = cli._slices(solution, rhos)
    assert len(shares) == max(cpus, 1)
    return blocks, shares


def sampled_bytes(spec, solution, rhos, scratch, cpus):
    """path.csv's rows at rhos as `penpath solve` writes them where cpus
    processes may share them."""
    blocks, shares = split(solution, rhos, cpus)
    with ExitStack() as stack:
        parts = [stack.enter_context(tempfile.TemporaryFile(dir=scratch)) for _ in shares]
        written = cli._sampled_points(spec, solution, blocks, shares, parts)
        out = io.BytesIO()
        cli._join_parts(out, parts, shares, written)
    return out.getvalue()


def share_rows(spec, solution, rhos, scratch, k):
    """Process k's share of rhos, of two processes', sampled here alone."""
    blocks, shares = split(solution, rhos, 2)
    with tempfile.TemporaryFile(dir=scratch) as part:
        for index in shares[k]:
            part.write(cli._block_rows(spec, solution, blocks[index])[1])
            part.flush()


def compare_shared(spec, solution, rhos, scratch, repeat, clock):
    """Serial against two processes on rhos, each process's own time, and
    each process's share timed alone."""
    serial = sampled_bytes(spec, solution, rhos, scratch, 0)
    assert sampled_bytes(spec, solution, rhos, scratch, 2) == serial
    with clock.install():
        own = {"this": [], "child": []}

        def shared():
            clock.take()  # the other calls'
            sampled_bytes(spec, solution, rhos, scratch, 2)
            seconds = clock.take()
            own["this"].append(seconds.pop(os.getpid()))
            [child] = seconds.values()
            own["child"].append(child)

        serial_s, shared_s, first_s, second_s = timed(
            repeat, lambda: sampled_bytes(spec, solution, rhos, scratch, 0), shared,
            lambda: share_rows(spec, solution, rhos, scratch, 0),
            lambda: share_rows(spec, solution, rhos, scratch, 1))
    ms = lambda seconds: 1e3 * statistics.median(seconds)
    return (f"{rhos.size} rows ({rhos.size * (solution.p + 5)} cells): serial "
            f"{ms(serial_s):.1f} ms, two processes {ms(shared_s):.1f} ms (own rows: this "
            f"process {ms(own['this']):.1f} ms, the child {ms(own['child']):.1f} ms; "
            f"each alone {ms(first_s):.1f} and {ms(second_s):.1f} ms)")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[3, 11])
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--repeat", type=int, default=7)
    parser.add_argument("--workloads", nargs="+", default=["lasso_ls", "fused_fsa", "logistic_cv"])
    parser.add_argument("--fork-rows", type=int, nargs="*", default=[])
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as scratch:
        clock = ProcessClock(scratch)
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
                    assert sampled_bytes(spec, solution, rhos, scratch, 0) == expected, \
                        (name, seed, index)
                    [seconds] = timed(args.repeat,
                                      lambda: sampled_bytes(spec, solution, rhos, scratch, 0))
                    distinct, repeat = shares(betas)
                    print(f"{name} seed {seed} job {index}: {rhos.size} rows, {betas.size} "
                          f"coefficient cells, serial {1e3 * min(seconds):.1f} ms, "
                          f"distinct share {distinct:.3f}, repeat share {repeat:.3f}", flush=True)
                    if args.fork_rows:
                        print("    whole grid, " + compare_shared(
                            spec, solution, rhos, scratch, args.repeat, clock), flush=True)
                    for rows in args.fork_rows:
                        spread = rhos[np.linspace(0, rhos.size - 1, rows).round().astype(int)]
                        print("    " + compare_shared(spec, solution, spread, scratch, args.repeat,
                                                      clock), flush=True)
    print("bytes equal the per-cell reference on every table")


if __name__ == "__main__":
    main()
