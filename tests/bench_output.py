"""Time the making of path.csv's rows, during and after the solve, on the
benchmark's jobs.

This script is not collected by pytest.  Run it from the root of a checkout,
with one BLAS thread:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/bench_output.py \
        [--seeds 3 11] [--jobs 2] [--repeat 7] [--workloads lasso_ls ...] \
        [--per 2 5 10] [--fork-cells 30000]

For jobs 0 .. jobs-1 of each seed of each benchmark workload
(perfbench/workloads.make_job, full size) it makes path.csv's rows as
`penpath solve` does, in this process: the path solved under a
`cli._Table`, then `_Table.finish` and `cli._join_parts` into memory
(logistic_cv's crossval job: its full-data path).  Each job runs serially
(no fork allowed) and streamed (the formatter child forked as soon as
--fork-cells cells wait, 1 by default, in place of `cli._FORK_MIN_CELLS`),
--repeat alternating runs each, and the script prints their medians, in ms:

    serial    solve, the part of it spent in on_segment and the sampling
              (`PathSegment.betas_at`) in that, then the tail (finish and
              join) and the sampling and formatting in it
    streamed  this process: the solve, the part of it spent in on_segment
              (`_Table.add`: the grid, sampling each segment's rows, the
              fork and the pipes) and the sampling in that; the tail, the
              sampling (the path's last row) and formatting in it and the
              blocks formatted here; minor page faults (ru_minflt) during
              the solve and the tail
              the child: its work's time from start to end, busy
              formatting blocks and idle waiting for them, the blocks it
              formatted, its minor page faults, and when its last block
              ended against the end of this process's tail

It asserts that the serial bytes equal a reference formatted cell by cell
("%.17g" for each float, "%d" for df) from `PathSolution.sample`, which
serves each rho by the rule `_Table.add` samples by, and that
the streamed bytes equal the serial ones.  It also prints each table's
distinct share (distinct coefficient values, by bits, per coefficient cell)
and repeat share (coefficient cells whose bits equal their left or upper
neighbour's and are not +0.0, per coefficient cell).

With --per N ..., each job also runs with samples_per_segment N in place of
its own, for smaller tables: serial against streamed whole-table times
there, for a few values of --fork-cells, are what `cli._FORK_MIN_CELLS` is
set from.  Streaming needs two usable CPUs.
"""

import argparse
import dataclasses
import io
import resource
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
from penpath.path import PathSegment, information_criteria  # noqa: E402
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


def minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


class Timeline:
    """Times the calls that make path.csv's rows while installed: in this
    process, on_segment (`_Table.add`), sampling (`PathSegment.betas_at`)
    and formatting (`cli._block_rows`); in the formatter child, its
    formatting, its life and its minor page faults, which it writes to a
    file as its work (`cli._format_blocks`) returns."""

    def __init__(self, scratch):
        self.path = Path(scratch) / "child"
        self.spans = []  # (kind, start, end) in this process

    def timed(self, kind, fn):
        def call(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans.append((kind, start, time.perf_counter()))
        return call

    def child_work(self, real):
        def work(*args):
            self.spans, start, faults = [], time.perf_counter(), minor_faults()
            outcomes = real(*args)
            busy = sum(end - begin for _, begin, end in self.spans)
            last = max((end for _, _, end in self.spans), default=start)
            self.path.write_text(" ".join(map(str, (
                start, time.perf_counter(), busy, len(self.spans), last,
                minor_faults() - faults))))
            return outcomes
        return work

    def install(self):
        return [mock.patch.object(cli._Table, "add", self.timed("add", cli._Table.add)),
                mock.patch.object(PathSegment, "betas_at",
                                  self.timed("sample", PathSegment.betas_at)),
                mock.patch.object(cli, "_block_rows", self.timed("format", cli._block_rows)),
                mock.patch.object(cli, "_format_blocks", self.child_work(cli._format_blocks))]

    def within(self, kind, start, end):
        return sum(b - a for k, a, b in self.spans if k == kind and start <= a and b <= end)


def run_table(spec, scratch, timeline, fork_cells):
    """path.csv's rows as `penpath solve` makes them, with the child forked
    once fork_cells cells wait (never where it is None), and the run's times."""
    patches = [mock.patch.object(cli, "_fork_cpus", lambda: 0 if fork_cells is None else 2),
               mock.patch.object(cli, "_FORK_MIN_CELLS", fork_cells), *timeline.install()]
    for patch in patches:
        patch.start()
    try:
        timeline.spans = []
        faults0, t0 = minor_faults(), time.perf_counter()
        with ExitStack() as stack:
            table = cli._Table(spec, spec.options, scratch, stack)
            solution = cli._checked_path(spec, spec.options, table.add)
            faults1, t1 = minor_faults(), time.perf_counter()
            written = table.finish(solution)
            out = io.BytesIO()
            cli._join_parts(out, table.parts, table.owners, written)
            t2 = time.perf_counter()
        faults2 = minor_faults()
    finally:
        for patch in patches:
            patch.stop()
    ms = 1e3
    times = {
        "solve": ms * (t1 - t0),
        "add": ms * timeline.within("add", t0, t1),
        "add sampling": ms * timeline.within("sample", t0, t1),
        "tail": ms * (t2 - t1),
        "tail sampling": ms * timeline.within("sample", t1, t2),
        "tail formatting": ms * timeline.within("format", t1, t2),
        "blocks here": table.owners.count(0),
        "solve minflt": faults1 - faults0,
        "tail minflt": faults2 - faults1,
    }
    if len(table.parts) > 1:
        start, end, busy, blocks, last, faults = map(float, timeline.path.read_text().split())
        timeline.path.unlink()
        times.update({
            "child life": ms * (end - start), "child busy": ms * busy,
            "child idle": ms * (end - start - busy), "child blocks": int(blocks),
            "child minflt": int(faults), "child last block - tail end": ms * (last - t2),
        })
    return out.getvalue(), solution, times


def medians(runs):
    return {key: statistics.median(run[key] for run in runs) for key in runs[0]}


def show(times, keys):
    return ", ".join(f"{key} {times[key]:.1f}" if isinstance(times[key], float)
                     else f"{key} {times[key]}" for key in keys if key in times)


def compare(spec, scratch, repeat, fork_cells):
    """Serial and streamed runs of one table, alternating: (serial bytes,
    solution, serial medians, streamed medians)."""
    timeline = Timeline(scratch)
    serial, solution, _ = run_table(spec, scratch, timeline, None)
    runs = {None: [], fork_cells: []}
    for _ in range(repeat):
        for cells in runs:
            data, _, times = run_table(spec, scratch, timeline, cells)
            assert data == serial, "streamed bytes differ from serial ones"
            runs[cells].append(times)
    return serial, solution, medians(runs[None]), medians(runs[fork_cells])


SERIAL_KEYS = ("solve", "add", "add sampling", "tail", "tail sampling", "tail formatting",
               "solve minflt", "tail minflt")
STREAMED_KEYS = ("solve", "add", "add sampling", "tail", "tail sampling", "tail formatting",
                 "blocks here", "solve minflt", "tail minflt")
CHILD_KEYS = ("child life", "child busy", "child idle", "child blocks", "child minflt",
              "child last block - tail end")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[3, 11])
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--repeat", type=int, default=7)
    parser.add_argument("--workloads", nargs="+", default=["lasso_ls", "fused_fsa", "logistic_cv"])
    parser.add_argument("--per", type=int, nargs="*", default=[])
    parser.add_argument("--fork-cells", type=int, default=1)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as scratch:
        for name in args.workloads:
            for seed in args.seeds:
                for index in range(args.jobs):
                    job = make_job(WORKLOADS[name], "full", seed, index,
                                   Path(scratch) / f"{name}-{seed}")
                    spec = parse_problem_spec(str(job.spec))
                    serial, solution, quiet, streamed = compare(spec, scratch, args.repeat,
                                                                args.fork_cells)
                    rhos = solution.rho_grid(spec.samples_per_segment)
                    if solution.direction == "backward":
                        rhos = rhos[::-1]
                    expected, betas = reference_bytes(spec, solution, rhos)
                    assert serial == expected, (name, seed, index)
                    distinct, repeat = shares(betas)
                    print(f"{name} seed {seed} job {index}: {rhos.size} rows of "
                          f"{solution.p + 5} cells, distinct share {distinct:.3f}, "
                          f"repeat share {repeat:.3f}", flush=True)
                    print(f"    serial: {show(quiet, SERIAL_KEYS)}", flush=True)
                    print(f"    streamed: {show(streamed, STREAMED_KEYS)}", flush=True)
                    print(f"        {show(streamed, CHILD_KEYS)}", flush=True)
                    for per in args.per:
                        smaller = dataclasses.replace(spec, samples_per_segment=per)
                        _, _, quiet, streamed = compare(smaller, scratch, args.repeat,
                                                        args.fork_cells)
                        cells = solution.rho_grid(per).size * (solution.p + 5)
                        print(f"    {per} samples a segment ({cells} cells): serial "
                              f"{quiet['solve'] + quiet['tail']:.1f} ms, streamed "
                              f"{streamed['solve'] + streamed['tail']:.1f} ms "
                              f"({'forked' if 'child life' in streamed else 'not forked'})",
                              flush=True)
    print("serial bytes equal the per-cell reference and streamed bytes the serial ones "
          "on every table")


if __name__ == "__main__":
    main()
