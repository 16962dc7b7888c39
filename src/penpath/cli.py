"""Command-line front end.

Three subcommands:

    penpath solve <spec.json> --out <dir> [--mode {direct,nullspace}]
                  [--direction D] [--rho-max R] [--rel-tol T]
    penpath crossval <spec.json> --folds k [--seed s] --out <dir>
    penpath oracle <name> <args...>

`solve` runs the path described by a problem-spec file and writes three
files into the output directory: path.csv (sampled rows rho, beta_1..beta_p,
df, negloglik, aic, bic), kinks.jsonl (one JSON event per line), and
report.txt (terminal status plus the AIC- and BIC-minimizing rho).
`crossval` refits the path on k training folds and evaluates the held-out
loss on a shared rho grid that contains every kink of the full-data path.
`oracle` exposes the slow reference solvers for regenerating expected
values by hand.

Where BLAS runs one thread (OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS, is
1) and more than one CPU is usable, both subcommands share their work with
forked children: `crossval` solves the fold paths in at most one per CPU
while this process solves the full-data path, and `solve`, once enough of
path.csv's rows wait, forks one child to format them (_Table) while this
process solves the path, sampling each segment's rows as it is recorded.
Otherwise all the work runs one step after another here.  Formatted blocks
and forked folds each keep their result or error and the warnings they
issued (_each); a child returns them through a pipe.
They are reported in block or fold order (_in_order), each warning shown as
often as a serial run shows it, so the warnings, the error and the files
written are those of a serial run.  The `penpath` console script
(penpath_entry) defaults both variables to 1.

Exit codes: 0 success, 1 malformed or inconsistent problem input (a
command-line usage error included), 2 solver failure.  Nothing is written
unless the run succeeds, so a nonzero exit never leaves partial outputs
behind: path.csv's rows wait in unlinked temporary files, made in --out or
its nearest existing ancestor, until then.  The EPSODE_LOG environment
variable (error, info, debug) controls diagnostics on standard error.
"""

import argparse
import json
import logging
import mmap
import os
import pickle
import signal
import sys
import tempfile
import threading
import traceback
import warnings
from contextlib import ExitStack
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np

from .errors import PenPathError, SpecError, UnsupportedLoss
from .oracles import glasso_coordinate, pava, quadrature_j, solve_fixed_rho
from .path import MODES, degrees_of_freedom, information_criteria, run_path
from .problemspec import parse_problem_spec

log = logging.getLogger("penpath")

_LOG_LEVELS = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
_handler = None


def _setup_logging():
    # rebuild the handler so it always targets the current stderr
    global _handler
    if _handler is not None:
        log.removeHandler(_handler)
    _handler = logging.StreamHandler(sys.stderr)
    _handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    log.addHandler(_handler)
    raw = os.environ.get("EPSODE_LOG", "error")
    level = _LOG_LEVELS.get(raw.lower())
    if level is None:
        print(f"note: unknown EPSODE_LOG value {raw!r}, using 'error'", file=sys.stderr)
        level = logging.ERROR
    log.setLevel(level)


def _g12(x):
    return format(float(x), ".12g")


# Rows formatted together by _csv_block.  Larger blocks hold more repeats
# of each value, but np.unique sorts the whole block.  On the table of
# fused_fsa seed 3 job 0 (2,981 rows of 155 cells; one BLAS thread, medians
# of 9 alternating rounds), blocks of 16 to 64 rows took 0.49-0.51 of the
# time of formatting each cell, 8 rows 0.54, 128 rows 0.54 and 256 rows 0.58.
_BLOCK_ROWS = 32

# _csv_block formats each distinct value of a block once when at least this
# share of its cells repeat the bits of their left or upper neighbour, +0.0
# aside: "%.17g" writes a zero in about 0.1 us against about 0.5 us for other
# values.  On random 1,600-row tables of 85 nonzero cells, each cell copied
# from its left neighbour at a set share, the two ways broke even at a repeat
# share of about 0.2 (distinct values took 1.05 of the per-row time at 0.10,
# 0.99 at 0.20 and 0.84 at 0.25).  fused_fsa's tables read 0.68-0.71,
# lasso_ls's and logistic_cv's 0.000, since their only repeats are zeros.
_REPEAT_SHARE = 0.2


def _csv_block(block):
    """The rows of a 2-D float array as newline-terminated CSV lines, each
    cell as "%.17g" writes it.  A block whose cells repeat their neighbours
    (_REPEAT_SHARE) has each distinct value formatted once; values are told
    apart by their bits, so -0.0 and each NaN keep their own text."""
    bits = block.view(np.int64)
    repeats = np.zeros(bits.shape, dtype=bool)
    repeats[:, 1:] = bits[:, 1:] == bits[:, :-1]
    repeats[1:] |= bits[1:] == bits[:-1]
    repeats &= bits != 0
    if np.count_nonzero(repeats) < _REPEAT_SHARE * bits.size:
        template = ",".join(["%.17g"] * bits.shape[1]) + "\n"
        return [template % row for row in map(tuple, block.tolist())]
    keys, inverse = np.unique(bits, return_inverse=True)
    texts = ("%.17g\n" * keys.size % tuple(keys.view(np.float64).tolist())).split("\n")
    cells = np.array(texts, dtype=object)[inverse.reshape(bits.shape)]
    return [",".join(row) + "\n" for row in cells.tolist()]


def _path_csv_header(p):
    return "rho," + ",".join(f"beta_{i + 1}" for i in range(p)) + ",df,negloglik,aic,bic\n"


def _block_rows(spec, part, rows):
    """Write path.csv's rows (rho, beta, df, negloglik, aic, bic) to part from
    rows, sampled as (rho, df, beta) each: their (rho, aic, bic) and size."""
    # df counts coordinates, and "%.17g" writes a whole float as "%d" writes
    # the int.
    rhos, df, betas = rows[:, 0], rows[:, 1], np.ascontiguousarray(rows[:, 2:])
    values = spec.model.values(betas)
    aic, bic = information_criteria(-values, df, spec.n_observations)
    table = np.column_stack([rhos, betas, df, values, aic, bic])
    data = "".join(_csv_block(table)).encode()
    part.write(data)
    part.flush()
    return list(zip(rhos.tolist(), aic.tolist(), bic.tolist())), len(data)


def _kinks_jsonl(solution):
    lines = [json.dumps(vars(k) | {"kind": k.kind}, sort_keys=True) for k in solution.kinks]
    return "\n".join(lines) + ("\n" if lines else "")


def _report_text(spec, solution, points):
    """report.txt from the sampled rows' (rho, aic, bic), in path order."""
    aic_row = min(points, key=lambda r: (r[1], r[0]))
    bic_row = min(points, key=lambda r: (r[2], r[0]))
    lines = [
        f"status: {solution.status}",
        f"mode: {solution.mode}",
        f"direction: {solution.direction}",
        f"segments: {len(solution.segments)}",
        f"kinks: {len(solution.kinks)}",
        f"rho range: {_g12(points[0][0])} .. {_g12(points[-1][0])}",
        f"aic: minimum {_g12(aic_row[1])} at rho = {_g12(aic_row[0])}",
        f"bic: minimum {_g12(bic_row[2])} at rho = {_g12(bic_row[0])}",
    ]
    if spec.heuristic_df:
        lines.append(
            "note: df counts unpenalized coordinates, a heuristic for this loss"
        )
    for msg in solution.warnings:
        lines.append(f"warning: {msg}")
    return "\n".join(lines) + "\n"


def _checked_path(spec, options, on_segment=None):
    """run_path on the spec's problem, reporting validation errors as spec errors."""
    try:
        return run_path(spec.model, spec.constraints, options, on_segment=on_segment)
    except ValueError as exc:
        # entry-point validation (direction prerequisites, dimensions)
        raise SpecError(str(exc)) from exc


def _run_solve(args):
    spec = parse_problem_spec(args.spec)
    overrides = {}
    if args.mode is not None:
        overrides["mode"] = args.mode
    if args.direction is not None:
        overrides["direction"] = args.direction
    if args.rho_max is not None:
        overrides["rho_max"] = args.rho_max
    if args.rel_tol is not None:
        overrides["rel_tol"] = args.rel_tol
    try:
        options = replace(spec.options, **overrides) if overrides else spec.options
    except ValueError as exc:
        raise SpecError(str(exc)) from exc
    log.info("solving %s: %s loss, dim %d, %d eq + %d ineq rows",
             args.spec, spec.loss_kind, spec.dimension,
             spec.constraints.n_eq, spec.constraints.n_ineq)
    out = Path(args.out)
    near = next(d for d in (out, *out.parents) if d.is_dir())
    with ExitStack() as stack:
        table = _Table(spec, options, near, stack)
        solution = _checked_path(spec, options, table.add)
        log.info("path %s after %d kinks", solution.status, len(solution.kinks))
        written = table.finish(solution)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "path.csv", "wb") as handle:
            handle.write(_path_csv_header(spec.dimension).encode())
            _join_parts(handle, table.parts, table.owners, written)
    points = [row for rows, _ in written for row in rows]
    (out / "kinks.jsonl").write_text(_kinks_jsonl(solution))
    (out / "report.txt").write_text(_report_text(spec, solution, points))
    log.info("wrote %s from %d processes", out / "path.csv", len(table.parts))
    return 0


# path.csv cells that must wait to be formatted before `solve` forks a child
# to format blocks beside the solve.  Beside the child the solver's pages are
# copied as it writes them (tests/bench_output.py: a lasso_ls solve's minor
# faults rose from about 90 to 1,400 and its time by 11 ms).  With this value
# (one BLAS thread, 2-CPU host, medians of 11 alternating runs) lasso_ls
# tables of 43,000 cells were as fast forked, of 71,000 6-12 ms faster, and
# fused_fsa's of 46,000-93,000 cells 3-6 ms slower, of 185,000 61 ms faster.
_FORK_MIN_CELLS = 30000

# Blocks the formatter child holds, each in a slot of memory shared with it
# (32 rows of 150 coefficients are 38 KiB, more than half of what a pipe
# holds): handing over only to a free slot, this process never waits on it.
_CREDIT = 2


class _Table:
    """path.csv's rows, sampled while the path is solved.

    add(segment), run_path's on_segment, extends the grid by the segment's
    sample points in path order and samples each new row but the segment's
    end from the segment itself (its betas_at, and the df of its set).  A
    kink's rho is served by the last segment that starts there, so the end
    row waits for the next segment, or for finish(solution) when it is the
    path's end.  Once enough sampled rows wait (_FORK_MIN_CELLS) where
    forking pays, one child is forked (_format_blocks), and while it has a
    free slot the next block of sampled rows is handed over.  finish formats
    here each block the child has no room for and returns each block's
    rows' (rho, aic, bic) and byte count; block k's bytes wait in
    parts[owners[k]], unlinked files made in near.
    """

    def __init__(self, spec, options, near, stack):
        self.spec, self.near, self.stack = spec, near, stack
        self.forward = options.direction == "forward"
        # the grid, and the sampled rows not yet cut into blocks: (rho, df, beta) each
        self.rhos, self.waiting, self.sampled, self.finished = [], [], 0, False
        self.owners, self.outcomes = [], {}
        self.forks, self.child, self.handed = _fork_cpus() > 1, None, 0
        self.parts = [stack.enter_context(tempfile.TemporaryFile(dir=near))]

    def add(self, segment):
        points = segment.sample_points(self.spec.samples_per_segment).tolist()
        for rho in points if self.forward else reversed(points):
            if not self.rhos or rho != self.rhos[-1]:
                self.rhos.append(rho)
        self._sample(segment, len(self.rhos) - 1)
        self._share()

    def finish(self, solution):
        grid = solution.rho_grid(self.spec.samples_per_segment)
        if not np.array_equal(grid if self.forward else grid[::-1], self.rhos):
            raise PenPathError("the rows sampled during the solve are not the path's sample grid")
        self._sample(solution.segments[-1], len(self.rhos))
        self.finished = True
        self._share()
        if self.child is not None:
            self.child.send(b"")  # closes its requests: it formats what it holds and ends
            self.outcomes.update(self.child.result())
        with warnings.catch_warnings():  # once-per-location registries start empty
            return _in_order(self.outcomes, range(-(-len(self.rhos) // _BLOCK_ROWS)),
                             lambda index: f"formatting block {index + 1} of path.csv")

    def _sample(self, segment, end):
        # the grid's rows from the first one not yet sampled up to end
        rhos = np.array(self.rhos[self.sampled:end])
        rows = np.empty((rhos.size, self.spec.dimension + 2))
        rows[:, 0] = rhos
        rows[:, 1] = degrees_of_freedom(segment.config, self.spec.dimension)
        rows[:, 2:] = segment.betas_at(rhos, self.forward)
        self.waiting.append(rows)
        self.sampled = end

    def _share(self):
        waiting = self.sampled - len(self.owners) * _BLOCK_ROWS
        if self.forks and waiting * (self.spec.dimension + 5) >= _FORK_MIN_CELLS:
            self._fork()
        while waiting > 0 and (self.finished or waiting >= _BLOCK_ROWS):
            if self.child is not None and self.handed - self.done[0] < _CREDIT:
                self._hand()
            elif self.finished:
                self._format_here()
            else:
                break
            waiting = self.sampled - len(self.owners) * _BLOCK_ROWS

    def _fork(self):
        # the blocks the child has formatted, then each slot's rows (rho, df, beta)
        cells = _CREDIT * _BLOCK_ROWS * (self.spec.dimension + 2)
        shared = np.frombuffer(mmap.mmap(-1, 8 + 8 * cells))
        self.done, self.slots = shared[:1], shared[1:].reshape(_CREDIT, _BLOCK_ROWS, -1)
        part = self.stack.enter_context(tempfile.TemporaryFile(dir=self.near))
        work = partial(_format_blocks, self.spec, part, self.done, self.slots)
        self.child, self.forks = _Child(work, []), False
        self.stack.callback(self.child.close)
        self.parts.append(part)

    def _next_block(self, owner):
        # the block's rows cut from the front waiting arrays, the rest left in place
        parts, size = [], 0
        while size < _BLOCK_ROWS and self.waiting:
            rows = self.waiting[0]
            part = rows[:_BLOCK_ROWS - size]
            if len(part) == len(rows):
                del self.waiting[0]
            else:
                self.waiting[0] = rows[len(part):]
            parts.append(part)
            size += len(part)
        self.owners.append(owner)
        return len(self.owners) - 1, np.concatenate(parts) if len(parts) > 1 else parts[0]

    def _hand(self):
        index, rows = self._next_block(1)
        slot = self.handed % _CREDIT
        self.slots[slot, :len(rows)] = rows
        self.handed += 1
        try:
            os.write(self.child.request_w, pickle.dumps((index, slot, len(rows))))
        except BrokenPipeError:  # the child ended; its blocks have no outcome
            self.child = None

    def _format_here(self):
        index, rows = self._next_block(0)
        self.outcomes.update(_each([index], lambda _: _block_rows(self.spec, self.parts[0], rows)))


def _format_blocks(spec, part, done, slots, receive):
    """The formatter child's work: the _each outcomes of the blocks handed over
    (number, slot, rows), each formatted from its slot into part, then counted
    in done, until the request pipe closes."""
    outcomes = {}
    try:
        while True:
            index, slot, size = receive()
            rows = slots[slot, :size].copy()
            outcomes.update(_each([index], lambda _: _block_rows(spec, part, rows)))
            done[0] += 1
    except EOFError:
        return outcomes


def _join_parts(handle, parts, owners, written):
    """Write the blocks' bytes (written, from _Table.finish) in block order."""
    for part in parts:
        part.seek(0)
    for owner, (_, size) in zip(owners, written):
        handle.write(parts[owner].read(size))


def _full_grid(spec):
    """The shared rho grid in path order: the full-data path's samples,
    which include every kink of that path."""
    full = _checked_path(spec, spec.options)
    grid = full.rho_grid(spec.samples_per_segment)
    return grid[::-1] if full.direction == "backward" else grid


def _fold_path(spec, val_idx):
    train_idx = np.setdiff1d(np.arange(spec.n_observations), val_idx)
    return run_path(spec.split_loss(train_idx), spec.constraints, spec.options)


def _held_out_curve(spec, val_idx, solution, grid):
    heldout = spec.split_loss(val_idx)
    return heldout.values(solution.sample(grid)[0]) / val_idx.size


def _fork_cpus():
    """How many processes may share the work by forking: the usable CPUs,
    or 0 where forking does not pay.

    Forking pays only where each process's BLAS runs one thread: with
    OpenBLAS's default two threads on a 2-CPU host, a 2-fold logistic job
    took 3.2-4.4 s with forked folds against 1.4-1.8 s serially.  It also
    needs more than one usable CPU, and no other thread running, since a
    fork copies only the calling thread.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 0
    # OpenBLAS's own precedence between the two variables
    blas_threads = os.environ.get("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS"))
    if blas_threads != "1":
        return 0
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return cpus if cpus > 1 else 0


def _each(keys, task):
    """task(key) for each of keys in order, up to the first that raises, as
    {key: (warnings, result)}: the warnings each call issued, as showwarning
    arguments, and its return value or the exception it raised."""
    outcomes = {}
    for key in keys:
        with warnings.catch_warnings(record=True) as issued:
            try:
                result = task(key)
            except Exception as exc:  # raised by _in_order, in key order
                result = exc
        outcomes[key] = ([(w.message, w.category, w.filename, w.lineno) for w in issued], result)
        if isinstance(result, Exception):
            break
    return outcomes


def _close(*fds):
    for fd in fds:
        if fd is not None:
            os.close(fd)


def _child_main(work, request_fd, result_fd):
    """Body of a forked process; never returns.

    Runs work(receive), each call of receive() reading the next object the
    parent sends to request_fd (EOFError once the parent closed it), and
    writes work's return value to result_fd.
    """
    code = 1
    try:
        with os.fdopen(request_fd, "rb") as pipe:
            value = work(partial(pickle.load, pipe))
        # pickled whole first, so that a pickling error writes nothing
        data = pickle.dumps(value)
        with os.fdopen(result_fd, "wb") as pipe:
            pipe.write(data)
        code = 0
    except Exception:
        traceback.print_exc()
    finally:
        os._exit(code)


class _Child:
    """A forked process running one work; its pipes, one for what the parent
    sends and one for the work's result, and its process id."""

    def __init__(self, work, inherited):
        request_r, self.request_w = os.pipe()
        self.result_r, result_w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            _close(request_r, self.request_w, self.result_r, result_w)
            raise
        if self.pid == 0:
            # Drop the parent's ends of every pipe, so that each pipe has
            # one reader and one writer.
            _close(*inherited, self.request_w, self.result_r)
            _child_main(work, request_r, result_w)
        _close(request_r, result_w)

    def fds(self):
        return [fd for fd in (self.request_w, self.result_r) if fd is not None]

    def send(self, payload):
        fd, self.request_w = self.request_w, None
        try:
            with os.fdopen(fd, "wb") as pipe:
                pipe.write(payload)
        except BrokenPipeError:
            pass  # the child already ended; its result says why

    def result(self):
        """The work's return value, or {} if the child ended without one."""
        fd, self.result_r = self.result_r, None
        with os.fdopen(fd, "rb") as pipe:
            data = pipe.read()
        os.waitpid(self.pid, 0)
        self.pid = None
        return pickle.loads(data) if data else {}

    def close(self):
        _close(*self.fds())
        self.request_w = self.result_r = None
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def _forked(works, local):
    """Run each of works in a forked process while this one runs local().

    A work is called as work(receive), where receive() returns the value of
    local(), and returns {key: (warnings, result)}, a result being the
    exception that ended it, if one did.  Returns that value and every
    work's entries merged.  Every child has ended, or is killed, when this
    returns or raises.
    """
    children = []
    try:
        for work in works:
            inherited = [fd for child in children for fd in child.fds()]
            children.append(_Child(work, inherited))
        value = local()
        payload = pickle.dumps(value)
        for child in children:
            child.send(payload)
        outcomes = {}
        for child in children:
            outcomes.update(child.result())
    finally:
        for child in children:
            child.close()
    return value, outcomes


def _in_order(outcomes, keys, task):
    """The results of outcomes' keys in order, outcomes merging the _each
    entries of every process: issue each key's warnings again and raise the
    first key's error, as one process running the keys in order reports
    them.  _each stops at its first error, so a key with no outcome comes
    after a failure, unless its process died; task(key) names the work for
    that case."""
    modules = {m.__file__: m for m in list(sys.modules.values()) if getattr(m, "__file__", None)}
    registries = {}
    results = []
    for key in keys:
        if key not in outcomes:
            raise PenPathError(f"the process {task(key)} ended without a result")
        caught, result = outcomes[key]
        for message, category, filename, lineno in caught:
            # Through the filters and a copy of the issuing module's
            # registry, kept for this run: a warning shown once per location
            # (the default) is shown once in the run, as a serial run shows
            # it, whichever of its processes issued it.
            module = modules.get(filename)
            if module is None:
                warnings.showwarning(message, category, filename, lineno)
                continue
            if filename not in registries:
                registries[filename] = dict(getattr(module, "__warningregistry__", {}))
            warnings.warn_explicit(message, category, filename, lineno,
                                   module=module.__name__, registry=registries[filename])
        if isinstance(result, Exception):
            raise result
        results.append(result)
    return results


def _fold_work(spec, folds, mine, receive):
    """A forked process's work: the held-out curves of the folds numbered in
    mine, as {fold: (warnings, curve)}.

    Solves their paths, then receives the grid.  A fold that fails ends the
    work at once, without waiting for the grid: its entry holds the
    exception in place of a curve, and the folds solved before it hold None.
    """
    paths = _each(mine, lambda index: _fold_path(spec, folds[index]))
    *_, (_, last) = paths.values()
    if isinstance(last, Exception):
        return {index: (caught, last if path is last else None)
                for index, (caught, path) in paths.items()}
    grid = receive()
    curves = _each(mine, lambda index: _held_out_curve(spec, folds[index], paths[index][1], grid))
    return {index: (paths[index][0] + caught, curve) for index, (caught, curve) in curves.items()}


def _run_crossval(args):
    spec = parse_problem_spec(args.spec)
    if not spec.splittable:
        raise UnsupportedLoss(
            f"cross-validation needs a loss with observation rows; "
            f"{spec.loss_kind} in this form does not split"
        )
    n = spec.n_observations
    k = args.folds
    if not 2 <= k <= n:
        raise SpecError(f"folds must be between 2 and {n}, got {k}")

    rng = np.random.default_rng(args.seed)
    folds = np.array_split(rng.permutation(n), k)
    workers = min(k, _fork_cpus())
    if workers:
        # folds dealt round-robin where there are more of them than processes
        works = [partial(_fold_work, spec, folds, range(w, k, workers)) for w in range(workers)]
        grid, outcomes = _forked(works, partial(_full_grid, spec))
        curves = _in_order(outcomes, range(k), lambda index: f"solving fold {index + 1}")
    else:
        grid = _full_grid(spec)
        curves = [
            _held_out_curve(spec, val_idx, _fold_path(spec, val_idx), grid) for val_idx in folds
        ]
    log.info("cross-validated %d folds over %d grid points, %d forked processes",
             k, grid.size, workers)
    mean_curve = np.mean(curves, axis=0)

    best = int(np.argmin(mean_curve))
    report = "\n".join(
        [
            f"folds: {k}",
            f"seed: {args.seed}",
            f"observations: {n}",
            f"grid points: {grid.size}",
            f"cv error: minimum {_g12(mean_curve[best])} at rho = {_g12(grid[best])}",
        ]
    ) + "\n"

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    table = np.column_stack([grid, *curves, mean_curve])
    with open(out / "cv.csv", "w") as handle:
        handle.write("rho," + ",".join(f"fold_{j + 1}" for j in range(k)) + ",mean\n")
        for start in range(0, len(table), _BLOCK_ROWS):
            handle.writelines(_csv_block(table[start:start + _BLOCK_ROWS]))
    (out / "cv_report.txt").write_text(report)
    return 0


def _run_oracle(args):
    name, rest = args.name, args.args
    try:
        if name == "pava":
            values = np.array([float(t) for t in rest[0].split(",")])
            direction = rest[1] if len(rest) > 1 else "nondecreasing"
            print(",".join(_g12(v) for v in pava(values, direction)))
        elif name == "quadrature_j":
            a, b, r, s = (float(t) for t in rest)
            print(_g12(quadrature_j(a, b, r, s)))
        elif name == "glasso":
            sigma = np.loadtxt(rest[0], delimiter=",", ndmin=2)
            omega = glasso_coordinate(sigma, float(rest[1]))
            for row in omega:
                print(",".join(_g12(v) for v in row))
        elif name == "fixed_rho":
            spec = parse_problem_spec(rest[0])
            result = solve_fixed_rho(spec.model, spec.constraints, float(rest[1]))
            print(",".join(_g12(v) for v in result.beta))
        else:
            raise SpecError(
                f"unknown oracle {name!r}; "
                f"choices: pava, quadrature_j, glasso, fixed_rho"
            )
    except (IndexError, ValueError, OSError, OverflowError) as exc:
        raise SpecError(f"bad arguments for oracle {name!r}: {exc}") from exc
    return 0


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits 2 on a usage error, the code reserved for solver
    # failures; a bad command line is malformed input (exit 1) instead.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SpecError(f"{self.prog}: {message}")


def _build_parser():
    parser = _ArgumentParser(
        prog="penpath",
        description="Exact regularization paths by segment-wise ODE integration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run a path and write tables")
    solve.add_argument("spec", help="problem-spec JSON file")
    solve.add_argument("--out", required=True, help="output directory")
    solve.add_argument("--mode", choices=MODES)
    solve.add_argument("--direction", choices=("forward", "backward"))
    solve.add_argument("--rho-max", type=float, dest="rho_max")
    solve.add_argument("--rel-tol", type=float, dest="rel_tol")
    solve.set_defaults(func=_run_solve)

    cv = sub.add_parser("crossval", help="k-fold cross-validation along the path")
    cv.add_argument("spec", help="problem-spec JSON file")
    cv.add_argument("--folds", type=int, required=True)
    cv.add_argument("--seed", type=int, default=0)
    cv.add_argument("--out", required=True, help="output directory")
    cv.set_defaults(func=_run_crossval)

    oracle = sub.add_parser("oracle", help="run a reference solver")
    oracle.add_argument("name", help="pava | quadrature_j | glasso | fixed_rho")
    oracle.add_argument("args", nargs="*")
    oracle.set_defaults(func=_run_oracle)
    return parser


def main(argv=None):
    _setup_logging()
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PenPathError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
