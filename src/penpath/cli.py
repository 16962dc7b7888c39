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
forked children, at most one per CPU: `crossval` solves the fold paths in
them while this process solves the full-data path, and `solve` has one
sample and format the second half of path.csv while this process does the
first (a table too small to pay for a fork stays here).  Each child returns
its results, warnings and errors through a pipe; they are reported in fold
or row order, each warning shown as often as a serial run shows it, and
the files written are byte for byte those of a serial run.  Otherwise all
the work runs one step after another here.  The `penpath` console script
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
import os
import pickle
import shutil
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
from .path import MODES, information_criteria, run_path
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


def _row_template(kinds):
    """A %-template for one newline-terminated CSV row, a column per letter
    of kinds: "g" a float as %.17g, "d" an integer."""
    return ",".join("%.17g" if kind == "g" else "%d" for kind in kinds) + "\n"


def _csv_lines(header, kinds, rows):
    """Newline-terminated lines of a CSV table: the header, then each row
    formatted by one template.  Rows are formatted as they are read."""
    template = _row_template(kinds)
    yield header + "\n"
    for row in rows:
        yield template % tuple(row)


def _write_lines(path, lines):
    # Each line goes to the file as it is formatted, so a table is never
    # held in memory as one string.
    with open(path, "w") as handle:
        handle.writelines(lines)


def _path_csv_header(p):
    return "rho," + ",".join(f"beta_{i + 1}" for i in range(p)) + ",df,negloglik,aic,bic\n"


def _sample_rows(spec, solution, rhos, part):
    """Sample the path at rhos (PathSolution.sample), writing each row (rho,
    beta, df, negloglik, aic, bic) to the binary file part as path.csv holds
    it.  Returns the rows' (rho, aic, bic)."""
    template = _row_template("g" * (spec.dimension + 1) + "dggg")
    points = []
    betas, dfs = solution.sample(rhos)
    for rho, beta, df in zip(rhos, betas, dfs):
        value = spec.model.value(beta)
        aic, bic = information_criteria(-value, df, spec.n_observations)
        rho = float(rho)
        part.write((template % (rho, *beta.tolist(), df, value, aic, bic)).encode())
        points.append((rho, aic, bic))
    part.flush()
    return points


def _kinks_jsonl(solution):
    lines = []
    for k in solution.kinks:
        entry = {
            "rho": k.rho,
            "kind": k.kind,
            "row_kind": k.row_kind,
            "index": k.index,
            "from_set": k.from_set,
            "to_set": k.to_set,
            "boundary": k.boundary,
            "df_after": k.df_after,
        }
        lines.append(json.dumps(entry, sort_keys=True))
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


def _checked_path(spec, options):
    """run_path on the spec's problem, reporting validation errors as spec errors."""
    try:
        return run_path(spec.model, spec.constraints, options)
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
    solution = _checked_path(spec, options)
    log.info("path %s after %d kinks", solution.status, len(solution.kinks))

    grid = solution.rho_grid(spec.samples_per_segment)
    if solution.direction == "backward":
        grid = grid[::-1]
    slices = _slices(solution, grid)
    out = Path(args.out)
    near = next(d for d in (out, *out.parents) if d.is_dir())
    with ExitStack() as stack:
        # Each slice's rows go to an unlinked file as they are formatted,
        # so no process holds the table and a failed run leaves no file.
        # It is made in --out, or in its nearest existing ancestor, so
        # that path.csv is written on one filesystem.
        parts = [stack.enter_context(tempfile.TemporaryFile(dir=near)) for _ in slices]
        points = _sampled_points(spec, solution, slices, parts)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "path.csv", "wb") as handle:
            handle.write(_path_csv_header(spec.dimension).encode())
            for part in parts:
                part.seek(0)
                shutil.copyfileobj(part, handle)
    (out / "kinks.jsonl").write_text(_kinks_jsonl(solution))
    (out / "report.txt").write_text(_report_text(spec, solution, points))
    log.info("wrote %s from %d slices", out / "path.csv", len(slices))
    return 0


# A forked slice must hold at least this many path.csv cells to pay for its
# fork, so a table forks from 30,000 cells.  Measured on a 2-CPU host with
# one BLAS thread, timing `solve` after its path is solved (medians of 40
# calls, serial against two slices; cells of the whole table).  Lasso rows
# hold exact zeros, and "%.17g" formats a 0 in about 0.18 us against 0.9 us
# for the rounding residue they held before, so their serial time fell and
# their break-even rose.  The 8-coefficient lasso of tests/golden/lasso_direct
# (13 cells a row) breaks even at 12,000-16,000 cells (800 rows: 17-26 ms
# serially, 21-38 ms forked; 1,600 rows: 45-50 against 34-39).  lasso_ls's
# 80-coefficient rows (85 cells) break even at about 30,000 (180 rows: 11-12
# ms against 13-18; 360 rows: 21-25 against 20-28; 720 rows: 43 against 33),
# where they broke even at 15,000-30,000 before.  fused_fsa's
# 150-coefficient rows (155 cells) broke even at about 30,000 (299 rows:
# 69 ms against 57 ms; 150 rows: 39 against 43).
_SLICE_MIN_CELLS = 15000

# At most this many slices: the gain was measured only with two, on a 2-CPU
# host.  Each fork costs the parent about 3-4 ms before it starts its own
# slice (at 94 MB resident, forking 1 to 8 children), so more slices are
# unmeasured and may not pay.
_MAX_SLICES = 2


def _slices(solution, grid):
    """grid cut into contiguous slices of about equal row counts, one per
    process that samples them: one per usable CPU where forking pays
    (_fork_cpus), up to _MAX_SLICES, as long as each gets _SLICE_MIN_CELLS
    path.csv cells; else this process alone."""
    count = min(_fork_cpus(), _MAX_SLICES, grid.size * (solution.p + 5) // _SLICE_MIN_CELLS)
    return np.array_split(grid, max(count, 1))


def _slice_work(spec, solution, slices, parts, index):
    """A forked process's work: slice index of the rows, written to its part."""
    caught = []
    points = _recorded(caught, _sample_rows, spec, solution, slices[index], parts[index])
    return {index: (caught, points)}


def _sampled_points(spec, solution, slices, parts):
    """Each slice's rows written to its part, the first slice by this process
    and each other one by a forked process; returns every row's (rho, aic,
    bic) in path order.  Warnings and errors are reported as a serial run
    would."""
    works = [partial(_slice_work, spec, solution, slices, parts, index)
             for index in range(1, len(slices))]
    points, outcomes = _forked(works, partial(_sample_rows, spec, solution, slices[0], parts[0]))
    for rest in _in_order(outcomes, range(1, len(slices)),
                          lambda index: f"sampling slice {index + 1} of path.csv"):
        points += rest
    return points


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
    return np.array([heldout.value(solution.beta_at(rho)) / val_idx.size for rho in grid])


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


def _recorded(caught, fn, *args):
    """fn(*args), or the exception it raised; the warnings it issued are
    appended to caught as showwarning arguments."""
    with warnings.catch_warnings(record=True) as issued:
        try:
            result = fn(*args)
        except Exception as exc:  # reported to the parent, which raises it
            result = exc
    caught.extend((w.message, w.category, w.filename, w.lineno) for w in issued)
    return result


def _close(*fds):
    for fd in fds:
        if fd is not None:
            os.close(fd)


def _child_main(work, request_fd, result_fd):
    """Body of a forked process; never returns.

    Runs work(), or work(receive) where there is a request_fd, receive()
    reading what the parent sends there, and writes work's return value to
    result_fd.
    """
    code = 1
    try:
        def receive():
            with os.fdopen(request_fd, "rb") as pipe:
                return pickle.load(pipe)

        # pickled whole first, so that a pickling error writes nothing
        data = pickle.dumps(work() if request_fd is None else work(receive))
        with os.fdopen(result_fd, "wb") as pipe:
            pipe.write(data)
        code = 0
    except Exception:
        traceback.print_exc()
    finally:
        os._exit(code)


class _Child:
    """A forked process running one work; its pipes and process id.  Only
    a child that listens has a request pipe, for what the parent sends."""

    def __init__(self, work, inherited, listens):
        request_r, self.request_w = os.pipe() if listens else (None, None)
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


def _forked(works, local, send=False):
    """Run each of works in a forked process while this one runs local().

    A work returns {key: (warnings, result)}, a result being the exception
    that ended it, if one did.  With send it is called as work(receive),
    where receive() returns the value of local(), else as work().  Returns
    that value and every work's entries merged.  Every child has ended, or
    is killed, when this returns or raises.
    """
    children = []
    try:
        for work in works:
            inherited = [fd for child in children for fd in child.fds()]
            children.append(_Child(work, inherited, send))
        value = local()
        if send:
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
    """The results of outcomes' keys in order, as a serial run reports them:
    issue each key's warnings again, and raise the first key's error.  A
    work stops at its first error, so a key with no outcome comes after a
    failure, unless its process died; task(key) names the work for that
    case."""
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
    caught = {index: [] for index in mine}
    results = {}
    for index in mine:
        results[index] = _recorded(caught[index], _fold_path, spec, folds[index])
        if isinstance(results[index], Exception):
            results = {i: r if i == index else None for i, r in results.items()}
            break
    else:
        grid = receive()
        for index in mine:
            results[index] = _recorded(
                caught[index], _held_out_curve, spec, folds[index], results[index], grid
            )
    return {i: (caught[i], r) for i, r in results.items()}


def _forked_curves(spec, folds, workers):
    """The grid and every fold's held-out curve, the fold paths solved in
    forked processes while this one solves the full-data path.  With more
    folds than processes the folds are dealt round-robin."""
    k = len(folds)
    works = [partial(_fold_work, spec, folds, range(w, k, workers)) for w in range(workers)]
    grid, outcomes = _forked(works, partial(_full_grid, spec), send=True)
    return grid, _in_order(outcomes, range(k), lambda index: f"solving fold {index + 1}")


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
        grid, curves = _forked_curves(spec, folds, workers)
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
    header = "rho," + ",".join(f"fold_{j + 1}" for j in range(k)) + ",mean"
    table = np.column_stack([grid, *curves, mean_curve]).tolist()
    _write_lines(out / "cv.csv", _csv_lines(header, "g" * (k + 2), table))
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
