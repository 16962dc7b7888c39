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
Where BLAS runs one thread (OPENBLAS_NUM_THREADS, else OMP_NUM_THREADS, is
1) and more than one CPU is usable, the fold paths run in forked children,
at most one per CPU, while this process runs the full-data path; each
child then reads the grid from a pipe and returns its curves, warnings and
errors, which are reported in fold order as a serial run would.  Otherwise
the folds run one after another here.  The `penpath` console script
(penpath_entry) defaults both variables to 1.
`oracle` exposes the slow reference solvers for regenerating expected
values by hand.

Exit codes: 0 success, 1 malformed or inconsistent problem input (a
command-line usage error included), 2 solver failure.  Nothing is written
unless the run succeeds, so a nonzero exit never leaves partial outputs
behind.  The EPSODE_LOG environment variable
(error, info, debug) controls diagnostics on standard error.
"""

import argparse
import json
import logging
import os
import pickle
import signal
import sys
import threading
import traceback
import warnings
from dataclasses import replace
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


def _sample_table(spec, solution):
    """Rows (rho, beta, df, negloglik, aic, bic) in path order."""
    grid = solution.rho_grid(spec.samples_per_segment)
    if solution.direction == "backward":
        grid = grid[::-1]
    rows = []
    for rho in grid:
        beta = solution.beta_at(rho)
        df = solution.df_at(rho)
        value = spec.model.value(beta)
        aic, bic = information_criteria(-value, df, spec.n_observations)
        rows.append((float(rho), beta, df, value, aic, bic))
    return rows


def _csv_lines(header, kinds, rows):
    """Newline-terminated lines of a CSV table: the header, then each row
    formatted by one %-template with a column per letter of kinds: "g" a
    float as %.17g, "d" an integer.  Rows are formatted as they are read."""
    template = ",".join("%.17g" if kind == "g" else "%d" for kind in kinds) + "\n"
    yield header + "\n"
    for row in rows:
        yield template % tuple(row)


def _write_lines(path, lines):
    # Each line goes to the file as it is formatted, so a table is never
    # held in memory as one string.
    with open(path, "w") as handle:
        handle.writelines(lines)


def _path_csv(rows, p):
    header = "rho," + ",".join(f"beta_{i + 1}" for i in range(p)) + ",df,negloglik,aic,bic"
    cells = ((rho, *beta.tolist(), df, value, aic, bic) for rho, beta, df, value, aic, bic in rows)
    return _csv_lines(header, "g" * (p + 1) + "dggg", cells)


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


def _report_text(spec, solution, rows):
    aic_row = min(rows, key=lambda r: (r[4], r[0]))
    bic_row = min(rows, key=lambda r: (r[5], r[0]))
    lines = [
        f"status: {solution.status}",
        f"mode: {solution.mode}",
        f"direction: {solution.direction}",
        f"segments: {len(solution.segments)}",
        f"kinks: {len(solution.kinks)}",
        f"rho range: {_g12(rows[0][0])} .. {_g12(rows[-1][0])}",
        f"aic: minimum {_g12(aic_row[4])} at rho = {_g12(aic_row[0])}",
        f"bic: minimum {_g12(bic_row[5])} at rho = {_g12(bic_row[0])}",
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

    rows = _sample_table(spec, solution)
    kinks = _kinks_jsonl(solution)
    report = _report_text(spec, solution, rows)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_lines(out / "path.csv", _path_csv(rows, spec.dimension))
    (out / "kinks.jsonl").write_text(kinks)
    (out / "report.txt").write_text(report)
    log.info("wrote %s", out / "path.csv")
    return 0


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


def _fold_workers(k):
    """How many forked processes solve the k fold paths, or 0 to solve them
    one after another in this process.

    Forking pays only where each process's BLAS runs one thread: with
    OpenBLAS's default two threads on a 2-CPU host, a 2-fold logistic job
    took 3.2-4.4 s with forked folds against 1.4-1.8 s serially.  It also
    needs more than one usable CPU, and no other thread running, since a
    fork copies only the calling thread.  With more folds than CPUs the
    folds are dealt round-robin.
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
    return min(k, cpus) if cpus > 1 else 0


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


def _fold_process_body(spec, folds, mine, grid_fd, result_fd):
    """Body of a forked fold process; never returns.

    Solves the paths of the folds numbered in mine, then reads the grid
    from grid_fd and writes {fold: (warnings, curve)} to result_fd.  A fold
    that fails ends the work at once, without waiting for the grid: its
    entry holds the exception in place of a curve, and the folds solved
    before it hold None.
    """
    code = 1
    try:
        caught = {index: [] for index in mine}
        results = {}
        for index in mine:
            results[index] = _recorded(caught[index], _fold_path, spec, folds[index])
            if isinstance(results[index], Exception):
                results = {i: r if i == index else None for i, r in results.items()}
                break
        else:
            with os.fdopen(grid_fd, "rb") as pipe:
                grid = pickle.load(pipe)
            for index in mine:
                results[index] = _recorded(
                    caught[index], _held_out_curve, spec, folds[index], results[index], grid
                )
        # pickled whole first, so that a pickling error writes nothing
        data = pickle.dumps({i: (caught[i], r) for i, r in results.items()})
        with os.fdopen(result_fd, "wb") as pipe:
            pipe.write(data)
        code = 0
    except Exception:
        traceback.print_exc()
    finally:
        os._exit(code)


class _FoldProcess:
    """A forked child solving some folds' paths; its pipes and process id."""

    def __init__(self, spec, folds, mine, inherited):
        grid_r, self.grid_w = os.pipe()
        self.result_r, result_w = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            for fd in (grid_r, self.grid_w, self.result_r, result_w):
                os.close(fd)
            raise
        if self.pid == 0:
            # Drop the parent's ends of every pipe, so that each pipe has
            # one reader and one writer.
            for fd in [*inherited, self.grid_w, self.result_r]:
                os.close(fd)
            _fold_process_body(spec, folds, mine, grid_r, result_w)
        os.close(grid_r)
        os.close(result_w)

    def fds(self):
        return [fd for fd in (self.grid_w, self.result_r) if fd is not None]

    def send(self, payload):
        fd, self.grid_w = self.grid_w, None
        try:
            with os.fdopen(fd, "wb") as pipe:
                pipe.write(payload)
        except BrokenPipeError:
            pass  # the child already ended; its result says why

    def result(self):
        """The child's {fold: (warnings, curve or exception or None)}, or {}
        if it ended without writing one."""
        fd, self.result_r = self.result_r, None
        with os.fdopen(fd, "rb") as pipe:
            data = pipe.read()
        os.waitpid(self.pid, 0)
        self.pid = None
        return pickle.loads(data) if data else {}

    def close(self):
        for fd in self.fds():
            os.close(fd)
        self.grid_w = self.result_r = None
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def _forked_curves(spec, folds, workers):
    """The grid and every fold's held-out curve, the fold paths solved in
    forked children while this process solves the full-data path."""
    k = len(folds)
    children = []
    try:
        for w in range(workers):
            inherited = [fd for child in children for fd in child.fds()]
            children.append(_FoldProcess(spec, folds, range(w, k, workers), inherited))
        grid = _full_grid(spec)
        payload = pickle.dumps(grid)
        for child in children:
            child.send(payload)
        outcomes = {}
        for child in children:
            outcomes.update(child.result())
    finally:
        for child in children:
            child.close()
    # In fold order, as a serial run would: show each fold's warnings, and
    # raise the first fold's error.  A child stops at its first failing
    # fold, so a fold with no outcome comes after a failure, unless its
    # process died.
    curves = []
    for index in range(k):
        if index not in outcomes:
            raise PenPathError(f"the process solving fold {index + 1} ended without a result")
        caught, result = outcomes[index]
        for args in caught:
            warnings.showwarning(*args)
        if isinstance(result, Exception):
            raise result
        curves.append(result)
    return grid, curves


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
    workers = _fold_workers(k)
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
    except (IndexError, ValueError) as exc:
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
