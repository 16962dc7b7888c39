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
import sys
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


def _csv_text(header, kinds, rows):
    """CSV text of a header and rows, each row formatted by one %-template
    with a column per letter of kinds: "g" a float as %.17g, "d" an integer."""
    template = ",".join("%.17g" if kind == "g" else "%d" for kind in kinds)
    return "\n".join([header, *(template % tuple(row) for row in rows), ""])


def _path_csv(rows, p):
    header = "rho," + ",".join(f"beta_{i + 1}" for i in range(p)) + ",df,negloglik,aic,bic"
    cells = ((rho, *beta.tolist(), df, value, aic, bic) for rho, beta, df, value, aic, bic in rows)
    return _csv_text(header, "g" * (p + 1) + "dggg", cells)


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
    path_csv = _path_csv(rows, spec.dimension)
    kinks = _kinks_jsonl(solution)
    report = _report_text(spec, solution, rows)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "path.csv").write_text(path_csv)
    (out / "kinks.jsonl").write_text(kinks)
    (out / "report.txt").write_text(report)
    log.info("wrote %s", out / "path.csv")
    return 0


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

    full = _checked_path(spec, spec.options)
    grid = full.rho_grid(spec.samples_per_segment)
    if full.direction == "backward":
        grid = grid[::-1]

    rng = np.random.default_rng(args.seed)
    folds = np.array_split(rng.permutation(n), k)

    def fold_curve(val_idx):
        train_idx = np.setdiff1d(np.arange(n), val_idx)
        fold_solution = run_path(
            spec.split_loss(train_idx), spec.constraints, spec.options
        )
        heldout = spec.split_loss(val_idx)
        return np.array(
            [heldout.value(fold_solution.beta_at(rho)) / val_idx.size for rho in grid]
        )

    log.info("cross-validating %d folds over %d grid points", k, grid.size)
    curves = [fold_curve(val_idx) for val_idx in folds]
    mean_curve = np.mean(curves, axis=0)

    cv_csv = _csv_text(
        "rho," + ",".join(f"fold_{j + 1}" for j in range(k)) + ",mean",
        "g" * (k + 2),
        np.column_stack([grid, *curves, mean_curve]).tolist(),
    )
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
    (out / "cv.csv").write_text(cv_csv)
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
