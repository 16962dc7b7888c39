"""Record the ODE engine's work and results on fixed paths, to compare two
versions of penpath.

This script is not collected by pytest.  It solves, in this process, two
sets of paths with run_path:

- logistic_cv: for each of --seeds (3, 11, 21) and --jobs (0-2), the
  full-data path of that benchmark job (perfbench/workloads.make_job, full
  size) and its fold paths, with the folds `penpath crossval` draws for the
  job's --folds and --seed;
- logconcave: the log-concave family, Gumbel draws from default_rng(seed)
  for seeds 0-3 and n in {25, 50, 100, 200}, concave `shape` rows on the
  support, in direct and in nullspace mode (32 runs).

Each path gives one JSON line: its name, its status or the error it raised,
its wall time, its work (integrations, accepted steps, rhs calls and
Hessian blocks, the hessian_columns calls), the wall time spent inside
hessian_columns and inside event location (odeint._first_crossing), its kinks (rho, row kind, row,
from and to set) and, for a path that returns, its betas at 50 points of
[rho_start, R], R being rho_end rounded down to three digits so that both
versions sample the same points, its terminal feasibility (the largest
inequality residual) and its terminal stationarity residual.  With
--reference, each path is also solved with rel_tol=1e-13, and the line
holds that run's record too.  --families limits the run to some of the
two sets.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/ode_paths.py A.jsonl [--reference]
    python tests/ode_paths.py --compare A.jsonl B.jsonl

--compare prints, for each path in both files, whether its status and its
kink sequence (rows, kinds and sets) are equal, the largest relative change
in kink rho and in a grid beta, its work and its times (whole path,
hessian_columns, event location) in A and in B; then the totals of each
set.  Where the files hold reference runs, it adds each file's
error against A's reference (B's where A has none): the largest relative
change in kink rho and in a grid beta over the paths whose runs return
with the same kink sequence as the reference.
"""

import argparse
import dataclasses
import json
import math
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

GRID_POINTS = 50
REFERENCE_REL_TOL = 1e-13
COUNTS = ("integrations", "steps", "rhs_calls", "hessian_blocks")
TIMES = ("hessian_s", "locate_s")  # inside hessian_columns, inside odeint._first_crossing
FAMILIES = ("logistic_cv", "logconcave")


def logistic_cv_paths(seeds, jobs):
    """(name, model, constraints, options) of each full-data and fold path."""
    from workloads import WORKLOADS, make_job

    from penpath.problemspec import parse_problem_spec

    with tempfile.TemporaryDirectory() as root:
        for seed in seeds:
            for index in jobs:
                job = make_job(WORKLOADS["logistic_cv"], "full", seed, index, Path(root) / str(seed))
                spec = parse_problem_spec(str(job.spec))
                n, folds = spec.n_observations, job.facts["folds"]
                name = f"logistic_cv seed {seed} job {index}"
                yield f"{name} full", spec.model, spec.constraints, spec.options
                val = np.array_split(np.random.default_rng(job.facts["cv_seed"]).permutation(n), folds)
                for fold, val_idx in enumerate(val):
                    train = np.setdiff1d(np.arange(n), val_idx)
                    yield f"{name} fold {fold + 1}", spec.split_loss(train), spec.constraints, spec.options


def logconcave_paths():
    from penpath import LogConcaveLoss
    from penpath.constraints import shape
    from penpath.path import PathOptions

    for seed in range(4):
        for n in (25, 50, 100, 200):
            model = LogConcaveLoss.from_samples(np.random.default_rng(seed).gumbel(0.0, 1.0, size=n))
            cs = shape(model.dim, kind="concave", grid=model.support)
            for mode in ("direct", "nullspace"):
                yield f"logconcave seed {seed} n {n} {mode}", model, cs, PathOptions(mode=mode)


class _Counted:
    """Counts the work of the run_path calls made inside it, and times
    hessian_columns and event location."""

    def __init__(self, model):
        import penpath.odeint
        import penpath.path

        self.module, self.odeint, self.model = penpath.path, penpath.odeint, model
        self.counts = dict.fromkeys(COUNTS, 0) | dict.fromkeys(TIMES, 0.0)

    def __enter__(self):
        integrate, columns, counts = self.module.integrate, self.model.hessian_columns, self.counts
        first_crossing = self.odeint._first_crossing

        def timed(name, function):
            def call(*args):
                start = time.perf_counter()
                try:
                    return function(*args)
                finally:
                    counts[name] += time.perf_counter() - start
            return call

        def counted_rhs(rhs):
            def rhs_(t, y):
                counts["rhs_calls"] += 1
                return rhs(t, y)
            return rhs_

        def integrate_(rhs, *args, **kwargs):
            counts["integrations"] += 1
            result = integrate(counted_rhs(rhs), *args, **kwargs)
            counts["steps"] += len(result.steps)
            return result

        timed_columns = timed("hessian_s", columns)

        def columns_(x, cols):
            counts["hessian_blocks"] += 1
            return timed_columns(x, cols)

        self.integrate, self.first_crossing = integrate, first_crossing
        self.module.integrate = integrate_
        self.odeint._first_crossing = timed("locate_s", first_crossing)
        self.model.hessian_columns = columns_
        return self

    def __exit__(self, *exc):
        self.module.integrate = self.integrate
        self.odeint._first_crossing = self.first_crossing
        del self.model.hessian_columns


def _grid_end(rho):
    """rho rounded toward zero to three significant digits."""
    if rho == 0.0:
        return 0.0
    unit = 10.0 ** (math.floor(math.log10(abs(rho))) - 2)
    return math.trunc(rho / unit) * unit


def solve(model, cs, options, rel_tol=None):
    """The record of one path: see the module docstring."""
    from penpath.path import run_path, stationarity_residual

    if rel_tol is not None:
        options = dataclasses.replace(options, rel_tol=rel_tol)
    with _Counted(model) as counted, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        start = time.perf_counter()
        try:
            sol = run_path(model, cs, options)
        except Exception as exc:
            sol, status = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    record = {"status": status if sol is None else sol.status, "seconds": seconds, **counted.counts}
    if sol is None:
        return record
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        first = sol.segments[0].rho_start
        grid = np.linspace(first, _grid_end(sol.rho_end), GRID_POINTS)
        beta = sol.terminal_beta
        record.update(
            kinks=[[k.rho, k.row_kind, k.index, k.from_set, k.to_set] for k in sol.kinks],
            grid=grid.tolist(),
            betas=sol.sample(grid)[0].tolist(),
            feasibility=float(np.max(cs.ineq_residuals(beta), initial=0.0)),
            stationarity=float(stationarity_residual(
                model, cs, sol.segments[-1].config, beta, sol.rho_end)),
        )
    return record


def gaps(a, b):
    """(same kink sequence, largest relative kink rho change, largest grid
    beta change) of two records that both returned, else (None, None, None)."""
    if "kinks" not in a or "kinks" not in b:
        return None, None, None
    same = [k[1:] for k in a["kinks"]] == [k[1:] for k in b["kinks"]]
    if not same or a["grid"] != b["grid"]:
        return same, None, None
    rho = max((abs(x[0] - y[0]) / max(abs(x[0]), 1e-300)
               for x, y in zip(a["kinks"], b["kinks"])), default=0.0)
    beta = float(np.max(np.abs(np.subtract(a["betas"], b["betas"])), initial=0.0))
    return same, rho, beta


def record_all(out, families, seeds, jobs, reference):
    paths = []
    if "logistic_cv" in families:
        paths += logistic_cv_paths(seeds, jobs)
    if "logconcave" in families:
        paths += logconcave_paths()
    with open(out, "w") as handle:
        for name, model, cs, options in paths:
            record = {"name": name, **solve(model, cs, options)}
            if reference:
                record["reference"] = solve(model, cs, options, rel_tol=REFERENCE_REL_TOL)
            handle.write(json.dumps(record) + "\n")
            print(f"{name}: {record['status'][:60]}, {record['steps']} steps, "
                  f"{record['hessian_blocks']} Hessian blocks, {record['seconds']:.2f} s", flush=True)


def _load(path):
    with open(path) as handle:
        return {r["name"]: r for r in map(json.loads, handle)}


def _seconds(record, name):
    """A record's time, or "-" where a file written before it was recorded
    lacks it."""
    return f"{record[name]:.3f}" if name in record else "-"


def _total(records, name):
    """The records' summed time, or "-" where some record lacks it."""
    return f"{sum(r[name] for r in records):.3f}" if all(name in r for r in records) else "-"


def _largest(values):
    values = [v for v in values if v is not None]
    return f"{max(values):.3g}" if values else "-"


def compare(a, b):
    for family in FAMILIES:
        names = [name for name in a if name in b and name.startswith(family)]
        if not names:
            continue
        rows = []
        for name in names:
            ra, rb = a[name], b[name]
            same, rho, beta = gaps(ra, rb)
            rows.append((ra, rb, same, rho, beta))
            work = " ".join(f"{ra[c]}->{rb[c]}" for c in ("steps", "rhs_calls", "hessian_blocks"))
            times = " ".join(f"{_seconds(ra, c)}->{_seconds(rb, c)}" for c in ("seconds", *TIMES))
            print(f"{name}: status {'same' if ra['status'] == rb['status'] else 'CHANGED'}, "
                  f"kinks {'-' if same is None else 'same' if same else 'DIFFER'}, kink rho {_largest([rho])}, "
                  f"beta {_largest([beta])}; steps, rhs, Hessian blocks {work}; "
                  f"path, hessian_columns, location s {times}")
            if ra["status"] != rb["status"]:
                print(f"    {ra['status'][:70]} -> {rb['status'][:70]}")
        print(f"== {family}: {len(rows)} paths in both")
        print(f"   statuses equal {sum(ra['status'] == rb['status'] for ra, rb, *_ in rows)}, "
              f"kink sequences equal {sum(bool(same) for _, _, same, *_ in rows)}; largest change: "
              f"kink rho {_largest(r[3] for r in rows)} relative, grid beta {_largest(r[4] for r in rows)}")
        for count in ("integrations", *COUNTS[1:]):
            print(f"   {count}: {sum(ra[count] for ra, *_ in rows)} -> {sum(rb[count] for _, rb, *_ in rows)}")
        for name in ("seconds", *TIMES):
            print(f"   {name}: {_total([r[0] for r in rows], name)} -> {_total([r[1] for r in rows], name)}")
        for label, side in (("A", 0), ("B", 1)):
            records = [r[side] for r in rows]
            returned = [r for r in records if "kinks" in r]
            infeasible = [r["feasibility"] for r in returned if r["feasibility"] > 1e-8]
            print(f"   {label}: {sum(r['status'] == 'terminated' for r in records)} terminated, "
                  f"{len(infeasible)} of them infeasible beyond 1e-8 (worst {_largest(infeasible)}), "
                  f"largest stationarity {_largest(r['stationarity'] for r in returned)}")
            statuses = {}
            for r in records:
                key = r["status"].split(":")[0]
                statuses[key] = statuses.get(key, 0) + 1
            print(f"      statuses {statuses}")
            # both files against one yardstick: A's reference run where it has one
            errors = [gaps(ra.get("reference") or rb["reference"], (ra, rb)[side])
                      for ra, rb, *_ in rows if "reference" in ra or "reference" in rb]
            if errors:
                print(f"      against rel_tol={REFERENCE_REL_TOL:g}: kink rho "
                      f"{_largest(e[1] for e in errors)} relative, grid beta "
                      f"{_largest(e[2] for e in errors)} "
                      f"({sum(e[1] is not None for e in errors)} of {len(errors)} comparable)")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", nargs="?", help="the JSONL file to write")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    parser.add_argument("--reference", action="store_true",
                        help=f"also solve each path with rel_tol={REFERENCE_REL_TOL:g}")
    parser.add_argument("--families", nargs="+", choices=FAMILIES, default=list(FAMILIES))
    parser.add_argument("--seeds", type=int, nargs="+", default=[3, 11, 21])
    parser.add_argument("--jobs", type=int, nargs="+", default=[0, 1, 2])
    args = parser.parse_args(argv)
    if args.compare:
        compare(*map(_load, args.compare))
    elif args.out:
        record_all(args.out, args.families, args.seeds, args.jobs, args.reference)
    else:
        parser.error("give a file to write or --compare A B")
    return 0


if __name__ == "__main__":
    sys.exit(main())
