"""Seeded inputs for the benchmark workloads.

A workload turns (seed, job index) into the files of one `penpath` CLI
call: a problem-spec JSON file and the CSV files it names.  The program
receives only those files.  A seed fixes the whole job sequence of a run.

Sizes are chosen so a job takes a few seconds on one core and a run of the
benchmark holds several jobs; the "smoke" size exists for the smoke test.
"""

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Job:
    """One CLI call: its argument list plus what the checker needs to know."""

    index: int
    argv: list
    spec: Path
    out: Path
    command: str
    paths: int
    facts: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    sizes: dict
    make: Callable


def _write_csv(path, values):
    np.savetxt(path, np.atleast_1d(values), delimiter=",", fmt="%.17g")


def _write_spec(directory, spec):
    path = directory / "spec.json"
    path.write_text(json.dumps(spec, indent=1, sort_keys=True))
    return path


def _solve_job(index, directory, spec, facts):
    spec_path = _write_spec(directory, spec)
    out = directory / "out"
    argv = ["solve", str(spec_path), "--out", str(out)]
    return Job(index, argv, spec_path, out, "solve", 1, facts)


def _sparse_signal(rng, p, share, low, high):
    """Coefficients with exactly round(share * p) nonzero entries, |b| in [low, high]."""
    beta = np.zeros(p)
    support = rng.choice(p, size=max(1, round(share * p)), replace=False)
    beta[support] = rng.choice([-1.0, 1.0], size=support.size) * rng.uniform(low, high, support.size)
    return beta


def _rng(seed, index):
    return np.random.default_rng([seed, index])


def make_lasso_ls(seed, index, directory, p):
    rng = _rng(seed, index)
    n = 2 * p
    x = rng.normal(size=(n, p))
    y = x @ _sparse_signal(rng, p, 0.3, 0.5, 2.0) + rng.normal(size=n)
    _write_csv(directory / "design.csv", x)
    _write_csv(directory / "response.csv", y)
    spec = {
        "dimension": p,
        "loss": {"kind": "quadratic", "design": "design.csv", "response": "response.csv"},
        "constraints": [{"builder": "lasso"}],
    }
    return _solve_job(index, directory, spec, {"terminal": "zero"})


def make_fused_fsa(seed, index, directory, p, blocks=6):
    rng = _rng(seed, index)
    cuts = np.sort(rng.choice(np.arange(1, p), size=blocks - 1, replace=False))
    widths = np.diff(np.concatenate([[0], cuts, [p]]))
    signal = np.repeat(rng.normal(scale=2.0, size=blocks), widths)
    target = signal + 0.5 * rng.normal(size=p)
    _write_csv(directory / "target.csv", target)
    spec = {
        "dimension": p,
        "loss": {"kind": "quadratic", "target": "target.csv"},
        "constraints": [{"builder": "fused_lasso"}],
        "options": {"mode": "nullspace"},
    }
    return _solve_job(index, directory, spec, {"terminal": "mean"})


def make_logistic_cv(seed, index, directory, n, p, folds=2):
    rng = _rng(seed, index)
    x = rng.normal(size=(n, p))
    # A weak signal keeps every 300-row half far from separable; strong ones
    # (|b| up to 2) occasionally saturate the fitted probabilities, and the
    # fold path then stops on a singular reduced Hessian.
    eta = x @ _sparse_signal(rng, p, 0.25, 0.25, 0.75)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    _write_csv(directory / "design.csv", x)
    _write_csv(directory / "response.csv", y)
    spec = {
        "dimension": p,
        "loss": {"kind": "glm", "family": "logistic", "design": "design.csv",
                 "response": "response.csv"},
        "constraints": [{"builder": "lasso"}],
    }
    spec_path = _write_spec(directory, spec)
    out = directory / "out"
    cv_seed = int(rng.integers(2**31))
    argv = ["crossval", str(spec_path), "--folds", str(folds), "--seed", str(cv_seed),
            "--out", str(out)]
    return Job(index, argv, spec_path, out, "crossval", folds + 1,
               {"folds": folds, "cv_seed": cv_seed})


def make_density_shape(seed, index, directory, n):
    # Jobs 2k and 2k+1 fit n[0] and n[1] Gumbel draws from default_rng(seed + k),
    # the sample family whose larger fits fail at this commit; with seed 0,
    # job 1 is the n=50 input that ends in a bare ValueError.
    draws = np.random.default_rng(seed + index // 2).gumbel(0.0, 1.0, size=n[index % 2])
    support = np.unique(draws)
    _write_csv(directory / "draws.csv", draws)
    _write_csv(directory / "support.csv", support)
    spec = {
        "dimension": int(support.size),
        "loss": {"kind": "logconcave", "samples": "draws.csv"},
        "constraints": [{"builder": "shape", "kind": "concave", "grid": "support.csv"}],
    }
    return _solve_job(index, directory, spec, {"terminal": "density"})


# Why each workload exists; the "why" entries of BENCHMARK.json summarize this.
WORKLOADS = {
    w.name: w
    for w in (
        # Dense least-squares lasso, n = 2p, direct mode: KKT algebra (sweeplin)
        # dominates and loss derivatives cost nothing.  It shows the exact
        # piecewise-linear engine and factor-once work and bypasses jkernel
        # and crossval.
        Workload("lasso_ls", {"full": {"p": 80}, "smoke": {"p": 8}}, make_lasso_ls),
        # Fused-lasso signal approximator, nullspace mode: about p kinks,
        # per-row event functions, beta_at sampling and a 9 MB path.csv
        # dominate while direct-mode factorizations are absent.
        Workload("fused_fsa", {"full": {"p": 150}, "smoke": {"p": 12}}, make_fused_fsa),
        # 2-fold crossval of a logistic lasso: a non-quadratic loss that the
        # piecewise-linear engine must leave alone, two fold threads (= the
        # machine's cores), and sampling on a foreign grid.  At n=300 a
        # 150-row half has no finite unpenalized MLE for the forward start,
        # so n=600.
        Workload("logistic_cv", {"full": {"n": 600, "p": 40}, "smoke": {"n": 80, "p": 4}},
                 make_logistic_cv),
        # Log-concave density with a concave shape penalty: jkernel loss
        # derivatives and brentq event location dominate.  It is not listed in
        # BENCHMARK.json because no run of it is correct at this commit: most
        # terminal rows miss the 1e-8 feasibility check and some n=50 fits end
        # in a bare ValueError (exit 1).  Run it by name to follow that fix.
        Workload("density_shape", {"full": {"n": (25, 50)}, "smoke": {"n": (8, 8)}},
                 make_density_shape),
    )
}


def make_job(workload, size, seed, index, root):
    """Write the input files of job `index` under `root` and describe the call."""
    directory = Path(root) / f"job{index:04d}"
    directory.mkdir(parents=True)
    return workload.make(seed, index, directory, **workload.sizes[size])
