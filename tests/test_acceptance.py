"""Acceptance suite: headline behaviors, one printed verdict line per check.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.
Each check pins the tolerance and, where relevant, a wall-clock budget.
Check 10 (sweep algebra) was retired with the sweep operator; the other
checks keep their numbers.
"""

import time
import warnings

import numpy as np
from scipy.special import expit

from penpath import (
    GaussianGraphicalLoss,
    GlmLoss,
    LogConcaveLoss,
    QuadraticLoss,
    run_path,
)
from penpath.constraints import equalities, fused_lasso, isotone, lasso, shape
from penpath.losses import j_kernel
from penpath.losses.jkernel import ORDERS
from penpath.oracles import glasso_coordinate, pava, quadrature_j, solve_fixed_rho
from penpath.path import MODES, degrees_of_freedom, stationarity_residual


def verdict(number, name, ok, detail):
    line = f"[{number:2d}/11] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


def quiet_path(model, cs, **overrides):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return run_path(model, cs, **overrides)


def test_soft_threshold_path_is_exact():
    start = time.perf_counter()
    b = np.array([2.0, -1.0])
    solution = quiet_path(QuadraticLoss.from_target(b), lasso(2))
    elapsed = time.perf_counter() - start

    kink_rhos = sorted(k.rho for k in solution.kinks)
    kink_err = max(abs(kink_rhos[0] - 1.0), abs(kink_rhos[1] - 2.0))

    beta_err = 0.0
    for rho in np.linspace(0.0, 2.2, 100):
        analytic = np.sign(b) * np.maximum(np.abs(b) - rho, 0.0)
        beta_err = max(beta_err, np.max(np.abs(solution.beta_at(rho) - analytic)))

    ok = len(kink_rhos) == 2 and kink_err < 1e-8 and beta_err < 1e-8 and elapsed < 1.0
    verdict(1, "soft-threshold exactness", ok,
            f"kink err {kink_err:.1e}, beta err {beta_err:.1e}, {elapsed:.2f} s")


def test_random_lasso_matches_fixed_rho_oracle():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(20, 5))
        y = x @ rng.normal(size=5) + 0.5 * rng.normal(size=20)
        model = QuadraticLoss.from_least_squares(x, y)
        cs = lasso(5)
        solution = quiet_path(model, cs)
        for rho in rng.uniform(0.05, 0.95, size=10) * solution.rho_end:
            reference = solve_fixed_rho(model, cs, rho)
            worst = max(worst, np.max(np.abs(solution.beta_at(rho) - reference.beta)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 10.0
    verdict(2, "random lasso vs fixed-rho oracle", ok,
            f"worst {worst:.1e}, {elapsed:.2f} s")


def test_isotone_terminal_equals_pava():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        y = 2.0 * rng.normal(size=10)
        solution = quiet_path(QuadraticLoss.from_target(y), isotone(10))
        worst = max(worst, np.max(np.abs(solution.terminal_beta - pava(y))))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 5.0
    verdict(3, "isotone terminal vs pava", ok, f"worst {worst:.1e}, {elapsed:.2f} s")


def test_stationarity_and_coefficient_ranges_along_logistic_paths():
    worst_residual = 0.0
    all_in_range = True
    for seed in range(10):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(50, 5))
        y = (rng.random(50) < expit(x @ (0.8 * rng.normal(size=5)))).astype(float)
        model = GlmLoss(x, y, family="logistic")
        cs = lasso(5)
        solution = quiet_path(model, cs)
        for rho in solution.rho_grid(20):
            residual = stationarity_residual(
                model, cs, solution.config_at(rho), solution.beta_at(rho), rho
            )
            worst_residual = max(worst_residual, residual)
            all_in_range &= solution.coefficients_at(rho).in_range(1e-7)
    ok = worst_residual < 1e-6 and all_in_range
    verdict(4, "stationarity sweep on logistic lasso", ok,
            f"worst residual {worst_residual:.1e}, ranges ok {all_in_range}")


def test_precision_matrix_path_matches_glasso_and_stays_pd():
    worst_fit, worst_terminal, min_eig = 0.0, 0.0, np.inf
    for seed in range(10):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(40, 4))
        sigma = a.T @ a / 40
        model = GaussianGraphicalLoss(sigma)
        cs = equalities(np.eye(model.dim)[model.offdiagonal_coordinates()])
        solution = quiet_path(model, cs)
        for rho in rng.uniform(0.05, 0.95, size=5) * solution.rho_end:
            reference = glasso_coordinate(sigma, rho)
            fitted = model.to_matrix(solution.beta_at(rho))
            worst_fit = max(worst_fit, np.max(np.abs(fitted - reference)))
        for rho in solution.rho_grid(20):
            eigs = np.linalg.eigvalsh(model.to_matrix(solution.beta_at(rho)))
            min_eig = min(min_eig, eigs.min())
        limit = np.diag(1.0 / np.diag(sigma))
        worst_terminal = max(worst_terminal, np.max(np.abs(
            model.to_matrix(solution.terminal_beta) - limit)))
    ok = worst_fit < 1e-4 and worst_terminal < 1e-4 and min_eig > 0.0
    verdict(5, "precision-matrix path vs glasso", ok,
            f"fit {worst_fit:.1e}, diag limit {worst_terminal:.1e}, "
            f"min eig {min_eig:.2e}")


def test_log_concave_density_fit():
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    draws = rng.gumbel(0.0, 1.0, size=25)
    model = LogConcaveLoss.from_samples(draws)
    support = model.support
    cs = shape(model.dim, kind="concave", grid=support)
    solution = quiet_path(model, cs)
    phi = solution.terminal_beta
    elapsed = time.perf_counter() - start

    feasibility = float(np.max(cs.ineq_residuals(phi)))
    kkt = stationarity_residual(
        model, cs, solution.segments[-1].config, phi, solution.rho_end
    )
    # the fitted density is exp of the piecewise-linear phi; integrate it
    # on a fine grid so quadrature error stays far below the gate
    grid = np.linspace(support[0], support[-1], 20001)
    integral = np.trapezoid(np.exp(np.interp(grid, support, phi)), grid)

    ok = (solution.status == "terminated" and feasibility <= 1e-8
          and kkt < 1e-6 and abs(integral - 1.0) < 1e-6 and elapsed < 30.0)
    verdict(6, "log-concave density fit", ok,
            f"feasibility {feasibility:.1e}, kkt {kkt:.1e}, "
            f"integral err {abs(integral - 1.0):.1e}, {elapsed:.2f} s")


def test_j_kernel_agrees_with_quadrature():
    rng = np.random.default_rng(123)
    worst = 0.0
    for i in range(1000):
        a, b = ORDERS[rng.integers(len(ORDERS))]
        r = rng.uniform(-3.0, 3.0)
        if i % 10 == 0:
            # near-equal arguments exercise the series branch
            s = r + rng.uniform(0.0, 1e-6) * rng.choice([-1.0, 1.0])
        else:
            s = rng.uniform(-3.0, 3.0)
        difference = abs(j_kernel(a, b, r, s) - quadrature_j(a, b, r, s))
        worst = max(worst, difference / (1.0 + abs(quadrature_j(a, b, r, s))))
    ok = worst < 1e-9
    verdict(7, "j-kernel vs quadrature", ok, f"worst rel {worst:.1e}")


def fd_gradient(model, x):
    h = 1e-6 * (1.0 + np.linalg.norm(x))
    out = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        out[i] = (model.value(x + step) - model.value(x - step)) / (2.0 * h)
    return out


def fd_hessian(model, x):
    h = 1e-6 * (1.0 + np.linalg.norm(x))
    cols = []
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        cols.append((model.gradient(x + step) - model.gradient(x - step)) / (2.0 * h))
    return np.column_stack(cols)


def test_derivative_stack_all_families():
    rng = np.random.default_rng(8)

    a = rng.normal(size=(5, 5))
    quadratic = QuadraticLoss(a @ a.T + np.eye(5), rng.normal(size=5))

    x_glm = rng.normal(size=(10, 3))
    y_glm = (rng.random(10) < 0.5).astype(float)
    logistic = GlmLoss(x_glm, y_glm, family="logistic")

    c = rng.normal(size=(20, 3))
    ggm = GaussianGraphicalLoss(c.T @ c / 20)

    logconcave = LogConcaveLoss.from_samples(rng.normal(size=8))

    points = {
        "quadratic": (quadratic, rng.normal(size=5)),
        "logistic": (logistic, 0.5 * rng.normal(size=3)),
        "ggm": (ggm, ggm.from_matrix(np.eye(3) * 2.0)),
        "logconcave": (logconcave, -np.ones(logconcave.dim)),
    }
    worst = {"grad": 0.0, "hess": 0.0}
    ok = True
    for model, x in points.values():
        g = model.gradient(x)
        g_err = np.max(np.abs(g - fd_gradient(model, x))) / (1.0 + np.abs(g).max())
        h = model.hessian(x)
        h_err = np.max(np.abs(h - fd_hessian(model, x))) / (1.0 + np.abs(h).max())
        worst["grad"] = max(worst["grad"], g_err)
        worst["hess"] = max(worst["hess"], h_err)
        ok &= g_err < 1e-5 and h_err < 1e-5
    verdict(8, "derivative stack, four loss families", ok,
            f"grad {worst['grad']:.1e}, hess {worst['hess']:.1e}")


def test_three_modes_agree_on_logistic_fused_lasso():
    # Three independent formulations: the path in direct and in nullspace
    # mode, and the fixed-rho ADMM oracle at the midpoint of every segment.
    rng = np.random.default_rng(3)
    x = rng.normal(size=(60, 8))
    beta_true = np.repeat([0.8, -0.5], 4)
    y = (rng.random(60) < expit(x @ beta_true)).astype(float)
    model = GlmLoss(x, y, family="logistic")
    cs = fused_lasso(8)

    solutions = {mode: quiet_path(model, cs, mode=mode) for mode in MODES}
    direct, nullspace = solutions["direct"], solutions["nullspace"]
    mode_gap = max(
        np.max(np.abs(direct.beta_at(r) - nullspace.beta_at(r)))
        for r in direct.rho_grid(20)
    )
    admm_gap = 0.0
    for seg in direct.segments:
        if seg.rho_span > 0.0:
            rho = 0.5 * (seg.rho_start + seg.rho_end)
            reference = solve_fixed_rho(model, cs, rho, tol=1e-9)
            admm_gap = max(admm_gap, np.max(np.abs(direct.beta_at(rho) - reference.beta)))
    worst = max(mode_gap, admm_gap)
    ok = worst < 1e-5 and all(s.status == "terminated" for s in solutions.values())
    verdict(9, "direct/nullspace/ADMM agreement", ok,
            f"modes {mode_gap:.1e}, ADMM {admm_gap:.1e}")


def test_df_bookkeeping_along_path():
    rng = np.random.default_rng(9)
    p = 7
    model = QuadraticLoss.from_target(2.0 * rng.normal(size=p))
    cs = fused_lasso(p)
    solution = quiet_path(model, cs)

    formula_ok = all(
        degrees_of_freedom(seg.config, p) == p - seg.config.n_active
        and solution.df_at(0.5 * (seg.rho_start + seg.rho_end)) == p - seg.config.n_active
        for seg in solution.segments
        if seg.rho_end > seg.rho_start
    )

    kink_rhos = np.array([k.rho for k in solution.kinks])
    gaps = np.diff(kink_rhos)
    isolated = len(kink_rhos) >= 1 and (gaps.size == 0 or gaps.min() > 1e-9)

    df_seq = [p] + [k.df_after for k in solution.kinks]
    steps_ok = all(abs(after - before) == 1
                   for before, after in zip(df_seq, df_seq[1:]))

    ok = formula_ok and isolated and steps_ok
    verdict(11, "df bookkeeping", ok,
            f"formula {formula_ok}, unit steps {steps_ok}, kinks {len(kink_rhos)}")
