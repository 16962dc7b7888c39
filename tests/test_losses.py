"""Derivative stacks of all loss families against finite differences."""

import warnings

import numpy as np
import pytest

import penpath.losses.ggm as ggm_module
from penpath.constraints import equalities
from penpath.errors import DivergenceError, DomainError
from penpath.losses import (
    GaussianGraphicalLoss,
    GlmLoss,
    LINKS,
    LogConcaveLoss,
    QuadraticLoss,
    QuasiLoss,
    VARIANCES,
    unconstrained_minimum,
)
from penpath.path import run_path


def fd_gradient(model, x):
    h = 1e-6 * (1.0 + np.linalg.norm(x))
    g = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        g[i] = (model.value(x + step) - model.value(x - step)) / (2.0 * h)
    return g


def fd_hessian(model, x):
    h = 1e-6 * (1.0 + np.linalg.norm(x))
    cols = []
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        cols.append((model.gradient(x + step) - model.gradient(x - step)) / (2.0 * h))
    return np.column_stack(cols)


def check_derivative_stack(model, x, grad_rtol=1e-5, hess_rtol=1e-5):
    g = model.gradient(x)
    scale = 1.0 + np.abs(g).max()
    np.testing.assert_allclose(g, fd_gradient(model, x), atol=grad_rtol * scale)

    h = model.hessian(x)
    np.testing.assert_allclose(h, h.T, atol=1e-12 * (1.0 + np.abs(h).max()))
    eigs = np.linalg.eigvalsh(h)
    assert eigs.min() > -1e-8 * max(1.0, eigs.max())
    np.testing.assert_allclose(
        h, fd_hessian(model, x), atol=hess_rtol * (1.0 + np.abs(h).max())
    )


def test_quadratic_stack():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 4))
    model = QuadraticLoss(a.T @ a + np.eye(4), rng.standard_normal(4), 0.3)
    for _ in range(3):
        check_derivative_stack(model, rng.standard_normal(4))


def test_quadratic_from_target():
    target = np.array([2.0, -1.0])
    model = QuadraticLoss.from_target(target)
    assert model.value(target) == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_array_equal(model.gradient(target), np.zeros(2))


def test_quadratic_from_least_squares():
    rng = np.random.default_rng(1)
    x_mat = rng.standard_normal((10, 3))
    y = rng.standard_normal(10)
    model = QuadraticLoss.from_least_squares(x_mat, y)
    beta = rng.standard_normal(3)
    assert model.value(beta) == pytest.approx(0.5 * np.sum((y - x_mat @ beta) ** 2))


@pytest.mark.parametrize("family", ["normal", "logistic", "poisson"])
def test_glm_stack(family):
    rng = np.random.default_rng(2)
    n, p = 12, 4
    x_mat = rng.standard_normal((n, p))
    if family == "logistic":
        y = rng.integers(0, 2, size=n).astype(float)
    elif family == "poisson":
        y = rng.poisson(2.0, size=n).astype(float)
    else:
        y = rng.standard_normal(n)
    model = GlmLoss(x_mat, y, family=family)
    for _ in range(3):
        check_derivative_stack(model, 0.3 * rng.standard_normal(p))


def test_glm_normal_matches_least_squares():
    rng = np.random.default_rng(3)
    x_mat = rng.standard_normal((8, 3))
    y = rng.standard_normal(8)
    glm = GlmLoss(x_mat, y, family="normal")
    lsq = QuadraticLoss.from_least_squares(x_mat, y)
    beta = rng.standard_normal(3)
    np.testing.assert_allclose(glm.gradient(beta), lsq.gradient(beta), atol=1e-12)
    np.testing.assert_allclose(glm.hessian(beta), lsq.hessian(beta), atol=1e-12)


def test_glm_response_validation():
    x_mat = np.ones((3, 1))
    with pytest.raises(ValueError):
        GlmLoss(x_mat, np.array([0.0, 2.0, 1.0]), family="logistic")
    with pytest.raises(ValueError):
        GlmLoss(x_mat, np.array([0.0, -1.0, 1.0]), family="poisson")


def test_glm_unknown_family_names_the_valid_ones():
    with pytest.raises(ValueError, match=r"unknown glm family 'probit'; expected one of "
                       r"\['logistic', 'normal', 'poisson'\]"):
        GlmLoss(np.ones((3, 1)), np.array([0.0, 1.0, 1.0]), family="probit")


@pytest.mark.parametrize("scale", [np.inf, np.nan, 0.0, -1.0])
def test_glm_and_quasi_scale_must_be_finite_and_positive(scale):
    x_mat, y = np.ones((3, 1)), np.array([0.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="scale must be finite and positive"):
        GlmLoss(x_mat, y, family="logistic", scale=scale)
    with pytest.raises(ValueError, match="scale must be finite and positive"):
        QuasiLoss(x_mat, y, LINKS["logit"], VARIANCES["binomial"], scale=scale)


@pytest.mark.parametrize(
    "family,link,variance",
    [("logistic", "logit", "binomial"), ("poisson", "log", "identity"),
     ("normal", "identity", "constant")],
)
def test_quasi_matches_canonical(family, link, variance):
    # Canonical pairings: the general chain-rule weights must collapse to
    # the simplified family formulas.
    rng = np.random.default_rng(4)
    n, p = 10, 3
    x_mat = rng.standard_normal((n, p))
    if family == "logistic":
        y = rng.integers(0, 2, size=n).astype(float)
    elif family == "poisson":
        y = (rng.poisson(2.0, size=n) + 1).astype(float)
    else:
        y = rng.standard_normal(n)
    canonical = GlmLoss(x_mat, y, family=family)
    quasi = QuasiLoss(x_mat, y, LINKS[link], VARIANCES[variance])
    beta = 0.2 * rng.standard_normal(p)
    np.testing.assert_allclose(
        quasi.gradient(beta), canonical.gradient(beta), atol=1e-10
    )
    np.testing.assert_allclose(quasi.hessian(beta), canonical.hessian(beta), atol=1e-10)


def test_quasi_noncanonical_stack():
    # Probit-free check: log link with binomial-type variance is a genuine
    # quasi pairing; derivatives must still match finite differences.
    rng = np.random.default_rng(5)
    n, p = 9, 3
    x_mat = 0.3 * rng.standard_normal((n, p))
    y = rng.uniform(0.2, 0.8, size=n)

    mu = lambda eta: 0.1 + 0.8 * np.atleast_1d(np.exp(eta) / (1 + np.exp(eta)))
    dmu = lambda eta: 0.8 * LINKS["logit"][1](eta)
    d2mu = lambda eta: 0.8 * LINKS["logit"][2](eta)
    model = QuasiLoss(x_mat, y, (mu, dmu, d2mu), VARIANCES["binomial"])

    x = 0.2 * rng.standard_normal(p)
    g = model.gradient(x)
    np.testing.assert_allclose(g, fd_gradient(model, x), atol=1e-5 * (1 + np.abs(g).max()))
    h = model.hessian(x)
    np.testing.assert_allclose(h, fd_hessian(model, x), atol=1e-5 * (1 + np.abs(h).max()))


def random_spd(rng, p):
    a = rng.standard_normal((p, p))
    return a @ a.T + p * np.eye(p)


def test_ggm_stack():
    rng = np.random.default_rng(6)
    model = GaussianGraphicalLoss(random_spd(rng, 4) / 4.0)
    for _ in range(3):
        b = rng.standard_normal((4, 4)) * 0.2
        omega = b @ b.T + np.eye(4)
        check_derivative_stack(model, model.from_matrix(omega))


def test_ggm_gradient_zero_at_inverse_covariance():
    rng = np.random.default_rng(7)
    sigma = random_spd(rng, 4) / 4.0
    model = GaussianGraphicalLoss(sigma)
    x = model.from_matrix(np.linalg.inv(sigma))
    assert np.abs(model.gradient(x)).max() < 1e-10


def test_ggm_domain_error():
    model = GaussianGraphicalLoss(np.eye(3))
    x = model.from_matrix(np.diag([1.0, -1.0, 1.0]))
    with pytest.raises(DomainError):
        model.value(x)
    with pytest.raises(DomainError):
        model.gradient(x)


def test_ggm_vectorization_roundtrip():
    model = GaussianGraphicalLoss(np.eye(3))
    # Column-major lower triangle: (0,0),(1,0),(2,0),(1,1),(2,1),(2,2).
    x = np.arange(1.0, 7.0)
    m = model.to_matrix(x)
    expected = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]])
    np.testing.assert_array_equal(m, expected)
    np.testing.assert_array_equal(model.from_matrix(m), x)
    np.testing.assert_array_equal(model.offdiagonal_coordinates(), [1, 2, 4])


def test_logconcave_stack():
    rng = np.random.default_rng(8)
    support = np.sort(rng.uniform(-2, 2, size=7))
    freq = rng.uniform(0.5, 1.5, size=7)
    freq /= freq.sum()
    model = LogConcaveLoss(support, freq)
    for _ in range(3):
        check_derivative_stack(model, rng.standard_normal(7) * 0.5)


def test_logconcave_two_point_hessian():
    # For n=2 the Hessian is delta * [[J20, J11], [J11, J02]] at (phi_1, phi_2).
    from penpath.losses import j_kernel

    model = LogConcaveLoss([0.0, 0.7], [0.4, 0.6])
    phi = np.array([-0.3, 0.2])
    h = model.hessian(phi)
    d = 0.7
    assert h[0, 0] == pytest.approx(d * j_kernel(2, 0, *phi), rel=1e-12)
    assert h[0, 1] == pytest.approx(d * j_kernel(1, 1, *phi), rel=1e-12)
    assert h[1, 1] == pytest.approx(d * j_kernel(0, 2, *phi), rel=1e-12)


def test_logconcave_from_samples():
    model = LogConcaveLoss.from_samples([1.0, 2.0, 1.0, 3.0])
    np.testing.assert_array_equal(model.support, [1.0, 2.0, 3.0])
    np.testing.assert_allclose(model.freq, [0.5, 0.25, 0.25])


def test_logconcave_validation():
    with pytest.raises(ValueError):
        LogConcaveLoss([0.0, 0.0, 1.0], [0.3, 0.3, 0.4])
    with pytest.raises(ValueError):
        LogConcaveLoss([0.0, 1.0], [0.9, 0.2])


def test_newton_quadratic_exact():
    target = np.array([2.0, -1.0])
    model = QuadraticLoss.from_target(target)
    np.testing.assert_array_equal(unconstrained_minimum(model), target)


def test_newton_logistic():
    rng = np.random.default_rng(9)
    x_mat = rng.standard_normal((40, 3))
    beta_true = np.array([0.5, -1.0, 0.2])
    y = (rng.uniform(size=40) < 1 / (1 + np.exp(-x_mat @ beta_true))).astype(float)
    model = GlmLoss(x_mat, y, family="logistic")
    x = unconstrained_minimum(model)
    assert np.abs(model.gradient(x)).max() <= 1e-9 * (1.0 + abs(model.value(x)))


@pytest.mark.parametrize("seed", [41, 197])
def test_newton_takes_the_full_step_when_the_line_search_stops_moving(seed):
    # On these draws the gradient stops just above the threshold, where
    # f(x + t step) exceeds f(x) by rounding alone: the line search shrinks
    # t until x + t step == x, and a step that does not move repeated until
    # the iteration cap raised DivergenceError.
    rng = np.random.default_rng(seed)
    x_mat = rng.normal(size=(60, 10))
    beta_true = np.zeros(10)
    support = rng.choice(10, 2, replace=False)
    beta_true[support] = rng.choice([-1.0, 1.0], size=2) * rng.uniform(0.25, 0.75, 2)
    y = (rng.random(60) < 1.0 / (1.0 + np.exp(-(x_mat @ beta_true)))).astype(float)
    model = GlmLoss(x_mat, y, family="logistic")
    x = unconstrained_minimum(model)
    assert np.abs(model.gradient(x)).max() <= 1e-9 * (1.0 + abs(model.value(x)))


def test_newton_budget_exhaustion():
    # A budget too small to converge must signal rather than return.
    rng = np.random.default_rng(12)
    x_mat = rng.standard_normal((40, 3))
    y = rng.integers(0, 2, size=40).astype(float)
    model = GlmLoss(x_mat, y, family="logistic")
    with pytest.raises(DivergenceError):
        unconstrained_minimum(model, x0=np.array([50.0, -50.0, 50.0]), max_iter=2)


def test_newton_separable_logistic_saturates_or_signals():
    # The minimum is unattained; with the relative gradient tolerance the
    # iteration either signals or stops at a saturated point whose gradient
    # satisfies the declared stopping rule.
    x_mat = np.array([[-1.0], [1.0]])
    y = np.array([0.0, 1.0])
    model = GlmLoss(x_mat, y, family="logistic")
    try:
        x = unconstrained_minimum(model)
    except DivergenceError:
        return
    assert np.abs(model.gradient(x)).max() <= 1e-9 * (1.0 + abs(model.value(x)))


def test_newton_ggm_recovers_inverse():
    rng = np.random.default_rng(10)
    sigma = random_spd(rng, 4) / 4.0
    model = GaussianGraphicalLoss(sigma)
    x = unconstrained_minimum(model)
    np.testing.assert_allclose(
        model.to_matrix(x), np.linalg.inv(sigma), atol=1e-8
    )


def test_newton_logconcave_density_normalizes():
    rng = np.random.default_rng(11)
    model = LogConcaveLoss.from_samples(rng.standard_normal(12))
    phi = unconstrained_minimum(model)
    assert model.density_integral(phi) == pytest.approx(1.0, abs=1e-9)


def ggm_loop_hessian(model, x):
    """The GGM Hessian one column at a time: column k is the symmetric-pair
    gather of d(Omega^-1) along coordinate k's basis matrix."""
    inv = model._inverse(x)
    q = model.dim
    h = np.empty((q, q))
    for k in range(q):
        i, j = model.rows[k], model.cols[k]
        m = np.outer(inv[:, i], inv[j, :])
        if i != j:
            m = m + m.T
        h[:, k] = model._mult * m[model.rows, model.cols]
    return 0.5 * (h + h.T)


@pytest.mark.parametrize("p", [1, 2, 6, 14, 20, 30])
def test_ggm_hessian_equals_the_loop(p):
    rng = np.random.default_rng(p)
    draws = rng.standard_normal((200, p))
    model = GaussianGraphicalLoss(draws.T @ draws / 200)
    for _ in range(5):
        b = rng.standard_normal((p, p))
        x = model.from_matrix(b @ b.T / p + np.eye(p))
        assert model.hessian(x).tobytes() == ggm_loop_hessian(model, x).tobytes()


def test_ggm_factors_omega_once_per_point(monkeypatch):
    # The ODE engine asks for the gradient and then the Hessian columns at
    # one point: one Cholesky factorization of Omega serves both, and the
    # path is bitwise that of a loss that factors Omega on every call.
    rng = np.random.default_rng(3)
    draws = rng.standard_normal((40, 4))
    model = GaussianGraphicalLoss(draws.T @ draws / 40)
    cs = equalities(np.eye(model.dim)[model.offdiagonal_coordinates()])  # offdiagonal_lasso
    points, factored = [], []
    real_factor = ggm_module.cho_factor

    def factor(*args, **kwargs):
        factored.append(1)
        return real_factor(*args, **kwargs)

    def asking(method):
        def call(self, x, *args):
            points.append(np.asarray(x, dtype=float).tobytes())
            return method(self, x, *args)
        return call

    monkeypatch.setattr(ggm_module, "cho_factor", factor)
    for name in ("gradient", "hessian", "hessian_columns"):
        method = getattr(GaussianGraphicalLoss, name)
        monkeypatch.setattr(GaussianGraphicalLoss, name, asking(method))
    real_value = GaussianGraphicalLoss.value
    values = []
    monkeypatch.setattr(GaussianGraphicalLoss, "value",
                        lambda self, x: values.append(1) or real_value(self, x))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cached = run_path(model, cs)
    assert len(cached.kinks) >= 3
    # value factors Omega for its own log-determinant
    inverses = len(factored) - len(values)
    changes = sum(1 for before, after in zip([None] + points, points) if after != before)
    assert inverses == changes < len(points)

    real_inverse = GaussianGraphicalLoss._inverse

    def uncached(self, x):
        self._last = (None, None)
        return real_inverse(self, x)

    monkeypatch.setattr(GaussianGraphicalLoss, "_inverse", uncached)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fresh = run_path(GaussianGraphicalLoss(draws.T @ draws / 40), cs)
    assert [vars(k) for k in fresh.kinks] == [vars(k) for k in cached.kinks]
    for a, b in zip(fresh.segments, cached.segments, strict=True):
        assert a.rho_end == b.rho_end and a.beta_end.tobytes() == b.beta_end.tobytes()


def parity_models():
    rng = np.random.default_rng(9)
    x_mat = rng.standard_normal((30, 6))
    binary = rng.integers(0, 2, size=30).astype(float)
    counts = rng.poisson(2.0, size=30).astype(float)
    support = np.sort(rng.uniform(-2, 2, size=6))
    a = rng.standard_normal((8, 6))
    mu = lambda eta: 0.1 + 0.8 * np.atleast_1d(np.exp(eta) / (1 + np.exp(eta)))
    dmu = lambda eta: 0.8 * LINKS["logit"][1](eta)
    d2mu = lambda eta: 0.8 * LINKS["logit"][2](eta)
    spd = random_spd(rng, 4) / 4.0
    b = rng.standard_normal((4, 4)) * 0.2
    return {
        "quadratic": (QuadraticLoss(a.T @ a + np.eye(6), rng.standard_normal(6)),
                      rng.standard_normal(6)),
        "normal": (GlmLoss(x_mat, rng.standard_normal(30), family="normal", scale=2.0),
                   rng.standard_normal(6)),
        "logistic": (GlmLoss(x_mat, binary, family="logistic"), 0.3 * rng.standard_normal(6)),
        "poisson": (GlmLoss(x_mat, counts, family="poisson"), 0.1 * rng.standard_normal(6)),
        "quasi": (QuasiLoss(x_mat, rng.uniform(0.2, 0.8, size=30), (mu, dmu, d2mu),
                            VARIANCES["binomial"]), 0.2 * rng.standard_normal(6)),
        "ggm": (GaussianGraphicalLoss(spd), GaussianGraphicalLoss(spd).from_matrix(
            b @ b.T + np.eye(4))),
        "logconcave": (LogConcaveLoss(support, np.full(6, 1.0 / 6.0)),
                       0.5 * rng.standard_normal(6)),
    }


PARITY_MODELS = ["quadratic", "normal", "logistic", "poisson", "quasi", "ggm", "logconcave"]


@pytest.mark.parametrize("name", PARITY_MODELS)
def test_hessian_columns_match_the_hessian(name):
    # The default, and the GGM's Kronecker gather, are hessian(x)[:, cols]
    # bit for bit; the GLM and quasi-likelihood columns weight X[:, cols]
    # instead of X, which rounds differently.
    model, x = parity_models()[name]
    h = model.hessian(x)
    q = model.dim
    for cols in (np.array([], dtype=int), np.array([0, 2, q - 1]), np.array([q - 1, 1, 3, 0]),
                 np.arange(q)):
        ours, reference = model.hessian_columns(x, cols), h[:, cols]
        assert ours.shape == reference.shape == (q, cols.size)
        if name in ("normal", "logistic", "poisson", "quasi"):
            assert np.abs(ours - reference).max(initial=0.0) <= 1e-14 * np.abs(h).max()
        else:
            assert ours.tobytes() == reference.tobytes()


DESIGN_MODELS = ["normal", "logistic", "poisson", "quasi"]


def weighted_columns(model, x, cols):
    """X^T diag(w) X[:, cols], the Hessian's columns as a design loss formed
    them before it kept the block X[:, cols].T."""
    eta = model.design @ x
    if isinstance(model, QuasiLoss):
        w = model._weights(eta, 2) / model.scale
    else:
        w = model.family.dmean(eta) / model.scale
    return model.design.T @ (w[:, None] * model.design[:, cols])


def column_sets(q, rng):
    return [np.arange(q), np.array([0, 2, q - 1]), np.array([q - 1, 1, 3, 0]),
            np.array([], dtype=int), rng.permutation(q), np.sort(rng.permutation(q)[:q // 2])]


@pytest.mark.parametrize("name", DESIGN_MODELS)
def test_design_hessian_columns_are_the_weighted_columns_bitwise(name):
    model, x = parity_models()[name]
    rng = np.random.default_rng(4)
    q = model.dim
    for cols in column_sets(q, rng) * 2:  # each set after another, then again
        ours = model.hessian_columns(x, cols)
        assert ours.shape == (q, cols.size)
        assert ours.tobytes() == weighted_columns(model, x, cols).tobytes()
    # a wider design, as the benchmark's (n = 300, p = 40), at several points
    design = rng.normal(size=(300, 40))
    wide = GlmLoss(design, (rng.random(300) < 0.5).astype(float), family="logistic")
    for _ in range(3):
        x = 0.2 * rng.normal(size=40)
        for cols in column_sets(40, rng):
            assert wide.hessian_columns(x, cols).tobytes() == weighted_columns(wide, x, cols).tobytes()


@pytest.mark.parametrize("name", DESIGN_MODELS)
def test_design_hessian_columns_keep_the_block_of_the_last_columns(name):
    model, x = parity_models()[name]
    cols = np.array([4, 0, 2])
    first = model.hessian_columns(x, cols)
    block = model._block[1]
    # the same columns at another point, and in another array, reuse it
    assert model.hessian_columns(0.5 * x, cols.copy()).tobytes() == (
        weighted_columns(model, 0.5 * x, cols).tobytes())
    assert model._block[1] is block
    # columns changed in place are new columns
    cols[1] = 1
    assert model.hessian_columns(x, cols).tobytes() == weighted_columns(model, x, cols).tobytes()
    assert model._block[1] is not block
    cols[1] = 0
    assert model.hessian_columns(x, cols).tobytes() == first.tobytes()


def test_each_fold_loss_keeps_its_own_block():
    # split_loss builds a new loss per fold: each keeps the block of its own
    # rows, whatever another fold's loss was last asked for.
    rng = np.random.default_rng(8)
    design = rng.normal(size=(60, 7))
    response = (rng.random(60) < 0.5).astype(float)
    folds = [GlmLoss(design[rows], response[rows], family="logistic")
             for rows in (np.arange(30), np.arange(30, 60), np.arange(60))]
    x, cols = 0.3 * rng.normal(size=7), np.array([1, 3, 6])
    for model in folds + folds[::-1]:
        assert model.hessian_columns(x, cols).tobytes() == weighted_columns(model, x, cols).tobytes()
    assert len({id(model._block[1]) for model in folds}) == 3
