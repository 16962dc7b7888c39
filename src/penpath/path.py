"""Piecewise-smooth solution paths for exactly penalized convex programs.

The solver follows the minimizer beta(rho) of

    E_rho(beta) = f(beta) + rho ||V beta - d||_1 + rho sum_j max(0, w_j beta - e_j)

as rho varies.  Between kinks the minimizer obeys an ordinary differential
equation determined by which constraint rows have zero residual (the
active set) and by the subgradient signs of the rest; at a kink exactly
one row changes sets, either because an inactive residual reached zero or
because an active row's subgradient coefficient reached the boundary of
its admissible range ([-1, 1] for equality rows, [0, 1] for inequality
rows).  Forward runs start at rho = 0 from the unconstrained minimum and
stop when no row pulls on the solution any more, at which point beta
solves the constrained program min f subject to V beta = d, W beta <= e.

Two segment engines share the event and kink logic, chosen by the loss's
constant_hessian attribute.  For a constant Hessian (quadratic losses, the
normal GLM) the right-hand side dbeta/drho = -P u is constant between
kinks, so beta is linear in rho and the active coefficients are affine in
1/rho: the exact engine evaluates the derivative once per segment and
finds every event as the root of a closed-form function, with no
integration step.  Every other loss follows the ODE engine, which
integrates the segment with adaptive Runge-Kutta steps and locates events
on the dense output.

Three interchangeable segment formulations serve both engines: "direct"
solves the bordered KKT blocks (at every evaluation in the ODE engine, once
per segment in the exact one), "nullspace" works in the active rows' null
space (usable when the Hessian is singular), and "tableau" keeps the KKT
blocks in a sweep tableau updated by sweeps at kinks (carried as extra ODE
state in the ODE engine, constant along an exact segment).
"""

import math
import warnings as _pywarnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import (
    NoConvergence,
    NonFiniteDerivative,
    NotStrictlyConvex,
    PathDivergence,
    PenPathError,
    ReducedHessianSingular,
    SimultaneousEventWarning,
)
from .losses.newton import minimize_smooth, unconstrained_minimum
from .odeint import DEAD_BAND, EventSpec, integrate
from .sweeplin import SweepTableau, kkt_blocks, null_basis

# Below this rho the coefficient formula switches to its rho -> 0 limit.
RHO_FLOOR = 1e-12
# Events closer than this (in rho) are treated as simultaneous.
EVENT_CLUSTER_TOL = 1e-10
DEFAULT_RHO_MAX = 1e6
DEFAULT_BETA_BOUND = 1e8
MODES = ("direct", "nullspace", "tableau")

_SET_FIELDS = ("neg_eq", "zero_eq", "pos_eq", "neg_ineq", "zero_ineq", "pos_ineq")


# ---------------------------------------------------------------------------
# Set configuration.

@dataclass(frozen=True)
class SetConfiguration:
    """Partition of constraint rows by the sign of their residuals.

    Equality rows split into neg_eq / zero_eq / pos_eq by the sign of
    v_i beta - d_i, inequality rows into neg_ineq / zero_ineq / pos_ineq by
    the sign of w_j beta - e_j.  Rows in the zero sets are active: they pin
    the solution exactly.  The others contribute fixed subgradient signs
    (-1, +1, or +1 for violated inequalities; strictly satisfied
    inequalities contribute nothing).
    """

    neg_eq: tuple = ()
    zero_eq: tuple = ()
    pos_eq: tuple = ()
    neg_ineq: tuple = ()
    zero_ineq: tuple = ()
    pos_ineq: tuple = ()

    def __post_init__(self):
        for name in _SET_FIELDS:
            object.__setattr__(
                self, name, tuple(sorted(int(i) for i in getattr(self, name)))
            )
        eq = self.neg_eq + self.zero_eq + self.pos_eq
        ineq = self.neg_ineq + self.zero_ineq + self.pos_ineq
        if len(set(eq)) != len(eq) or len(set(ineq)) != len(ineq):
            raise ValueError("index sets are not disjoint")

    def check_partition(self, n_eq, n_ineq):
        """Validate that the sets cover exactly 0..n_eq-1 and 0..n_ineq-1."""
        if sorted(self.neg_eq + self.zero_eq + self.pos_eq) != list(range(n_eq)):
            raise ValueError("equality sets do not partition the row range")
        if sorted(self.neg_ineq + self.zero_ineq + self.pos_ineq) != list(range(n_ineq)):
            raise ValueError("inequality sets do not partition the row range")
        return self

    @property
    def n_active(self):
        return len(self.zero_eq) + len(self.zero_ineq)

    @property
    def is_terminal(self):
        """True when no remaining row pulls on the solution.

        Active rows and strictly satisfied inequalities exert no net
        penalty force, so the path is stationary from here on.
        """
        return not (self.neg_eq or self.pos_eq or self.pos_ineq)

    def active_rows(self, cs):
        """Stacked active rows [V_Z; W_Z], equality block first."""
        parts = []
        if self.zero_eq:
            parts.append(cs.v_mat[list(self.zero_eq)])
        if self.zero_ineq:
            parts.append(cs.w_mat[list(self.zero_ineq)])
        if not parts:
            return np.zeros((0, cs.dim))
        return np.vstack(parts)

    def active_global(self, n_eq):
        """Active row positions in the stacked [V; W] ordering."""
        return [int(i) for i in self.zero_eq] + [n_eq + int(j) for j in self.zero_ineq]

    def inactive_subgradient(self, cs):
        """Fixed direction u = sum of signed inactive rows."""
        u = np.zeros(cs.dim)
        for i in self.neg_eq:
            u -= cs.v_mat[i]
        for i in self.pos_eq:
            u += cs.v_mat[i]
        for j in self.pos_ineq:
            u += cs.w_mat[j]
        return u

    def subgradient_signs(self, n_eq, n_ineq):
        """Signs over all stacked rows; active and satisfied rows get 0."""
        r = np.zeros(n_eq + n_ineq)
        r[list(self.neg_eq)] = -1.0
        r[list(self.pos_eq)] = 1.0
        r[[n_eq + j for j in self.pos_ineq]] = 1.0
        return r

    def locate(self, row_kind, index):
        """Name of the set currently holding the given row."""
        names = [p + row_kind for p in ("neg_", "zero_", "pos_")]
        for name in names:
            if index in getattr(self, name):
                return name
        raise ValueError(f"{row_kind} row {index} is not classified")

    def move(self, row_kind, index, to_set):
        """New configuration with one row moved to `to_set`."""
        if row_kind not in ("eq", "ineq"):
            raise ValueError(f"unknown row kind {row_kind!r}")
        if to_set not in (f"neg_{row_kind}", f"zero_{row_kind}", f"pos_{row_kind}"):
            raise ValueError(f"bad target set {to_set!r} for {row_kind} row")
        source = self.locate(row_kind, index)
        groups = {name: set(getattr(self, name)) for name in _SET_FIELDS}
        groups[source].discard(index)
        groups[to_set].add(index)
        return SetConfiguration(**groups)


def classify(residuals_eq, residuals_ineq, tol):
    """Assign each constraint row to a sign class by its residual.

    Residuals within tol of zero are active; otherwise the sign decides.
    """
    def split(res):
        res = np.asarray(res, dtype=float).ravel()
        zero = tuple(np.flatnonzero(np.abs(res) <= tol))
        neg = tuple(np.flatnonzero(res < -tol))
        pos = tuple(np.flatnonzero(res > tol))
        return neg, zero, pos

    neg_eq, zero_eq, pos_eq = split(residuals_eq)
    neg_ineq, zero_ineq, pos_ineq = split(residuals_ineq)
    return SetConfiguration(neg_eq, zero_eq, pos_eq, neg_ineq, zero_ineq, pos_ineq)


def degrees_of_freedom(config, p):
    """Free dimensions remaining: p minus the number of active rows."""
    return int(p) - config.n_active


def information_criteria(loglik, df, n):
    """(aic, bic) from a log-likelihood and a degrees-of-freedom count.

    aic = -loglik + df and bic = -loglik + (log n / 2) df, so both are on
    the half-deviance scale rather than the more common doubled one.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    return -loglik + df, -loglik + 0.5 * math.log(n) * df


# ---------------------------------------------------------------------------
# Segment-level formulas.

@dataclass(frozen=True)
class ActiveCoefficients:
    """Subgradient coefficients of the active rows.

    s holds the equality-row coefficients (admissible range [-1, 1]) and
    t the inequality-row coefficients (range [0, 1]), each ordered by
    ascending row index; eq_indices / ineq_indices give the rows.
    """

    s: np.ndarray
    t: np.ndarray
    eq_indices: tuple
    ineq_indices: tuple

    @property
    def r_z(self):
        return np.concatenate([self.s, self.t])

    def in_range(self, tol=1e-7):
        ok_s = self.s.size == 0 or (
            self.s.min() >= -1.0 - tol and self.s.max() <= 1.0 + tol
        )
        ok_t = self.t.size == 0 or (self.t.min() >= -tol and self.t.max() <= 1.0 + tol)
        return bool(ok_s and ok_t)


def _factor_hessian(mat, singular_error, message):
    """Cholesky factor of a Hessian or its null-space restriction.

    Non-finite entries raise NonFiniteDerivative (a loss evaluated where
    its derivatives overflow), a failed factorization `singular_error`.
    """
    if not np.all(np.isfinite(mat)):
        raise NonFiniteDerivative("Hessian has non-finite entries at the current point")
    try:
        return cho_factor(mat)
    except np.linalg.LinAlgError:
        raise singular_error(message) from None


def _hessian_inverse(model, beta):
    h = model.hessian(beta)
    factor = _factor_hessian(
        h, NotStrictlyConvex, "Hessian is not positive definite at the current point"
    )
    return cho_solve(factor, np.eye(h.shape[0]))


def _reduced_direction(hessian, y_b, u):
    """-Y (Y^T H Y)^-1 Y^T u: the path derivative in the null space basis Y."""
    reduced = y_b.T @ hessian @ y_b
    reduced = 0.5 * (reduced + reduced.T)
    factor = _factor_hessian(
        reduced,
        ReducedHessianSingular,
        "Hessian restricted to the active null space is singular",
    )
    return -(y_b @ cho_solve(factor, y_b.T @ u))


def segment_rhs_direct(model, cs, config, beta):
    """Path derivative dbeta/drho = -P u from the bordered KKT blocks."""
    u = config.inactive_subgradient(cs)
    h_inv = _hessian_inverse(model, beta)
    p_blk, _, _ = kkt_blocks(h_inv, config.active_rows(cs))
    return -(p_blk @ u)


def segment_rhs_nullspace(model, cs, config, beta, basis=None):
    """Path derivative computed in the active rows' null space.

    Equals segment_rhs_direct wherever both are defined, but only needs
    the Hessian restricted to the null space to be positive definite.
    """
    active = config.active_rows(cs)
    if basis is None:
        basis = null_basis(active, cs.dim)
    y_b = basis.basis
    if y_b.shape[1] == 0:
        return np.zeros(cs.dim)
    return _reduced_direction(model.hessian(beta), y_b, config.inactive_subgradient(cs))


def active_coefficients(model, cs, config, beta, rho):
    """Subgradient coefficients r_Z = -Q^T (grad f / rho + u) (eq rows first).

    Below rho = 1e-12 the limiting value -Q^T u is used instead: on the
    path grad f / rho tends to H dbeta/drho = -H P u, and Q^T H P vanishes
    identically, so the gradient term drops out of the limit.
    """
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    active = config.active_rows(cs)
    n_act_eq = len(config.zero_eq)
    if active.shape[0] == 0:
        return ActiveCoefficients(np.zeros(0), np.zeros(0), (), ())
    h_inv = _hessian_inverse(model, beta)
    _, q_blk, _ = kkt_blocks(h_inv, active)
    vec = config.inactive_subgradient(cs)
    if rho >= RHO_FLOOR:
        vec = model.gradient(beta) / rho + vec
    r_z = -(q_blk.T @ vec)
    return ActiveCoefficients(
        r_z[:n_act_eq], r_z[n_act_eq:], config.zero_eq, config.zero_ineq
    )


def stationarity_residual(model, cs, config, beta, rho):
    """Normalized violation of the subgradient stationarity condition.

    Returns ||grad f + rho (u + U_Z^T r_Z)||_inf / (1 + ||grad f||_inf)
    with r_Z chosen by the active-coefficient formula; on the exact path
    this is zero up to integration error.
    """
    grad = model.gradient(beta)
    pull = config.inactive_subgradient(cs)
    active = config.active_rows(cs)
    if active.shape[0]:
        coef = active_coefficients(model, cs, config, beta, rho)
        pull = pull + active.T @ coef.r_z
    res = grad + rho * pull
    return np.abs(res).max() / (1.0 + np.abs(grad).max())


# ---------------------------------------------------------------------------
# Path containers.

@dataclass
class PathOptions:
    """Knobs for run_path; defaults reproduce the forward direct solver."""

    mode: str = "direct"
    direction: str = "forward"
    rho_max: float = DEFAULT_RHO_MAX
    rho_min: float = 0.0
    rho_start: Optional[float] = None
    start_beta: Optional[np.ndarray] = None
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    event_tol: float = 1e-9
    residual_tol: Optional[float] = None
    beta_bound: float = DEFAULT_BETA_BOUND
    max_kinks: int = 1000
    max_step: Optional[float] = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.direction not in ("forward", "backward"):
            raise ValueError(f"unknown direction {self.direction!r}")
        if not 0 <= self.rho_min < self.rho_max:
            raise ValueError("need 0 <= rho_min < rho_max")
        for name in ("rel_tol", "abs_tol", "event_tol", "beta_bound"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.max_kinks < 1:
            raise ValueError("max_kinks must be at least 1")


@dataclass(frozen=True)
class Kink:
    """One set-membership change along the path."""

    rho: float
    row_kind: str
    index: int
    from_set: str
    to_set: str
    boundary: Optional[float]
    df_after: int

    @property
    def kind(self):
        if self.to_set in ("zero_eq", "zero_ineq"):
            return "residual_hit"
        return "coefficient_hit"


class _SegmentTrace:
    """Dense trajectory of one segment, possibly integrated in chunks."""

    def __init__(self):
        self.results = []

    def add(self, result):
        if result.steps:
            self.results.append(result)

    @property
    def empty(self):
        return not self.results

    def interpolate(self, t):
        for result in self.results:
            lo, hi = sorted((result.steps[0].t_start, result.steps[-1].t_end))
            if lo - 1e-9 <= t <= hi + 1e-9:
                return result.interpolate(t)
        raise ValueError(f"t={t} outside the segment trace")


class _LinearSegment:
    """Closed form of one segment of a constant-Hessian path.

    beta(rho) = beta0 + (rho - rho0) d, and the active coefficients (eq
    rows first) are r_Z(rho) = a + c / rho, or their rho -> 0 limit a
    below RHO_FLOOR.  Stands in for the ODE engine's dense trace
    (interpolate) and coefficient evaluator (coefficients).
    """

    empty = False

    def __init__(self, rho0, beta0, d, a, c, t_sign, n_act_eq):
        self.rho0 = rho0
        self.beta0 = beta0
        self.d = d
        self.a = a
        self.c = c
        self.t_sign = t_sign
        self.n_act_eq = n_act_eq

    def beta(self, rho):
        return self.beta0 + (rho - self.rho0) * self.d

    def r_z(self, rho):
        return self.a if rho < RHO_FLOOR else self.a + self.c / rho

    def interpolate(self, t):
        return self.beta(self.t_sign * t)

    def coefficients(self, t, y):
        r_z = self.r_z(self.t_sign * t)
        return r_z[: self.n_act_eq], r_z[self.n_act_eq :]


@dataclass
class PathSegment:
    """One smooth piece of the path between consecutive kinks.

    rho_start / rho_end are in traversal order, so rho_start > rho_end on
    backward runs.  termination describes why the segment ended:
    "residual_hit(...)", "coefficient_hit(...)", "terminated", "rho_max",
    or "rho_min".
    """

    rho_start: float
    rho_end: float
    config: SetConfiguration
    beta_start: np.ndarray
    beta_end: np.ndarray
    termination: str
    _dim: int = 0
    _t_sign: float = 1.0
    _trace: object = None  # _SegmentTrace (ODE engine) or _LinearSegment (exact)
    _coef_eval: Optional[Callable] = None
    _model: object = None
    _cs: object = None

    @property
    def rho_span(self):
        return abs(self.rho_end - self.rho_start)

    def contains(self, rho, slack=1e-9):
        lo, hi = sorted((self.rho_start, self.rho_end))
        pad = slack * (1.0 + abs(rho))
        return lo - pad <= rho <= hi + pad

    def state_at(self, rho):
        if not self.contains(rho):
            raise ValueError(f"rho={rho} outside segment [{self.rho_start}, {self.rho_end}]")
        if self._trace is None or self._trace.empty:
            return self.beta_start.copy()
        lo, hi = sorted((self._t_sign * self.rho_start, self._t_sign * self.rho_end))
        return self._trace.interpolate(min(max(self._t_sign * rho, lo), hi))

    def beta_at(self, rho):
        """Solution on this segment: the exact line or the ODE dense output."""
        return self.state_at(rho)[: self._dim]

    def coefficients_at(self, rho):
        """Active subgradient coefficients at a point of this segment."""
        if self._coef_eval is not None and self._trace is not None and not self._trace.empty:
            s, t = self._coef_eval(self._t_sign * rho, self.state_at(rho))
            return ActiveCoefficients(
                np.asarray(s, dtype=float).copy(),
                np.asarray(t, dtype=float).copy(),
                self.config.zero_eq,
                self.config.zero_ineq,
            )
        return active_coefficients(self._model, self._cs, self.config, self.beta_at(rho), rho)


@dataclass
class PathSolution:
    """Completed path: ordered segments, kink records, and lookups."""

    segments: list
    kinks: list
    status: str
    mode: str
    direction: str
    warnings: list
    model: object
    constraints: object
    options: PathOptions

    @property
    def p(self):
        return self.constraints.dim

    @property
    def rho_end(self):
        return self.segments[-1].rho_end

    @property
    def terminal_beta(self):
        return self.segments[-1].beta_end.copy()

    def _segment_for(self, rho):
        for seg in self.segments:
            if seg.contains(rho):
                return seg
        # Past the far end the solution is a fixed point of the dynamics
        # whenever the boundary configuration is terminal.
        last = self.segments[-1]
        first = self.segments[0]
        if self.direction == "forward":
            if self.status == "terminated" and rho >= last.rho_end:
                return last
        elif rho >= first.rho_start and first.config.is_terminal:
            return first
        raise ValueError(f"rho={rho} outside the computed path")

    def beta_at(self, rho):
        """Solution at any rho covered by (or fixed beyond) the path."""
        seg = self._segment_for(rho)
        if not seg.contains(rho):
            return (seg.beta_end if self.direction == "forward" else seg.beta_start).copy()
        return seg.beta_at(rho)

    def config_at(self, rho):
        return self._segment_for(rho).config

    def df_at(self, rho):
        return degrees_of_freedom(self.config_at(rho), self.p)

    def coefficients_at(self, rho):
        seg = self._segment_for(rho)
        if seg.contains(rho):
            return seg.coefficients_at(rho)
        # Extension range: beta is frozen but the coefficients still decay
        # with rho, so evaluate the formula directly.
        beta = (seg.beta_end if self.direction == "forward" else seg.beta_start).copy()
        return active_coefficients(self.model, self.constraints, seg.config, beta, rho)

    def rho_grid(self, per_segment=20):
        """Ascending sample grid: segment endpoints plus interior points."""
        points = []
        for seg in self.segments:
            lo, hi = sorted((seg.rho_start, seg.rho_end))
            if seg.rho_span == 0.0:
                points.append(lo)
            else:
                points.extend(np.linspace(lo, hi, per_segment + 1))
        return np.unique(np.asarray(points, dtype=float))


# ---------------------------------------------------------------------------
# Segment contexts: one per segment formulation, shared by both engines.

@dataclass(frozen=True)
class _EventInfo:
    kind: str                    # "residual", "coefficient", or "guard"
    row_kind: str
    index: int
    boundary: Optional[float]
    to_set: str

    @property
    def key(self):
        # Deterministic processing order inside an event cluster.
        return (0 if self.row_kind == "eq" else 1, self.index, self.boundary or 0.0)

    def describe(self):
        if self.kind == "residual":
            return f"residual_hit({self.row_kind}[{self.index}])"
        return f"coefficient_hit({self.row_kind}[{self.index}], boundary={self.boundary:g})"


class _SegmentContext:
    """Shared per-segment state: subgradient direction, caches, splits."""

    def __init__(self, runner, config, beta0):
        self.model = runner.model
        self.cs = runner.cs
        self.config = config
        self.p = runner.p
        self.t_sign = runner.t_sign
        self.u = config.inactive_subgradient(runner.cs)
        self.active = config.active_rows(runner.cs)
        self.n_act_eq = len(config.zero_eq)
        self.state0 = np.asarray(beta0, dtype=float).copy()
        self._cache = {}

    def rho_of(self, t):
        return t * self.t_sign

    def coefficients(self, t, y):
        # All event evaluations at one t share the same dense-output state,
        # so float t is a safe cache key within a segment.
        key = float(t)
        got = self._cache.get(key)
        if got is None:
            got = self._coefficients(t, np.asarray(y, dtype=float))
            self._cache[key] = got
        return got

    def _split(self, r_z):
        return r_z[: self.n_act_eq], r_z[self.n_act_eq :]

    def _gradient_vector(self, t, beta):
        rho = self.rho_of(t)
        if rho < RHO_FLOOR:
            return self.u
        return self.model.gradient(beta) / rho + self.u


class _DirectContext(_SegmentContext):
    def __init__(self, runner, config, beta0):
        super().__init__(runner, config, beta0)
        # A constant Hessian's inverse comes from the runner, and the KKT
        # blocks built from it serve every evaluation on the segment.
        self.h_inv = runner.h_inv
        self._blocks = None

    def _kkt(self, beta):
        if self.h_inv is None:
            return kkt_blocks(_hessian_inverse(self.model, beta), self.active)
        if self._blocks is None:
            self._blocks = kkt_blocks(self.h_inv, self.active)
        return self._blocks

    def rhs(self, t, y):
        p_blk, _, _ = self._kkt(y)
        return self.t_sign * -(p_blk @ self.u)

    def coefficient_map(self, y, vec):
        """r_Z for vec = grad f / rho + u (or for each column of vec)."""
        _, q_blk, _ = self._kkt(y[: self.p])
        return -(q_blk.T @ vec)

    def _coefficients(self, t, y):
        beta = y[: self.p]
        return self._split(self.coefficient_map(beta, self._gradient_vector(t, beta)))


class _NullspaceContext(_SegmentContext):
    def __init__(self, runner, config, beta0):
        super().__init__(runner, config, beta0)
        self.basis = null_basis(self.active, self.p).basis

    def rhs(self, t, y):
        y_b = self.basis
        if y_b.shape[1] == 0:
            return np.zeros(self.p)
        return self.t_sign * _reduced_direction(self.model.hessian(y), y_b, self.u)

    def coefficient_map(self, y, vec):
        return np.linalg.lstsq(self.active.T, -vec, rcond=None)[0]

    def _coefficients(self, t, y):
        if self.active.shape[0] == 0:
            return np.zeros(0), np.zeros(0)
        beta = y[: self.p]
        return self._split(self.coefficient_map(y, self._gradient_vector(t, beta)))


class _TableauContext(_SegmentContext):
    def __init__(self, runner, config, beta0):
        super().__init__(runner, config, beta0)
        tab = runner.tableau
        self.dim_full = tab.matrix.shape[0]
        self.act_pos = self.p + tab.active_indices
        self.inact_pos = self.p + np.flatnonzero(~tab.swept)
        rbar_full = config.subgradient_signs(runner.cs.n_eq, runner.cs.n_ineq)
        self.rbar = rbar_full[np.flatnonzero(~tab.swept)]
        self.state0 = np.concatenate([self.state0, tab.matrix.ravel()])
        self._template = tab

    def _unpack(self, y):
        beta = y[: self.p]
        s_mat = y[self.p :].reshape(self.dim_full, self.dim_full)
        return beta, 0.5 * (s_mat + s_mat.T)

    def rhs(self, t, y):
        beta, s_mat = self._unpack(np.asarray(y, dtype=float))
        cols = s_mat[: self.p, self.inact_pos]
        beta_dot = -(cols @ self.rbar)
        g_dot = self.model.dhessian(beta, beta_dot)
        c_mat = s_mat[:, : self.p]
        ds = -(c_mat @ g_dot @ c_mat.T)
        return self.t_sign * np.concatenate([beta_dot, ds.ravel()])

    def _coefficients(self, t, y):
        beta, s_mat = self._unpack(y)
        u_part = s_mat[np.ix_(self.act_pos, self.inact_pos)] @ self.rbar
        rho = self.rho_of(t)
        r_z = -u_part
        if rho >= RHO_FLOOR:
            r_z = r_z - s_mat[self.act_pos, : self.p] @ (self.model.gradient(beta) / rho)
        return self._split(r_z)

    def coefficient_map(self, y, vec):
        # The border column of an inactive row j stays S[:, :p] @ w_j under
        # sweeps on constraint positions, so S[act, inact] rbar = S[act, :p] u.
        _, s_mat = self._unpack(y)
        return -(s_mat[self.act_pos, : self.p] @ vec)

    def final_tableau(self, state):
        _, s_mat = self._unpack(state)
        return self._template.with_matrix(s_mat)


# ---------------------------------------------------------------------------
# The runner.

class _PathRunner:
    def __init__(self, model, cs, opts):
        self.model = model
        self.cs = cs
        self.opts = opts
        self.p = cs.dim
        self.mode = opts.mode
        self.forward = opts.direction == "forward"
        self.t_sign = 1.0 if self.forward else -1.0
        offsets_scale = 0.0
        if cs.n_eq:
            offsets_scale += np.abs(cs.d).max()
        if cs.n_ineq:
            offsets_scale += np.abs(cs.e).max()
        self.residual_tol = (
            opts.residual_tol
            if opts.residual_tol is not None
            else 1e-8 * (1.0 + offsets_scale)
        )
        # Constant-Hessian losses follow the exact engine; their Hessian
        # (and, for the direct and tableau modes, its inverse) is computed
        # once per path.
        self.exact = model.constant_hessian
        self.hessian = None
        self.h_inv = None
        self.tableau = None
        self.segments = []
        self.kinks = []
        self.warnings = []
        self._squeeze = 0
        self._squeeze_cap = 4 * (cs.n_eq + cs.n_ineq) + 8

    # -- setup ------------------------------------------------------------

    def _start(self):
        if self.forward:
            self.beta = unconstrained_minimum(self.model)
            self.rho = 0.0
        else:
            self.beta, self.rho = self._backward_start()
        if self.exact:
            self.hessian = self.model.hessian(self.beta)
        self.cfg = classify(
            self.cs.eq_residuals(self.beta),
            self.cs.ineq_residuals(self.beta),
            self.residual_tol,
        )

    def _backward_start(self):
        opts = self.opts
        if opts.start_beta is not None:
            if opts.rho_start is None:
                raise ValueError("start_beta requires an explicit rho_start")
            return np.asarray(opts.start_beta, dtype=float).copy(), float(opts.rho_start)
        if self.cs.n_ineq:
            raise ValueError(
                "automatic backward start handles equality-only systems; "
                "supply start_beta and rho_start"
            )
        beta = _constrained_minimum(self.model, self.cs.v_mat, self.cs.d)
        lam = np.linalg.lstsq(self.cs.v_mat.T, -self.model.gradient(beta), rcond=None)[0]
        lam_max = np.abs(lam).max() if lam.size else 0.0
        rho = opts.rho_start if opts.rho_start is not None else 1.1 * max(lam_max, 1e-10)
        if lam_max >= rho:
            raise ValueError(
                f"rho_start={rho:g} is not above the largest multiplier {lam_max:g}; "
                "the supplied start is not the solution there"
            )
        return beta, float(rho)

    # -- main loop ----------------------------------------------------------

    def run(self):
        self._start()
        status = None
        while status is None:
            if self.forward and self.cfg.is_terminal:
                status = "terminated"
            elif self.forward and self.rho >= self.opts.rho_max * (1.0 - 1e-15):
                status = "rho_max"
            elif not self.forward and self.rho <= self.opts.rho_min + RHO_FLOOR:
                status = "rho_min"
            else:
                if len(self.kinks) >= self.opts.max_kinks:
                    raise NoConvergence(
                        f"path exceeded max_kinks={self.opts.max_kinks} at rho={self.rho:g}"
                    )
                self._advance()
        if not self.segments or self.segments[-1].config is not self.cfg:
            self._record_point_segment(None, status)
        return PathSolution(
            segments=self.segments,
            kinks=self.kinks,
            status=status,
            mode=self.mode,
            direction=self.opts.direction,
            warnings=self.warnings,
            model=self.model,
            constraints=self.cs,
            options=self.opts,
        )

    def _advance(self):
        if self.exact:
            self._advance_exact()
        else:
            self._advance_ode()

    def _advance_ode(self):
        try:
            ctx = self._context()
            events, infos = self._events(ctx)
            crossed = self._already_crossed(ctx, events, infos)
        except NotStrictlyConvex:
            self._switch_to_nullspace()
            return
        if crossed is not None:
            self._kink_in_place(ctx, crossed)
            return
        try:
            trace, result = self._integrate_chunked(ctx, events)
        except NotStrictlyConvex:
            self._switch_to_nullspace()
            return
        self._absorb(ctx, trace, result, infos)

    def _advance_exact(self):
        try:
            ctx = self._context()
            line = self._line(ctx)
        except NotStrictlyConvex:
            self._switch_to_nullspace()
            return
        start, times, codes, rows, t_guard = self._exact_events(ctx, line)
        beyond = np.flatnonzero(start < -self.opts.event_tol)
        infos = (_exact_info(codes[j], rows[j]) for j in beyond)
        crossed = [info for info in infos if not self._undoes_last_kink(info)]
        if crossed:
            self._kink_in_place(ctx, self._first(crossed, self.rho))
            return
        t_max = self._t_max()
        t_event = times.min(initial=np.inf)
        if t_guard < t_event and t_guard <= t_max:
            self._diverged(self.t_sign * t_guard)
        info = None
        if t_event <= t_max:
            cluster = np.flatnonzero(times - t_event <= EVENT_CLUSTER_TOL)
            rho_b = float(self.t_sign * t_event)
            info = self._first([_exact_info(codes[j], rows[j]) for j in cluster], rho_b)
        else:
            rho_b = float(self.t_sign * t_max)
        self._close(ctx, line, line.coefficients, rho_b, line.beta(rho_b), info)

    def _context(self):
        if self.exact and self.mode != "nullspace" and self.h_inv is None:
            self.h_inv = _hessian_inverse(self.model, self.beta)
        if self.mode == "direct":
            return _DirectContext(self, self.cfg, self.beta)
        if self.mode == "nullspace":
            return _NullspaceContext(self, self.cfg, self.beta)
        if self.tableau is None:
            h_inv = self.h_inv if self.exact else _hessian_inverse(self.model, self.beta)
            rows, _ = self.cs.stacked()
            tab = SweepTableau(h_inv, rows)
            for g in self.cfg.active_global(self.cs.n_eq):
                tab = tab.sweep_constraint(g, True)
            self.tableau = tab
        return _TableauContext(self, self.cfg, self.beta)

    def _switch_to_nullspace(self):
        if self.mode == "nullspace":
            raise NotStrictlyConvex(
                "Hessian not positive definite and nullspace mode already active"
            )
        msg = (
            f"Hessian lost strict positive definiteness at rho={self.rho:.6g}; "
            "continuing in nullspace mode"
        )
        self.mode = "nullspace"
        self.tableau = None
        self.warnings.append(msg)
        _pywarnings.warn(msg)

    # -- events -------------------------------------------------------------

    def _events(self, ctx):
        p = self.p
        cs = self.cs
        cfg = ctx.config
        events, infos = [], []

        def add(fn, info):
            events.append(EventSpec(fn))
            infos.append(info)

        def residual(mat, offs, index, sign):
            row, off = mat[index], offs[index]
            return lambda t, y, row=row, off=off, sign=sign: sign * (row @ y[:p] - off)

        for i in cfg.neg_eq:
            add(residual(cs.v_mat, cs.d, i, -1.0), _EventInfo("residual", "eq", i, None, "zero_eq"))
        for i in cfg.pos_eq:
            add(residual(cs.v_mat, cs.d, i, 1.0), _EventInfo("residual", "eq", i, None, "zero_eq"))
        for j in cfg.neg_ineq:
            add(residual(cs.w_mat, cs.e, j, -1.0), _EventInfo("residual", "ineq", j, None, "zero_ineq"))
        for j in cfg.pos_ineq:
            add(residual(cs.w_mat, cs.e, j, 1.0), _EventInfo("residual", "ineq", j, None, "zero_ineq"))
        for pos, i in enumerate(cfg.zero_eq):
            add(
                lambda t, y, k=pos: 1.0 - ctx.coefficients(t, y)[0][k],
                _EventInfo("coefficient", "eq", i, 1.0, "pos_eq"),
            )
            add(
                lambda t, y, k=pos: 1.0 + ctx.coefficients(t, y)[0][k],
                _EventInfo("coefficient", "eq", i, -1.0, "neg_eq"),
            )
        for pos, j in enumerate(cfg.zero_ineq):
            add(
                lambda t, y, k=pos: 1.0 - ctx.coefficients(t, y)[1][k],
                _EventInfo("coefficient", "ineq", j, 1.0, "pos_ineq"),
            )
            add(
                lambda t, y, k=pos: ctx.coefficients(t, y)[1][k],
                _EventInfo("coefficient", "ineq", j, 0.0, "neg_ineq"),
            )
        bound = self.opts.beta_bound
        add(
            lambda t, y: bound - np.abs(y[:p]).max(),
            _EventInfo("guard", "", -1, None, ""),
        )
        return events, infos

    def _already_crossed(self, ctx, events, infos):
        # After a kink (or a misclassified start) some event functions can
        # begin beyond their boundary; such rows are moved immediately via
        # zero-length segments instead of integrating.
        t0 = self.t_sign * self.rho
        tol = self.opts.event_tol
        hit = []
        for ev, info in zip(events, infos):
            value = ev.func(t0, ctx.state0)
            if info.kind == "guard":
                if value < 0.0:
                    raise PathDivergence(
                        f"|beta| exceeds beta_bound={self.opts.beta_bound:g} at rho={self.rho:g}"
                    )
                continue
            if value < -tol and not self._undoes_last_kink(info):
                hit.append(info)
        if not hit:
            return None
        return self._first(hit, self.rho)

    def _undoes_last_kink(self, info):
        # Event location error can leave a freshly moved row a few 1e-9
        # beyond its boundary in the set it just left (a residual hit whose
        # entry coefficient computes slightly outside [-1, 1], or the
        # mirror case).  Bouncing it straight back deadlocks, and a genuine
        # reversal cannot happen at the same rho, so the inverse move is
        # suppressed; the armed-beyond-boundary event cannot re-fire until
        # its value returns through the boundary, and the dynamics pull it
        # inside.
        if not self.kinks:
            return False
        last = self.kinks[-1]
        return (
            last.row_kind == info.row_kind
            and last.index == info.index
            and info.to_set == last.from_set
            and abs(self.rho - last.rho) <= EVENT_CLUSTER_TOL * (1.0 + abs(self.rho))
        )

    # -- integration ----------------------------------------------------------

    def _line(self, ctx):
        """Closed form of the exact-engine segment starting at the current point.

        One rhs evaluation gives the constant dbeta/drho = d.  Along the
        segment grad f = g_lin + rho H d, so the coefficient map, applied
        once to the two columns [H d + u, g_lin], gives r_Z = a + c / rho.
        """
        rho0 = self.rho
        d = self.t_sign * ctx.rhs(self.t_sign * rho0, ctx.state0)[: self.p]
        a = c = np.zeros(0)
        if ctx.active.shape[0]:
            h_d = self.hessian @ d
            # At a forward start grad f vanishes up to Newton's rounding;
            # dropping it keeps that noise out of c / rho at tiny rho.
            g_lin = np.zeros(self.p)
            if rho0 >= RHO_FLOOR:
                g_lin = self.model.gradient(self.beta) - rho0 * h_d
            a, c = ctx.coefficient_map(ctx.state0, np.column_stack([h_d + ctx.u, g_lin])).T
        return _LinearSegment(rho0, self.beta.copy(), d, a, c, self.t_sign, ctx.n_act_eq)

    def _exact_events(self, ctx, line):
        """Every event of a linear segment in closed form.

        Returns each event's value at the segment start and its firing
        time t (inf if it never fires), the type codes and row indices
        that _exact_info turns into event records, and the time at which
        |beta| reaches beta_bound.  The firing rules are those of
        odeint.integrate: an event starting within event_tol of zero is
        armed only in its crossing direction and fires at -event_tol, no
        earlier than the dead band; one starting beyond its boundary never
        fires, because every event function here is monotone in rho.
        Raises PathDivergence when the start is already outside beta_bound.
        """
        cs, cfg, tol = self.cs, ctx.config, self.opts.event_tol
        rho0, t_sign = line.rho0, self.t_sign
        t0 = t_sign * rho0
        t_max = self._t_max()
        bound = self.opts.beta_bound
        if bound - np.abs(line.beta0).max() < 0.0:
            raise PathDivergence(
                f"|beta| exceeds beta_bound={bound:g} at rho={self.rho:g}"
            )

        # Residual events g = sign * (row beta - offset), linear in rho.
        starts, slopes, codes, rows = [], [], [], []
        ends = np.column_stack([line.beta0, line.d])
        for code, (mat, offsets, neg, pos) in enumerate((
            (cs.v_mat, cs.d, cfg.neg_eq, cfg.pos_eq),
            (cs.w_mat, cs.e, cfg.neg_ineq, cfg.pos_ineq),
        )):
            idx = np.array(neg + pos, dtype=int)
            sign = np.repeat([-1.0, 1.0], [len(neg), len(pos)])
            values = mat[idx] @ ends
            starts.append(sign * (values[:, 0] - offsets[idx]))
            slopes.append(sign * values[:, 1])
            codes.append(np.full(idx.size, code))
            rows.append(idx)
        slope = np.concatenate(slopes)
        n_res = slope.size

        # Coefficient events g = sign * (r_Z - boundary) = alpha + beta / rho,
        # with sign -1 at an upper boundary and +1 at a lower one.
        r_start = line.r_z(rho0)
        alphas, betas = [], []
        for code in range(2, len(_EXACT_EVENT_TYPES)):
            _, row_kind, boundary, to_set = _EXACT_EVENT_TYPES[code]
            sign = -1.0 if to_set.startswith("pos") else 1.0
            eq = row_kind == "eq"
            part = slice(0, ctx.n_act_eq) if eq else slice(ctx.n_act_eq, None)
            alphas.append(sign * (line.a[part] - boundary))
            betas.append(sign * line.c[part])
            starts.append(sign * (r_start[part] - boundary))
            idx = np.array(cfg.zero_eq if eq else cfg.zero_ineq, dtype=int)
            codes.append(np.full(idx.size, code))
            rows.append(idx)
        alpha, beta_c = np.concatenate(alphas), np.concatenate(betas)

        start = np.concatenate(starts)
        g_res = start[:n_res]

        def falls_to(level):
            # A residual event falls in t where t_sign * slope < 0, and
            # alpha + beta / rho where t_sign * beta > 0.
            level_res, level_coef = level[:n_res], level[n_res:]
            with np.errstate(divide="ignore", invalid="ignore"):
                t_res = t0 + t_sign * (level_res - g_res) / slope
                t_res[t_sign * slope >= 0.0] = np.inf
                rho_c = beta_c / (level_coef - alpha)
                t_coef = np.maximum(t_sign * rho_c, t0)
                t_coef[~((t_sign * beta_c > 0.0) & (rho_c > 0.0))] = np.inf
            return np.concatenate([t_res, t_coef])

        times = _firing_times(start, falls_to, tol, t0, t_max)
        dt = t_sign * line.d
        moving = dt != 0.0
        t_guard = np.inf
        if moving.any():
            reach = (np.sign(dt[moving]) * bound - line.beta0[moving]) / dt[moving]
            t_guard = t0 + reach.min()
        return start, times, np.concatenate(codes), np.concatenate(rows), t_guard

    def _t_max(self):
        return self.t_sign * (self.opts.rho_max if self.forward else self.opts.rho_min)

    def _chunk_end(self, t, t_max):
        # Geometric chunks keep the integrator's default step cap
        # proportional to the current rho, which is the natural curvature
        # scale of the 1/rho coefficient terms.
        grow = t * 8.0 if t > 0 else t / 8.0
        return min(t_max, max(t + 1.0, grow))

    def _integrate_chunked(self, ctx, events):
        opts = self.opts
        t = self.t_sign * self.rho
        t_max = self._t_max()
        y = ctx.state0
        trace = _SegmentTrace()
        while True:
            t_hi = self._chunk_end(t, t_max)
            result = integrate(
                ctx.rhs,
                t,
                t_hi,
                y,
                events,
                rel_tol=opts.rel_tol,
                abs_tol=opts.abs_tol,
                event_tol=opts.event_tol,
                max_step=opts.max_step,
            )
            trace.add(result)
            if result.status == "event" or t_hi >= t_max:
                return trace, result
            t, y = result.t_end, result.y_end

    def _absorb(self, ctx, trace, result, infos):
        if result.status == "reached_t_max":
            rho_b = self.t_sign * result.t_end
            self._close(ctx, trace, ctx.coefficients, rho_b, result.y_end, None)
            return
        if infos[result.event_index].kind == "guard":
            self._diverged(self.t_sign * result.t_event)
        cluster = [
            infos[j]
            for j, t_j in result.step_events
            if abs(t_j - result.t_event) <= EVENT_CLUSTER_TOL and infos[j].kind != "guard"
        ]
        rho_b = self.t_sign * result.t_event
        info = self._first(cluster, rho_b)
        self._close(ctx, trace, ctx.coefficients, rho_b, result.y_event, info)

    def _diverged(self, rho):
        raise PathDivergence(
            f"|beta| exceeded beta_bound={self.opts.beta_bound:g} "
            f"at rho={rho:g}; the penalized objective may lose coercivity"
        )

    def _close(self, ctx, trace, coef_eval, rho_b, state_b, info):
        """Record the segment ending at rho_b, then apply its kink (if any)."""
        rho_a = self.rho
        if info is None:
            termination = "rho_max" if self.forward else "rho_min"
        else:
            termination = info.describe()
        self._record_segment(ctx, trace, coef_eval, rho_a, rho_b, state_b, termination)
        self._finish_state(ctx, rho_b, state_b)
        self._count_squeeze(abs(rho_b - rho_a))
        if info is not None:
            self._apply_kink(info, rho_b)

    def _kink_in_place(self, ctx, info):
        """Move a row that starts beyond its boundary via a zero-length segment."""
        self._record_point_segment(ctx, info.describe())
        self._count_squeeze(0.0)
        self._apply_kink(info, self.rho)

    def _first(self, infos, rho):
        """The event of a simultaneous cluster that is processed first."""
        if len(infos) > 1:
            self._note_cluster(rho, len(infos))
        return min(infos, key=lambda info: info.key)

    def _finish_state(self, ctx, rho, state):
        self.rho = rho
        self.beta = np.asarray(state[: self.p], dtype=float).copy()
        # An exact segment leaves the tableau unchanged (dS/drho = 0).
        if self.mode == "tableau" and not self.exact:
            self.tableau = ctx.final_tableau(np.asarray(state, dtype=float))

    def _count_squeeze(self, span):
        if span <= EVENT_CLUSTER_TOL:
            self._squeeze += 1
            if self._squeeze > self._squeeze_cap:
                raise PenPathError(
                    f"events are cycling without progress at rho={self.rho:g}"
                )
        else:
            self._squeeze = 0

    # -- bookkeeping ----------------------------------------------------------

    def _record_segment(self, ctx, trace, coef_eval, rho_a, rho_b, state_b, termination):
        self.segments.append(
            PathSegment(
                rho_start=rho_a,
                rho_end=rho_b,
                config=ctx.config,
                beta_start=self.beta.copy(),
                beta_end=np.asarray(state_b[: self.p], dtype=float).copy(),
                termination=termination,
                _dim=self.p,
                _t_sign=self.t_sign,
                _trace=trace,
                _coef_eval=coef_eval,
                _model=self.model,
                _cs=self.cs,
            )
        )

    def _record_point_segment(self, ctx, termination):
        coef_eval = ctx.coefficients if ctx is not None else None
        self.segments.append(
            PathSegment(
                rho_start=self.rho,
                rho_end=self.rho,
                config=self.cfg,
                beta_start=self.beta.copy(),
                beta_end=self.beta.copy(),
                termination=termination,
                _dim=self.p,
                _t_sign=self.t_sign,
                _trace=None,
                _coef_eval=coef_eval,
                _model=self.model,
                _cs=self.cs,
            )
        )

    def _apply_kink(self, info, rho):
        from_set = self.cfg.locate(info.row_kind, info.index)
        new_cfg = self.cfg.move(info.row_kind, info.index, info.to_set)
        if self.mode == "tableau" and self.tableau is not None:
            g = info.index if info.row_kind == "eq" else self.cs.n_eq + info.index
            activate = info.to_set in ("zero_eq", "zero_ineq")
            self.tableau = self.tableau.sweep_constraint(g, activate)
        self.cfg = new_cfg
        self.kinks.append(
            Kink(
                rho=rho,
                row_kind=info.row_kind,
                index=info.index,
                from_set=from_set,
                to_set=info.to_set,
                boundary=info.boundary,
                df_after=degrees_of_freedom(new_cfg, self.p),
            )
        )

    def _note_cluster(self, rho, count):
        msg = (
            f"{count} events within {EVENT_CLUSTER_TOL:g} of rho={rho:.9g}; "
            "processing one at a time"
        )
        self.warnings.append(msg)
        _pywarnings.warn(msg, SimultaneousEventWarning)


def _firing_times(start, falls_to, tol, t0, t_max):
    """Firing times of monotone event functions under odeint.integrate's rules.

    `start` holds the functions' values at t0, and falls_to(level) the
    times after t0 at which each one falls to its entry of `level` (inf if
    it never does).  A function above tol fires where it reaches zero.  One
    within tol of zero is disarmed: it fires where it passes -tol, no
    earlier than the dead band after t0.  One below -tol never fires,
    because it would have to rise back through zero first.
    """
    armed = np.abs(start) > tol
    level = np.where(armed, 0.0, -tol)
    times = falls_to(level)
    times[start < level] = np.inf
    dead_band_end = min(t0 + DEAD_BAND * (1.0 + abs(t0)), t_max)
    times[~armed] = np.maximum(times[~armed], dead_band_end)
    return times


# Event types of the exact engine, by code: (kind, row_kind, boundary, to_set).
_EXACT_EVENT_TYPES = (
    ("residual", "eq", None, "zero_eq"),
    ("residual", "ineq", None, "zero_ineq"),
    ("coefficient", "eq", 1.0, "pos_eq"),
    ("coefficient", "eq", -1.0, "neg_eq"),
    ("coefficient", "ineq", 1.0, "pos_ineq"),
    ("coefficient", "ineq", 0.0, "neg_ineq"),
)


def _exact_info(code, index):
    kind, row_kind, boundary, to_set = _EXACT_EVENT_TYPES[code]
    return _EventInfo(kind, row_kind, int(index), boundary, to_set)


def _constrained_minimum(model, v_mat, d):
    """Minimize f subject to V beta = d by Newton in the null space of V."""
    part = np.linalg.lstsq(v_mat, d, rcond=None)[0]
    basis = null_basis(v_mat, v_mat.shape[1]).basis
    if basis.shape[1] == 0:
        return part
    value = lambda z: model.value(part + basis @ z)
    gradient = lambda z: basis.T @ model.gradient(part + basis @ z)
    hessian = lambda z: basis.T @ model.hessian(part + basis @ z) @ basis
    z = minimize_smooth(value, gradient, hessian, np.zeros(basis.shape[1]))
    return part + basis @ z


def run_path(model, cs, options=None, **overrides):
    """Trace the full solution path of the penalized objective.

    Parameters
    ----------
    model : LossModel
        Smooth convex loss supplying value/gradient/hessian/dhessian.
    cs : ConstraintSystem
        Equality and inequality penalty rows.
    options : PathOptions, optional
        Full option set; alternatively pass individual fields as keyword
        arguments (mode="tableau", direction="backward", ...).

    Returns
    -------
    PathSolution
        Ordered segments with dense interpolants, kink records with
        degrees of freedom, the final status ("terminated", "rho_max", or
        "rho_min"), and any warnings recorded along the way.
    """
    if options is None:
        options = PathOptions(**overrides)
    elif overrides:
        raise TypeError("pass either options or keyword overrides, not both")
    if model.dim != cs.dim:
        raise ValueError("constraint system dimension does not match the loss")
    return _PathRunner(model, cs, options).run()
