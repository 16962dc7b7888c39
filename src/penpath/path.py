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

Two segment engines, chosen by the loss's constant_hessian attribute, read
one event table per segment: each inactive row's signed residual, which
fires on reaching zero, and each active row's subgradient coefficient,
which fires on reaching a boundary.  For a constant Hessian (quadratic
losses, the normal GLM) dbeta/drho = -P u is constant between kinks, so
beta is linear in rho and the active coefficients are affine in 1/rho: the
exact engine finds every event in closed form from the table's start
values and slopes, with no integration step.  Every other loss follows the
ODE engine, which integrates the segment with adaptive Runge-Kutta steps
and locates the table's events on the dense output.

Two interchangeable segment formulations serve both engines: "direct"
factors the bordered KKT system by Cholesky (once per point in the ODE
engine, shared by the derivative and the coefficient events there; once per
segment from a per-path Hessian factor in the exact one), and "nullspace"
works in the active rows' null space (usable when the Hessian is singular).
Either way the ODE state is beta itself.  Each formulation's context holds
the one coefficient evaluator, r_Z = -Q^T (grad f / rho + u) with
H dbeta/drho in place of grad f / rho below RHO_FLOOR, which the events,
the exact engine's closed form and every lookup on a finished path use.
"""

import math
import warnings as _pywarnings
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

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
from .sweeplin import KKTFactor, null_basis

# Below this rho the coefficient formula switches to its rho -> 0 limit.
RHO_FLOOR = 1e-12
# Events closer than this (in rho) are treated as simultaneous.
EVENT_CLUSTER_TOL = 1e-10
DEFAULT_RHO_MAX = 1e6
DEFAULT_BETA_BOUND = 1e8
MODES = ("direct", "nullspace")

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

    @classmethod
    def of(cls, config, r_z):
        """Split r_Z (eq rows first) of the active rows of config; copies it,
        since evaluators cache their results."""
        r_z = np.array(r_z, dtype=float)
        n_act_eq = len(config.zero_eq)
        return cls(r_z[:n_act_eq], r_z[n_act_eq:], config.zero_eq, config.zero_ineq)

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
        return cho_factor(mat, check_finite=False)
    except np.linalg.LinAlgError:
        raise singular_error(message) from None


def _hessian_factor(h):
    return _factor_hessian(
        h, NotStrictlyConvex, "Hessian is not positive definite at the current point"
    )


def _reduced_direction(hessian, y_b, u):
    """-Y (Y^T H Y)^-1 Y^T u: the path derivative in the null space basis Y."""
    reduced = y_b.T @ hessian @ y_b
    reduced = 0.5 * (reduced + reduced.T)
    factor = _factor_hessian(
        reduced,
        ReducedHessianSingular,
        "Hessian restricted to the active null space is singular",
    )
    # u is a sum of validated constraint rows, so finite.
    return -(y_b @ cho_solve(factor, y_b.T @ u, check_finite=False))


def active_coefficients(model, cs, config, beta, rho):
    """Subgradient coefficients r_Z = -Q^T (grad f / rho + u) (eq rows first)
    in the direct formulation at beta, by the segment contexts' evaluator
    (_SegmentContext.coefficients), which takes the rho -> 0 limit below
    RHO_FLOOR.
    """
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    ctx = _DirectContext(model, cs, config, beta)
    return ActiveCoefficients.of(config, ctx.coefficients(rho, ctx.beta0))


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
    """Dense trajectory of one ODE segment, possibly integrated in chunks,
    with the segment's context for its coefficients."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.results = []

    def add(self, result):
        if result.steps:
            self.results.append(result)

    def interpolate(self, t):
        if not self.results:
            return self.ctx.beta0.copy()
        # Chunks run forward in t one after another, so the first whose
        # padded range holds t is the first that does not end before it.
        i = bisect_left(self.results, t, key=lambda r: r.steps[-1].t_end + 1e-9)
        if i < len(self.results):
            result = self.results[i]
            lo, hi = sorted((result.steps[0].t_start, result.steps[-1].t_end))
            if lo - 1e-9 <= t <= hi + 1e-9:
                return result.interpolate(t)
        raise ValueError(f"t={t} outside the segment trace")

    def coefficients(self, t, beta):
        return self.ctx.coefficients(t, beta)


class _LinearSegment:
    """Closed form of one segment of a constant-Hessian path.

    beta(rho) = beta0 + (rho - rho0) d, and the active coefficients (eq
    rows first) are r_Z(rho) = a + c / rho, or their rho -> 0 limit a
    below RHO_FLOOR.  The exact engine's segment evaluator, in place of
    the ODE engine's trace.
    """

    def __init__(self, rho0, beta0, d, a, c, t_sign):
        self.rho0 = rho0
        self.beta0 = beta0
        self.d = d
        self.a = a
        self.c = c
        self.t_sign = t_sign

    def beta(self, rho):
        return self.beta0 + (rho - self.rho0) * self.d

    def r_z(self, rho):
        return self.a if rho < RHO_FLOOR else self.a + self.c / rho

    def interpolate(self, t):
        return self.beta(self.t_sign * t)

    def coefficients(self, t, beta):
        return self.r_z(self.t_sign * t)


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
    _t_sign: float = 1.0
    # The segment's evaluator, interpolate(t) and coefficients(t, beta) in
    # t = t_sign * rho: a _LinearSegment (exact engine), a _SegmentTrace (ODE
    # engine) or, for a point segment, its context.
    _eval: object = None

    @property
    def rho_span(self):
        return abs(self.rho_end - self.rho_start)

    def contains(self, rho, slack=1e-9):
        lo, hi = sorted((self.rho_start, self.rho_end))
        pad = slack * (1.0 + abs(rho))
        return lo - pad <= rho <= hi + pad

    def beta_at(self, rho):
        """Solution on this segment: the exact line or the ODE dense output."""
        if not self.contains(rho):
            raise ValueError(f"rho={rho} outside segment [{self.rho_start}, {self.rho_end}]")
        lo, hi = sorted((self._t_sign * self.rho_start, self._t_sign * self.rho_end))
        return self._eval.interpolate(min(max(self._t_sign * rho, lo), hi))

    def coefficients_at(self, rho):
        """Active subgradient coefficients at a point of this segment."""
        return self._coefficients(rho, self.beta_at(rho))

    def _coefficients(self, rho, beta):
        r_z = self._eval.coefficients(self._t_sign * rho, beta)
        return ActiveCoefficients.of(self.config, r_z)


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
        # The first segment whose padded range holds rho.  rho_end is monotone
        # in traversal order, so that is the first segment whose padded end is
        # not short of rho (forward) or not above it (backward), and bisection
        # finds it; the keys repeat contains()'s arithmetic.
        pad = 1e-9 * (1.0 + abs(rho))
        segments = self.segments
        if self.direction == "forward":
            i = bisect_left(segments, rho, key=lambda seg: seg.rho_end + pad)
        else:
            i = bisect_left(segments, -rho, key=lambda seg: -(seg.rho_end - pad))
        if i < len(segments) and segments[i].contains(rho):
            return segments[i]
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
        # with rho, by the segment's own formula.
        return seg._coefficients(rho, self.beta_at(rho))

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
# Events: one table per segment, read by both engines.

@dataclass(frozen=True)
class _EventInfo:
    kind: str                    # "residual" or "coefficient"
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


# Event types by code: (kind, row_kind, boundary, to_set).
_EVENT_TYPES = (
    ("residual", "eq", None, "zero_eq"),
    ("residual", "ineq", None, "zero_ineq"),
    ("coefficient", "eq", 1.0, "pos_eq"),
    ("coefficient", "eq", -1.0, "neg_eq"),
    ("coefficient", "ineq", 1.0, "pos_ineq"),
    ("coefficient", "ineq", 0.0, "neg_ineq"),
)


class _EventTable:
    """Every event of one segment, in the layout both engines read.

    Entry j has a type code (an index into _EVENT_TYPES) and a constraint
    row.  The first n_res entries are residual events g = row_j beta -
    offset_j, row and offset signed so that g > 0 while the row keeps its
    sign class.  The others are coefficient events g = sign_j (r_Z[pos_j]
    - boundary_j), where pos_j is the row's position in r_Z (eq rows
    first) and the sign is -1 at an upper boundary and +1 at a lower one.
    An event fires when its g falls through zero.
    """

    def __init__(self, cs, cfg):
        codes, rows, res_rows, res_offsets = [], [], [], []
        for code, (mat, offsets, neg, pos) in enumerate((
            (cs.v_mat, cs.d, cfg.neg_eq, cfg.pos_eq),
            (cs.w_mat, cs.e, cfg.neg_ineq, cfg.pos_ineq),
        )):
            idx = np.array(neg + pos, dtype=int)
            sign = np.repeat([-1.0, 1.0], [len(neg), len(pos)])
            res_rows.append(sign[:, None] * mat[idx])
            res_offsets.append(sign * offsets[idx])
            codes.append(np.full(idx.size, code))
            rows.append(idx)
        self.res_rows = np.vstack(res_rows)
        self.res_offsets = np.concatenate(res_offsets)
        self.n_res = self.res_offsets.size
        positions, signs, bounds = [], [], []
        for code in range(2, len(_EVENT_TYPES)):
            _, row_kind, boundary, to_set = _EVENT_TYPES[code]
            eq = row_kind == "eq"
            idx = np.array(cfg.zero_eq if eq else cfg.zero_ineq, dtype=int)
            positions.append(np.arange(idx.size) + (0 if eq else len(cfg.zero_eq)))
            signs.append(np.full(idx.size, -1.0 if to_set.startswith("pos") else 1.0))
            bounds.append(np.full(idx.size, boundary))
            codes.append(np.full(idx.size, code))
            rows.append(idx)
        self.coef_pos = np.concatenate(positions)
        self.coef_sign = np.concatenate(signs)
        self.coef_bound = np.concatenate(bounds)
        self.codes = np.concatenate(codes)
        self.rows = np.concatenate(rows)
        self.size = self.codes.size

    def info(self, j):
        kind, row_kind, boundary, to_set = _EVENT_TYPES[self.codes[j]]
        return _EventInfo(kind, row_kind, int(self.rows[j]), boundary, to_set)

    def coefficient_values(self, r_z):
        """The coefficient events' g for active coefficients r_z."""
        return self.coef_sign * (r_z[self.coef_pos] - self.coef_bound)

    def event_function(self, j, coefficients):
        """Entry j's g(t, beta) for the ODE engine; coefficients(t, beta)
        gives r_Z."""
        if j < self.n_res:
            row, offset = self.res_rows[j], self.res_offsets[j]
            return lambda t, beta: row @ beta - offset
        k = j - self.n_res
        pos, sign = int(self.coef_pos[k]), float(self.coef_sign[k])
        boundary = float(self.coef_bound[k])
        return lambda t, beta: sign * (coefficients(t, beta)[pos] - boundary)


# ---------------------------------------------------------------------------
# Segment contexts: one per segment formulation, shared by both engines.

class _SegmentContext:
    """Per-segment state of one formulation: the active rows U, the
    inactive rows' subgradient direction u, and the coefficient evaluator.

    hessian is the loss's constant Hessian when it has one, else None.
    Subclasses supply rhs(t, beta), the path derivative dbeta/dt, and
    multipliers(t, beta, vec), the map vec -> -Q^T vec.
    """

    def __init__(self, model, cs, config, beta0, t_sign=1.0, hessian=None):
        self.model = model
        self.config = config
        self.p = cs.dim
        self.t_sign = t_sign
        self.hessian = hessian
        self.u = config.inactive_subgradient(cs)
        self.active = config.active_rows(cs)
        self.beta0 = np.asarray(beta0, dtype=float).copy()
        self._cache = {}

    def release(self):
        """Drop per-point state once the segment is recorded."""

    def interpolate(self, t):
        # The whole solution of a point segment, which keeps only its context.
        return self.beta0.copy()

    def coefficients(self, t, beta):
        """Active coefficients r_Z (eq rows first) at (t, beta): the
        multipliers of grad f / rho + u, or below RHO_FLOOR of its limit on
        the path (see limit)."""
        # All event evaluations at one t share the same dense-output beta,
        # so float t is a safe cache key within a segment.
        key = float(t)
        r_z = self._cache.get(key)
        if r_z is None:
            beta = np.asarray(beta, dtype=float)
            rho = t * self.t_sign
            if not self.active.shape[0]:
                r_z = np.zeros(0)
            else:
                if rho < RHO_FLOOR:
                    vec = self.limit(t, beta)
                else:
                    vec = self.model.gradient(beta) / rho + self.u
                r_z = self.multipliers(t, beta, vec)
            self._cache[key] = r_z
        return r_z

    def limit(self, t, beta, slope=None):
        """H dbeta/drho + u, the rho -> 0 limit of grad f / rho + u along
        the path; slope is dbeta/drho when the caller already has it."""
        if slope is None:
            slope = self.t_sign * self.rhs(t, beta)
        return self._hessian(beta) @ slope + self.u

    def _hessian(self, beta):
        return self.hessian if self.hessian is not None else self.model.hessian(beta)


class _DirectContext(_SegmentContext):
    def __init__(self, model, cs, config, beta0, t_sign=1.0, hessian=None, h_factor=None):
        super().__init__(model, cs, config, beta0, t_sign, hessian)
        # A constant Hessian is factored once per path by the runner.
        self.h_factor = h_factor
        self._point = self._point_factor = None

    def release(self):
        self._point = self._point_factor = None

    def _factor(self, t, beta):
        # One KKT factor per point.  RK45's last stage and the events at
        # the step end evaluate at the same (t, beta), as do the exact
        # engine's derivative and coefficient map, so they share it.
        point = (float(t), beta.tobytes())
        if point != self._point:
            h_factor = self.h_factor
            if h_factor is None:
                h_factor = _hessian_factor(self._hessian(beta))
            self._point_factor = KKTFactor(h_factor, self.active)
            self._point = point
        return self._point_factor

    def rhs(self, t, beta):
        return self.t_sign * self._factor(t, beta).direction(self.u)

    def multipliers(self, t, beta, vec):
        """-Q^T vec = -S^-1 U H^-1 vec (or that of each column of vec)."""
        return self._factor(t, beta).multipliers(vec)

    def limit(self, t, beta, slope=None):
        # Q^T H P = 0, so the H dbeta/drho term moves r_Z by rounding only:
        # it is kept where the Hessian is constant and otherwise dropped
        # rather than paid for with a Hessian call.
        if self.hessian is None:
            return self.u
        return super().limit(t, beta, slope)


class _NullspaceContext(_SegmentContext):
    def __init__(self, *args):
        super().__init__(*args)
        self.qr = null_basis(self.active, self.p)

    def rhs(self, t, beta):
        y_b = self.qr.basis
        if y_b.shape[1] == 0:
            return np.zeros(self.p)
        return self.t_sign * _reduced_direction(self._hessian(beta), y_b, self.u)

    def multipliers(self, t, beta, vec):
        """The r with U^T r = -vec (or that of each column of vec)."""
        return self.qr.multipliers(vec)


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
        # (and, for the direct mode, its Cholesky factor) is computed once
        # per path.
        self.exact = model.constant_hessian
        self.hessian = None
        self.h_factor = None
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
            self._record_point_segment(self._context(), status)
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
            table = _EventTable(self.cs, ctx.config)
            events = [
                EventSpec(table.event_function(j, ctx.coefficients)) for j in range(table.size)
            ]
            t0 = self.t_sign * self.rho
            crossed = self._crossed_at_start(table, [ev.func(t0, ctx.beta0) for ev in events])
        except NotStrictlyConvex:
            self._switch_to_nullspace()
            return
        if crossed is not None:
            self._kink_in_place(ctx, crossed)
            return
        bound = self.opts.beta_bound
        events.append(EventSpec(lambda t, beta: bound - np.abs(beta).max()))
        try:
            trace, result = self._integrate_chunked(ctx, events)
        except NotStrictlyConvex:
            self._switch_to_nullspace()
            return
        self._absorb(ctx, trace, result, table)

    def _advance_exact(self):
        try:
            ctx = self._context()
            line = self._line(ctx)
        except NotStrictlyConvex:
            self._switch_to_nullspace()
            return
        table = _EventTable(self.cs, ctx.config)
        start, times, t_guard = self._exact_events(table, line)
        crossed = self._crossed_at_start(table, start)
        if crossed is not None:
            self._kink_in_place(ctx, crossed)
            return
        t_max = self._t_max()
        t_event = times.min(initial=np.inf)
        if t_guard < t_event and t_guard <= t_max:
            self._diverged(self.t_sign * t_guard)
        info = None
        if t_event <= t_max:
            cluster = np.flatnonzero(times - t_event <= EVENT_CLUSTER_TOL)
            rho_b = float(self.t_sign * t_event)
            info = self._first([table.info(j) for j in cluster], rho_b)
        else:
            rho_b = float(self.t_sign * t_max)
        self._close(ctx, line, rho_b, line.beta(rho_b), info)

    def _context(self):
        # The exact engine factors its constant Hessian once per path in
        # direct mode, and a singular one switches the path to nullspace
        # mode, also for a terminal point segment that no advance preceded.
        if self.exact and self.mode == "direct" and self.h_factor is None:
            try:
                self.h_factor = _hessian_factor(self.hessian)
            except NotStrictlyConvex:
                self._switch_to_nullspace()
        args = (self.model, self.cs, self.cfg, self.beta, self.t_sign, self.hessian)
        if self.mode == "nullspace":
            return _NullspaceContext(*args)
        return _DirectContext(*args, self.h_factor)

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
        self.warnings.append(msg)
        _pywarnings.warn(msg)

    # -- events -------------------------------------------------------------

    def _crossed_at_start(self, table, start):
        """The event to apply at once, given every table entry's value at
        the segment start, or None.

        After a kink (or a misclassified start) some events can begin
        beyond their boundary; such rows are moved immediately via
        zero-length segments instead of integrating.  Raises PathDivergence
        when the start is outside beta_bound.
        """
        if self.opts.beta_bound - np.abs(self.beta).max() < 0.0:
            raise PathDivergence(
                f"|beta| exceeds beta_bound={self.opts.beta_bound:g} at rho={self.rho:g}"
            )
        beyond = np.flatnonzero(np.asarray(start) < -self.opts.event_tol)
        crossed = [info for info in map(table.info, beyond) if not self._undoes_last_kink(info)]
        return self._first(crossed, self.rho) if crossed else None

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
        segment grad f = g_lin + rho H d, so grad f / rho + u is the
        evaluator's rho -> 0 limit H d + u plus g_lin / rho, and the
        coefficient map, applied once to those two columns, gives
        r_Z = a + c / rho.
        """
        rho0 = self.rho
        t0 = self.t_sign * rho0
        d = self.t_sign * ctx.rhs(t0, ctx.beta0)
        a = c = np.zeros(0)
        if ctx.active.shape[0]:
            # At a forward start grad f vanishes up to Newton's rounding;
            # dropping it keeps that noise out of c / rho at tiny rho.
            g_lin = np.zeros(self.p)
            if rho0 >= RHO_FLOOR:
                g_lin = self.model.gradient(self.beta) - rho0 * (self.hessian @ d)
            columns = np.column_stack([ctx.limit(t0, ctx.beta0, d), g_lin])
            a, c = ctx.multipliers(t0, ctx.beta0, columns).T
        return _LinearSegment(rho0, self.beta.copy(), d, a, c, self.t_sign)

    def _exact_events(self, table, line):
        """Every event of a linear segment in closed form.

        Returns the table entries' values at the segment start and their
        firing times t (inf if one never fires), and the time at which
        |beta| reaches beta_bound.  The firing rules are those of
        odeint.integrate: an event starting within event_tol of zero is
        armed only in its crossing direction and fires at -event_tol, no
        earlier than the dead band; one starting beyond its boundary never
        fires, because every event function here is monotone in rho.
        """
        rho0, t_sign = line.rho0, self.t_sign
        t0 = t_sign * rho0
        t_max = self._t_max()

        # Residual events g = row beta - offset, linear in rho.
        values = table.res_rows @ np.column_stack([line.beta0, line.d])
        g_res, slope = values[:, 0] - table.res_offsets, values[:, 1]
        n_res = table.n_res
        # Coefficient events g = sign * (r_Z - boundary) = alpha + gamma / rho.
        alpha = table.coefficient_values(line.a)
        gamma = table.coef_sign * line.c[table.coef_pos]
        start = np.concatenate([g_res, table.coefficient_values(line.r_z(rho0))])

        def falls_to(level):
            # A residual event falls in t where t_sign * slope < 0, and
            # alpha + gamma / rho where t_sign * gamma > 0.
            level_res, level_coef = level[:n_res], level[n_res:]
            with np.errstate(divide="ignore", invalid="ignore"):
                t_res = t0 + t_sign * (level_res - g_res) / slope
                t_res[t_sign * slope >= 0.0] = np.inf
                rho_c = gamma / (level_coef - alpha)
                t_coef = np.maximum(t_sign * rho_c, t0)
                t_coef[~((t_sign * gamma > 0.0) & (rho_c > 0.0))] = np.inf
            return np.concatenate([t_res, t_coef])

        times = _firing_times(start, falls_to, self.opts.event_tol, t0, t_max)
        dt = t_sign * line.d
        moving = dt != 0.0
        t_guard = np.inf
        if moving.any():
            reach = (np.sign(dt[moving]) * self.opts.beta_bound - line.beta0[moving]) / dt[moving]
            t_guard = t0 + reach.min()
        return start, times, t_guard

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
        y = ctx.beta0
        trace = _SegmentTrace(ctx)
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

    def _absorb(self, ctx, trace, result, table):
        if result.status == "reached_t_max":
            self._close(ctx, trace, self.t_sign * result.t_end, result.y_end, None)
            return
        # The beta_bound guard follows the table's entries.
        if result.event_index == table.size:
            self._diverged(self.t_sign * result.t_event)
        cluster = [
            table.info(j)
            for j, t_j in result.step_events
            if abs(t_j - result.t_event) <= EVENT_CLUSTER_TOL and j < table.size
        ]
        rho_b = self.t_sign * result.t_event
        info = self._first(cluster, rho_b)
        self._close(ctx, trace, rho_b, result.y_event, info)

    def _diverged(self, rho):
        raise PathDivergence(
            f"|beta| exceeded beta_bound={self.opts.beta_bound:g} "
            f"at rho={rho:g}; the penalized objective may lose coercivity"
        )

    def _close(self, ctx, evaluator, rho_b, beta_b, info):
        """Record the segment ending at rho_b, then apply its kink (if any)."""
        rho_a = self.rho
        if info is None:
            termination = "rho_max" if self.forward else "rho_min"
        else:
            termination = info.describe()
        beta_b = np.asarray(beta_b, dtype=float).copy()
        self._record_segment(ctx.config, evaluator, rho_b, beta_b, termination)
        ctx.release()
        self.rho, self.beta = rho_b, beta_b
        self._count_squeeze(abs(rho_b - rho_a))
        if info is not None:
            self._apply_kink(info, rho_b)

    def _kink_in_place(self, ctx, info):
        """Move a row that starts beyond its boundary via a zero-length segment."""
        self._record_point_segment(ctx, info.describe())
        ctx.release()
        self._count_squeeze(0.0)
        self._apply_kink(info, self.rho)

    def _first(self, infos, rho):
        """The event of a simultaneous cluster that is processed first."""
        if len(infos) > 1:
            self._note_cluster(rho, len(infos))
        return min(infos, key=lambda info: info.key)

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

    def _record_segment(self, config, evaluator, rho_b, beta_b, termination):
        """Append the segment from the current point to (rho_b, beta_b)."""
        self.segments.append(
            PathSegment(
                rho_start=self.rho,
                rho_end=rho_b,
                config=config,
                beta_start=self.beta.copy(),
                beta_end=beta_b.copy(),
                termination=termination,
                _t_sign=self.t_sign,
                _eval=evaluator,
            )
        )

    def _record_point_segment(self, ctx, termination):
        self._record_segment(self.cfg, ctx, self.rho, self.beta, termination)

    def _apply_kink(self, info, rho):
        from_set = self.cfg.locate(info.row_kind, info.index)
        new_cfg = self.cfg.move(info.row_kind, info.index, info.to_set)
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
        Smooth convex loss supplying value, gradient and hessian.
    cs : ConstraintSystem
        Equality and inequality penalty rows.
    options : PathOptions, optional
        Full option set; alternatively pass individual fields as keyword
        arguments (mode="nullspace", direction="backward", ...).

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
