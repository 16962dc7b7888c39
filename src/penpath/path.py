"""Piecewise-smooth solution paths for exactly penalized convex programs.

The solver follows the minimizer beta(rho) of

    E_rho(beta) = f(beta) + rho ||V beta - d||_1 + rho sum_j max(0, w_j beta - e_j)

as rho varies.  Between kinks the minimizer obeys an ordinary differential
equation determined by which constraint rows have zero residual (the
active set) and by the subgradient signs of the rest; at a kink exactly
one row changes sets, either because an inactive residual reached zero or
because an active row's subgradient coefficient reached the boundary of
its admissible range ([-1, 1] for equality rows, [0, 1] for inequality
rows).  Forward runs start at rho = 0 from the unconstrained minimum, or
from a given point of the path, and stop when no row pulls on the solution
any more, at which point beta solves the constrained program min f subject
to V beta = d, W beta <= e.

Two segment engines, chosen by the loss's constant_hessian attribute, read
one event table per segment: each inactive row's signed residual, which
fires on reaching zero, and each active row's subgradient coefficient,
which fires on reaching a boundary.  For a constant Hessian (quadratic
losses, the normal GLM) dbeta/drho = -P u is constant between kinks, so
beta is linear in rho and the active coefficients are affine in 1/rho: the
exact engine finds every event in closed form from the table's start
values and slopes, with no integration step.  Every other loss follows the
ODE engine, which integrates the segment with adaptive Runge-Kutta steps,
starting from the size of the step the path's previous integration last
took.  It reads the table as one event vector with a beta_bound guard
appended, evaluated once per step end, and odeint locates only the earliest
crossing, evaluating only the rows that fired.  Both engines fire an event under
odeint's FiringRule.

Two interchangeable formulations of the segment's KKT system, both in
sweeplin, serve both engines: "direct" is the range-space method, a
Cholesky factor of the Hessian and of the Schur complement of the active
rows (once per point in the ODE engine, once per segment from a per-path
Hessian factor in the exact one), and "nullspace" works in the active rows'
null space (usable when the Hessian is singular, and Hessian-free for the
coefficients).  Either way the ODE state is beta itself.  The ODE engine
evaluates the Hessian only in its columns at the coordinates that are not
pinned (LossModel.hessian_columns), so its direct mode needs only the
reduced Hessian Z^T H Z of the elimination below to be positive definite.
The exact engine factors its whole constant Hessian once per path.  A
Hessian that fails its engine's test switches the direct mode to the
null-space mode for the rest of the path.

Every segment goes through one elimination (sweeplin.Elimination) before
either formulation runs.  It removes the active pins (one-entry rows such
as the lasso's) and ties (two adjacent coordinates held equal, as by the
fused lasso and isotone rows), and is the identity when none is active:
with beta = c + Z gamma the formulation sees only the remaining general
rows, and with none of those active the direction is one Cholesky solve on
Z^T H Z, with no QR and no Schur complement.  That direction is exactly 0
on pinned coordinates and exactly equal across a tied group, and each
segment starts with its active pins and ties held exactly, so the kink that
activates a row moves its coordinates onto it: a newly pinned group to the
pin's value, two merged groups to their mean.  Sampled paths therefore hold
exact pin values and exact ties.

One segment context per segment holds the formulation's per-point factor
and the one coefficient evaluator, r_Z = -Q^T (grad f / rho + u) with its
limit H dbeta/drho + u below RHO_FLOOR, which the events, the exact
engine's closed form and every lookup on a finished path use, and in the
ODE engine the segment's integrated chunks.  Every segment, a zero-length one
too, ends through one step (_PathRunner._close), which checks the beta_bound
guard, picks the first event of a cluster, records the segment and applies
the kink.

What a kink does not change is carried across it.  The system's stacked
rows [V; W] and their shapes are formed once per system, and the constant
Hessian, its factor and whether it is diagonal once per path.  The runner
carries one set state (_SetState): the configuration and one side per
stacked row (-1, 0 or +1 by its sign class).  A kink moves one row, so it
sets that row's side and splices it out of one sorted tuple and into
another; u, the active rows and the residual rows are derived from the
sides again, in at most one product of the sides with the rows.  Still
built per segment: the event table (its index arrays and the residual rows
and offsets gathered from the stacked ones), the elimination (its runs as
index slices, and the two legs of each run along which the eliminated
rows' multipliers are summed), the formulation's factor of Z^T H Z when
something is eliminated (a QR or a Schur factor too when general rows are
active), the snap and the closed-form events.
"""

import math
import numbers
import warnings as _pywarnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    NoConvergence,
    NotStrictlyConvex,
    PathDivergence,
    PenPathError,
    SimultaneousEventWarning,
)
from .losses.newton import minimize_smooth, unconstrained_minimum
from .odeint import EVENT_CLUSTER_TOL, FiringRule, integrate
from .sweeplin import (
    EliminatedFactor,
    Elimination,
    KKTFactor,
    NullspaceFactor,
    hessian_factor,
    null_basis,
    require_finite_hessian,
)

# Below this rho the coefficient formula switches to its rho -> 0 limit.
RHO_FLOOR = 1e-12
DEFAULT_RHO_MAX = 1e6
DEFAULT_BETA_BOUND = 1e8
MODES = ("direct", "nullspace")

_SET_FIELDS = ("neg_eq", "zero_eq", "pos_eq", "neg_ineq", "zero_ineq", "pos_ineq")
# Each sign class's side (_SetState.side).
_SIDES = {"neg": -1.0, "zero": 0.0, "pos": 1.0}


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
        return cs.stacked_rows[0][list(self.zero_eq) + [cs.n_eq + i for i in self.zero_ineq]]

    def inactive_subgradient(self, cs):
        """Fixed direction u = sum of signed inactive rows (_SetState.u)."""
        return _SetState.of(cs, self).u

    def locate(self, row_kind, index):
        """Name of the set currently holding the given row."""
        for name in (f"{sign_class}_{row_kind}" for sign_class in _SIDES):
            if index in getattr(self, name):
                return name
        raise ValueError(f"{row_kind} row {index} is not classified")

    def move(self, row_kind, index, to_set):
        """New configuration with one row moved to `to_set`: the row leaves
        its set's sorted tuple and is spliced into the target's, and the
        other sets are shared."""
        if row_kind not in ("eq", "ineq"):
            raise ValueError(f"unknown row kind {row_kind!r}")
        if to_set not in [f"{sign_class}_{row_kind}" for sign_class in _SIDES]:
            raise ValueError(f"bad target set {to_set!r} for {row_kind} row")
        return self._spliced(self.locate(row_kind, index), int(index), to_set)

    def _spliced(self, source, index, to_set):
        # move() once the row's set is known.
        members = getattr(self, source)
        at = members.index(index)
        changed = {source: members[:at] + members[at + 1:]}
        members = changed.get(to_set, getattr(self, to_set))
        at = bisect_left(members, index)
        changed[to_set] = members[:at] + (index,) + members[at:]
        # The fields are valid, so __init__'s sorting and checks are skipped.
        moved = object.__new__(SetConfiguration)
        moved.__dict__.update(self.__dict__)
        moved.__dict__.update(changed)
        return moved


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


class _SetState:
    """A set configuration with one side per stacked row of the system's
    [V; W]: -1.0 in a neg set, 0.0 in a zero set and +1.0 in a pos set.
    What its segments read is derived from side:

    - u = pull @ rows, the inactive rows' subgradient direction, pull being
      side with 0 for the neg inequality rows (strictly satisfied ones pull
      on nothing);
    - active: the zero rows' stacked indices, ascending, which is active
      order (equality rows first);
    - residual: the other rows' stacked indices, ascending (_EventTable).

    of() builds one from a configuration.  The runner carries one across
    kinks instead: move() sets the moved row's side and splices the row
    into the configuration.
    """

    def __init__(self, cs, config, side):
        self.cs = cs
        self.config = config
        self.side = side
        pull = np.concatenate((side[:cs.n_eq], np.maximum(side[cs.n_eq:], 0.0)))
        # + 0.0 turns a -0.0 sum of zero terms into +0.0.
        self.u = pull @ cs.stacked_rows[0] + 0.0
        self.active = (side == 0.0).nonzero()[0]
        self.residual = side.nonzero()[0]

    @classmethod
    def of(cls, cs, config):
        # A row in no set would read as active (side 0).
        config.check_partition(cs.n_eq, cs.n_ineq)
        side = np.zeros(cs.n_eq + cs.n_ineq)
        for name in _SET_FIELDS:
            sign_class, row_kind = name.split("_")
            rows = np.array(getattr(config, name), dtype=int)
            side[_stacked(cs, row_kind, rows)] = _SIDES[sign_class]
        return cls(cs, config, side)

    def move(self, row_kind, index, to_set):
        """The set the row leaves, and the state once it is in to_set."""
        index = int(index)
        from_set = self.config.locate(row_kind, index)
        side = self.side.copy()
        side[_stacked(self.cs, row_kind, index)] = _SIDES[to_set.split("_")[0]]
        return from_set, _SetState(self.cs, self.config._spliced(from_set, index, to_set), side)


def _stacked(cs, row_kind, index):
    """The stacked index in [V; W] of row(s) `index` of kind "eq" or "ineq"."""
    return index + (0 if row_kind == "eq" else cs.n_eq)


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


def active_coefficients(model, cs, config, beta, rho, mode="direct"):
    """Subgradient coefficients r_Z = -Q^T (grad f / rho + u) (eq rows first)
    in the given formulation at beta, by the segment context's evaluator
    (_SegmentContext.coefficients), which takes the rho -> 0 limit below
    RHO_FLOOR.  The direct formulation needs Z^T H Z positive definite at
    beta (H on the coordinates that are not pinned, summed over each tied
    run); the nullspace one needs no Hessian above RHO_FLOOR.
    """
    if rho < 0:
        raise ValueError("rho must be nonnegative")
    ctx = _SegmentContext(model, cs, config, beta, mode=mode)
    return ActiveCoefficients.of(config, ctx.coefficients(rho, ctx.beta0))


def stationarity_residual(model, cs, config, beta, rho):
    """Normalized violation of the subgradient stationarity condition.

    Returns ||grad f + rho (u + U_Z^T r_Z)||_inf / (1 + ||grad f||_inf)
    with r_Z the least-squares coefficients of the nullspace formulation,
    which need no Hessian above RHO_FLOOR, so the residual exists wherever
    the path does; on the exact path it is zero up to integration error.
    """
    grad = model.gradient(beta)
    sets = _SetState.of(cs, config)
    pull = sets.u
    if sets.active.size:
        coef = active_coefficients(model, cs, config, beta, rho, mode="nullspace")
        pull = pull + cs.stacked_rows[0][sets.active].T @ coef.r_z
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
        # float(True) is 1.0, so a JSON true would pass every check below.
        for name in ("rho_max", "rho_min", "rho_start", "rel_tol", "abs_tol", "event_tol",
                     "residual_tol", "beta_bound", "max_step"):
            if isinstance(getattr(self, name), (bool, np.bool_)):
                raise ValueError(f"{name} must be a number, got {getattr(self, name)!r}")
        # With rho_max = inf a segment no event ends never ends; a NaN max_kinks disarms the cap.
        if not 0 <= self.rho_min < self.rho_max < math.inf:
            raise ValueError("need 0 <= rho_min < rho_max < inf")
        kinks = self.max_kinks
        if isinstance(kinks, bool) or not isinstance(kinks, numbers.Integral) or kinks < 1:
            raise ValueError(f"max_kinks must be an integer of at least 1, got {kinks!r}")
        for name in ("rho_start", "residual_tol", "max_step"):
            if getattr(self, name) is not None:
                setattr(self, name, float(getattr(self, name)))
        start = self.rho_start
        if start is not None and not (math.isfinite(start) and start >= 0):
            raise ValueError(f"rho_start must be finite and nonnegative, got {start!r}")
        # classify puts a NaN residual in no set, and the path goes silently wrong.
        if self.start_beta is not None:
            # The entries, not the converted dtype: [True, 0.5] converts to float64.
            entries = np.array(self.start_beta, dtype=object).flat
            if any(isinstance(v, (bool, np.bool_)) for v in entries):
                raise ValueError("start_beta must be a vector of finite numbers")
            self.start_beta = np.array(self.start_beta, dtype=float)
            if self.start_beta.ndim != 1 or not np.isfinite(self.start_beta).all():
                raise ValueError("start_beta must be a vector of finite numbers")
        # An infinite or NaN tolerance or bound passes a bare "> 0" test and
        # leaves the path silently wrong (inf event_tol disarms every event).
        for name in ("rel_tol", "abs_tol", "event_tol", "beta_bound", "residual_tol", "max_step"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")


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


class _LinearSegment:
    """Closed form of one segment of a constant-Hessian path.

    beta(rho) = beta0 + (rho - rho0) d, and the active coefficients (eq
    rows first) are r_Z(rho) = a + c / rho, or their rho -> 0 limit a
    below RHO_FLOOR.  The exact engine's segment evaluator; a
    _SegmentContext evaluates the others.
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


def _lookup_pad(rho):
    """How far beyond its ends a segment still serves a lookup at rho
    (elementwise for an array)."""
    return 1e-9 * (1.0 + np.abs(rho))


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
    # t = t_sign * rho: a _LinearSegment (exact engine) or the segment's
    # _SegmentContext (ODE engine, and a point segment of either).
    _eval: object = None

    @property
    def rho_span(self):
        return abs(self.rho_end - self.rho_start)

    def sample_points(self, per_segment):
        """The segment's sample rhos, ascending: its one rho if it has zero
        length, else per_segment + 1 evenly spaced from end to end."""
        lo, hi = sorted((self.rho_start, self.rho_end))
        return np.array([lo]) if self.rho_span == 0.0 else np.linspace(lo, hi, per_segment + 1)

    def contains(self, rho):
        lo, hi = sorted((self.rho_start, self.rho_end))
        pad = _lookup_pad(rho)
        return bool(lo - pad <= rho <= hi + pad)

    def beta_at(self, rho):
        """Solution on this segment: the exact line or the ODE dense output."""
        if not self.contains(rho):
            raise ValueError(f"rho={rho} outside segment [{self.rho_start}, {self.rho_end}]")
        return self.betas_at(np.array([rho], dtype=float), True)[0]

    def betas_at(self, rhos, forward):
        """beta_at(rho) for each of rhos inside this segment's padded range
        (contains), and outside it the beta the path keeps beyond its end:
        beta_end on a forward path, else beta_start."""
        lo, hi = sorted((self.rho_start, self.rho_end))
        pad = _lookup_pad(rhos)
        inside = (lo - pad <= rhos) & (rhos <= hi + pad)
        out = np.empty((rhos.size, self.beta_end.size))
        out[~inside] = self.beta_end if forward else self.beta_start
        lo, hi = sorted((self._t_sign * self.rho_start, self._t_sign * self.rho_end))
        t = np.minimum(np.maximum(self._t_sign * rhos[inside], lo), hi)
        if isinstance(self._eval, _LinearSegment):
            out[inside] = self._eval.interpolate(t[:, None])
        elif t.size:
            out[inside] = [self._eval.interpolate(t_k) for t_k in t]
        return out

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
        # A segment serves its own points, and a kink's rho the last segment
        # that starts there: after a cluster of zero-length segments, the one
        # after the cluster, which starts from the state the path continues
        # from.  That is the last segment that starts at or before rho in
        # path order (a rho before the path's start counting as the start),
        # if it holds rho; starts are monotone, so bisection finds it.
        sign = 1.0 if self.direction == "forward" else -1.0
        segments = self.segments
        first, last = segments[0], segments[-1]
        key = max(sign * rho, sign * first.rho_start)
        segment = segments[bisect_right(segments, key, key=lambda seg: sign * seg.rho_start) - 1]
        if segment.contains(rho):
            return segment
        # Past the far end the solution is a fixed point of the dynamics
        # whenever the boundary configuration is terminal.
        if self.direction == "forward":
            if self.status == "terminated" and rho >= last.rho_end:
                return last
        elif rho >= first.rho_start and first.config.is_terminal:
            return first
        raise ValueError(f"rho={rho} outside the computed path")

    def beta_at(self, rho):
        """Solution at any rho covered by (or fixed beyond) the path."""
        return self.sample([rho])[0][0]

    def sample(self, rhos):
        """beta_at and df_at at each of rhos, bitwise, as an (n, p) array
        and a list of n ints, for rhos on any grid (crossval's is the
        full-data path's).  Each rho is served by the segment _segment_for
        finds, as `penpath solve` serves its own grid, and the betas of
        consecutive rhos on one segment are one betas_at call."""
        rhos = np.asarray(rhos, dtype=float)
        betas = np.empty((rhos.size, self.p))
        dfs = []
        segments = [self._segment_for(rho) for rho in rhos]
        i = 0
        while i < rhos.size:
            seg = segments[i]
            j = i + 1
            while j < rhos.size and segments[j] is seg:
                j += 1
            dfs += [degrees_of_freedom(seg.config, self.p)] * (j - i)
            betas[i:j] = seg.betas_at(rhos[i:j], self.direction == "forward")
            i = j
        return betas, dfs

    def config_at(self, rho):
        return self._segment_for(rho).config

    def df_at(self, rho):
        return degrees_of_freedom(self.config_at(rho), self.p)

    def coefficients_at(self, rho):
        # Beyond a fixed end beta is frozen, but the coefficients still decay
        # with rho, by the segment's own formula.  At a kink's rho they are
        # the ones its event located, at the end of the first segment that
        # holds rho: the segment that starts there holds a newly active row's
        # coefficient only to the path's stationarity error over rho, and on
        # the ODE engine the forward start's Newton residual makes that
        # about 1e-7 at rho ~ 0.1, beyond in_range's default.
        sign = 1.0 if self.direction == "forward" else -1.0
        segments = self.segments
        i = bisect_left(segments, sign * rho - _lookup_pad(rho), key=lambda seg: sign * seg.rho_end)
        segment = segments[i] if i < len(segments) and segments[i].contains(rho) else (
            self._segment_for(rho))
        beta = segment.betas_at(np.array([rho], dtype=float), sign > 0.0)[0]
        return segment._coefficients(rho, beta)

    def rho_grid(self, per_segment=20):
        """Ascending sample grid: every segment's sample_points."""
        return np.unique(np.concatenate([seg.sample_points(per_segment) for seg in self.segments]))


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


# The coefficient events' type codes and signs, group by group: the active
# equality rows at 1 and at -1, the active inequality rows at 1 and at 0;
# and their boundaries by code - 2.
_COEF_CODES = np.arange(2, 6)
_COEF_SIGNS = np.array([-1.0, 1.0, -1.0, 1.0])
_BOUNDARIES = np.array([event[2] for event in _EVENT_TYPES[2:]])


class _EventTable:
    """Every event of one segment, in the layout both engines read.

    Entry j has a type code (an index into _EVENT_TYPES) and a constraint
    row.  The first n_res entries are residual events, one per inactive row
    in stacked order (_SetState.residual): g = sign_j (row_j beta -
    offset_j), with the row and offset as stacked and the row's side as its
    sign, so that g > 0 while the row keeps its sign class.  The others are
    coefficient events g = sign_j (r_Z[pos_j] - boundary_j), where pos_j is
    the row's position in r_Z (eq rows first) and the sign is -1 at an upper
    boundary and +1 at a lower one.  An event fires when its g falls through
    zero.
    """

    def __init__(self, sets):
        n_eq, residual, active = sets.cs.n_eq, sets.residual, sets.active
        self.n_res = residual.size
        n_act_eq = active.searchsorted(n_eq)
        eq, ineq = active[:n_act_eq], active[n_act_eq:]
        sizes = [eq.size, eq.size, ineq.size, ineq.size]
        stacked = np.concatenate([residual, eq, eq, ineq, ineq])
        is_ineq = stacked >= n_eq
        self.codes = np.concatenate([is_ineq[:self.n_res].astype(int), _COEF_CODES.repeat(sizes)])
        self.rows = stacked - n_eq * is_ineq  # each row's index among its kind
        self.size = self.codes.size
        rows, offsets = sets.cs.stacked_rows
        self.res_sign = sets.side[residual]
        self.res_rows = rows[residual]
        self.res_offsets = offsets[residual]
        self.coef_pos = active.searchsorted(stacked[self.n_res:])
        self.coef_sign = _COEF_SIGNS.repeat(sizes)
        self.coef_bound = _BOUNDARIES[self.codes[self.n_res:] - 2]

    def info(self, j):
        kind, row_kind, boundary, to_set = _EVENT_TYPES[self.codes[j]]
        return _EventInfo(kind, row_kind, int(self.rows[j]), boundary, to_set)

    def coefficient_values(self, r_z):
        """The coefficient events' g for active coefficients r_z."""
        return self.coef_sign * (r_z[self.coef_pos] - self.coef_bound)

    def vector(self, ctx, beta_bound):
        """The ODE engine's event vector g(t, beta, rows): the table's
        entries, then the guard beta_bound - max |beta| as entry `size`.
        Only the entries `rows` (ascending, all by default) are computed, so
        residual events alone cost no coefficient evaluation."""
        n_res, size = self.n_res, self.size

        def g(t, beta, rows=np.arange(size + 1)):
            i, j = np.searchsorted(rows, (n_res, size))
            res, coef = rows[:i], rows[i:j] - n_res
            parts = [self.res_sign[res] * (self.res_rows[res] @ beta - self.res_offsets[res])]
            if coef.size:
                parts.append(self.coefficient_values(ctx.coefficients(t, beta))[coef])
            if j < rows.size:
                parts.append([beta_bound - np.abs(beta).max()])
            return np.concatenate(parts)

        return g


# ---------------------------------------------------------------------------
# The segment context, shared by both engines and both formulations.

class _SegmentContext:
    """Per-segment state: the inactive rows' subgradient direction u and the
    active rows of the set state, the formulation's per-point factor and the
    coefficient evaluator.  It evaluates an ODE segment from results, the
    segment's integrated chunks in order, and a point segment, which has none.

    elim (a sweeplin Elimination, the identity when no pin or tie is
    active) removes the active pins and ties first: the mode's factor
    (sweeplin's KKTFactor in direct mode, its NullspaceFactor in nullspace
    mode) sees only the remaining general rows, in the reduced coordinates,
    and an EliminatedFactor completes the direction and the multipliers.

    hessian is the loss's constant Hessian when it has one, else None,
    h_factor its Cholesky factor for the direct mode and h_diagonal its
    diagonal when it is diagonal (else None), computed once per path by the
    runner.  Without a constant Hessian the context asks the loss for
    hessian_columns at the coordinates that are not pinned, at most once
    per point: Z^T H Z and every H v it forms (v is 0 on pinned
    coordinates) read only those columns.  sets is the runner's _SetState
    of config; without it, one is built from config.
    """

    def __init__(self, model, cs, config, beta0, t_sign=1.0, mode="direct",
                 hessian=None, h_factor=None, h_diagonal=None, sets=None):
        self.sets = _SetState.of(cs, config) if sets is None else sets
        self.model = model
        self.config = self.sets.config
        self.p = cs.dim
        self.t_sign = t_sign
        self.mode = mode
        self.hessian = hessian
        self.h_factor = h_factor
        self.h_diagonal = h_diagonal
        self.u = self.sets.u
        rows = self.sets.active
        self.n_active = rows.size
        # The mode's formulation sees the general rows among the active ones
        # in the reduced coordinates, and the null-space method needs a QR
        # only of those.
        self.elim = Elimination(self.p, cs.row_shapes, rows)
        self.general_rows = cs.stacked_rows[0][rows[self.elim.general]]
        self.reduced_rows = self.elim.reduce_rows(self.general_rows)
        self.qr = None
        if mode == "nullspace" and self.reduced_rows.shape[0]:
            self.qr = null_basis(self.reduced_rows)
        self.beta0 = np.asarray(beta0, dtype=float).copy()
        self.results = []
        self._cache = {}
        self.release()

    def release(self):
        """Drop per-point state once the segment is recorded."""
        self._point = self._point_factor = self._point_times = self._point_columns = None

    def snap(self, beta):
        """A copy of beta with the active pins and ties held exactly (see
        Elimination.snap)."""
        return self.elim.snap(np.array(beta, dtype=float))

    def interpolate(self, t):
        """beta at t: beta0 on a point segment, else the dense output of the
        chunk whose padded range holds t, snapped."""
        if not self.results:
            return self.beta0
        # Chunks run forward in t one after another, so the first whose
        # padded range holds t is the first that does not end before it.
        i = bisect_left(self.results, t, key=lambda r: r.steps[-1].t_end + 1e-9)
        if i < len(self.results):
            result = self.results[i]
            if result.steps[0].t_start - 1e-9 <= t <= result.steps[-1].t_end + 1e-9:
                # The Runge-Kutta sums keep pinned coordinates exactly but may
                # round tied ones apart.
                return self.snap(result.interpolate(t))
        raise ValueError(f"t={t} outside the segment trace")

    def _factor(self, t, beta):
        # One factor per point.  A Runge-Kutta step's last stage and the
        # events at the step end evaluate at the same (t, beta), as do the
        # exact engine's derivative and coefficient map, so they share it,
        # and the Hessian there, which is evaluated at most once.
        point = (float(t), beta.tobytes())
        if point == self._point:
            return self._point_factor
        self._point, self._point_columns = point, None
        elim = self.elim
        if self.hessian is None:
            # Only H's columns at the free coordinates F: Z^T H Z takes
            # their rows F, and each H v taken here has v = 0 off F.
            self._point_times = lambda v: self._columns(beta) @ v[elim.free]
            reduced_hessian = lambda: elim.reduce_columns(self._columns(beta))
        else:
            self._point_times = self.hessian.__matmul__
            # Z^T H Z, by its diagonal when H is diagonal.
            if self.h_diagonal is None:
                reduced_hessian = lambda: elim.reduce_hessian(self.hessian)
            else:
                reduced_hessian = lambda: elim.reduce_diagonal(self.h_diagonal)
        if self.mode == "nullspace":
            inner = NullspaceFactor(self.qr, reduced_hessian)
            self._point_factor = EliminatedFactor(elim, inner, self.general_rows)
            return self._point_factor
        # The range-space method needs Z^T H Z positive definite.  The exact
        # engine checked once per path that H is, and keeps H's factor,
        # which is that of Z^T H Z when nothing is eliminated.
        if self.h_factor is not None and elim.structured.size == 0:
            reduced = self.h_factor
        else:
            reduced = hessian_factor(reduced_hessian())
        inner = KKTFactor(reduced, self.reduced_rows)
        self._point_factor = EliminatedFactor(elim, inner, self.general_rows, self._point_times)
        return self._point_factor

    def _columns(self, beta):
        # H[:, F] at the current point, evaluated at most once there.
        if self._point_columns is None:
            self._point_columns = require_finite_hessian(
                self.model.hessian_columns(beta, self.elim.free))
        return self._point_columns

    def rhs(self, t, beta):
        """The path derivative dbeta/dt = t_sign * (-P u)."""
        return self.t_sign * self._factor(t, beta).direction(self.u)

    def multipliers(self, t, beta, vec):
        """-Q^T vec (or that of each column of vec): the r with U^T r = -vec
        for vec in the range of U^T."""
        return self._factor(t, beta).multipliers(vec)

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
            if not self.n_active:
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
        # A caller's slope was taken at this point too, so the Hessian of
        # its factor is reused; slope is 0 on the pinned coordinates.
        self._factor(t, beta)
        return self._point_times(slope) + self.u


# ---------------------------------------------------------------------------
# The runner.

class _PathRunner:
    def __init__(self, model, cs, opts, on_segment=None):
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
        self.h_diagonal = None
        self.segments = []
        self.kinks = []
        self.warnings = []
        self._squeeze = 0
        self._squeeze_cap = 4 * (cs.n_eq + cs.n_ineq) + 8
        # The ODE engine's last step size, the next integration's first:
        # only a path's first integration probes for one.
        self.step = None
        self.on_segment = on_segment or (lambda segment: None)

    # -- setup ------------------------------------------------------------

    def _start(self):
        opts = self.opts
        if opts.start_beta is not None:  # a given start, in either direction
            if opts.rho_start is None:
                raise ValueError("start_beta requires an explicit rho_start")
            self.beta, self.rho = np.array(opts.start_beta, dtype=float), opts.rho_start
        elif not self.forward:
            self.beta, self.rho = self._backward_start()
        elif opts.rho_start:
            raise ValueError("a forward run from rho_start > 0 needs start_beta")
        else:
            self.beta, self.rho = unconstrained_minimum(self.model), 0.0
        if self.exact:
            self.hessian = self.model.hessian(self.beta)
            diagonal = np.diagonal(self.hessian)
            if np.count_nonzero(self.hessian) == np.count_nonzero(diagonal):
                self.h_diagonal = diagonal
            # Direct mode factors H once per path; a singular H switches modes.
            if self.mode == "direct":
                try:
                    self.h_factor = hessian_factor(self.hessian)
                except NotStrictlyConvex:
                    self._switch_to_nullspace()
        self.sets = _SetState.of(self.cs, classify(
            self.cs.eq_residuals(self.beta),
            self.cs.ineq_residuals(self.beta),
            self.residual_tol,
        ))

    def _backward_start(self):
        opts = self.opts
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
            if self.forward and self.sets.config.is_terminal:
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
        if not self.segments or self.segments[-1].config is not self.sets.config:
            ctx = self._context()
            self._record_segment(ctx.config, ctx, self.rho, self.beta, status)
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
        try:
            ctx = self._context()
            if self.exact:
                self._advance_exact(ctx)
            else:
                self._advance_ode(ctx)
        except NotStrictlyConvex:
            self._switch_to_nullspace()

    def _advance_ode(self, ctx):
        table = _EventTable(ctx.sets)
        events = table.vector(ctx, self.opts.beta_bound)
        start = events(self.t_sign * self.rho, ctx.beta0)
        if not self._closed_at_start(ctx, table, start[: table.size]):
            result = self._integrate_chunked(ctx, events)
            self._close(ctx, table, ctx, result.t_end, result.y_end, result.event_rows)

    def _advance_exact(self, ctx):
        line = self._line(ctx)
        table = _EventTable(ctx.sets)
        start, times = self._exact_events(table, line)
        if self._closed_at_start(ctx, table, start):
            return
        t_end, rows = self._t_max(), None
        if times.min() <= t_end:
            t_end = times.min()
            rows = np.flatnonzero(times - t_end <= EVENT_CLUSTER_TOL)
        self._close(ctx, table, line, t_end, line.interpolate(t_end), rows)

    def _context(self):
        ctx = _SegmentContext(
            self.model, self.cs, self.sets.config, self.beta, self.t_sign, self.mode,
            self.hessian, self.h_factor, self.h_diagonal, self.sets,
        )
        # The kink rule: a segment starts with its active pins and ties held
        # exactly, which moves only the coordinates of the row that just
        # became active (a newly pinned run to its pin's value, two merged
        # runs to their mean).
        ctx.beta0 = ctx.snap(ctx.beta0)
        self.beta = ctx.beta0.copy()
        return ctx

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

    def _closed_at_start(self, ctx, table, start):
        """Whether the segment ended where it starts, given every table
        entry's value there.

        After a kink (or a misclassified start) some events can begin
        beyond their boundary; the segment then closes at once, a
        zero-length segment whose kink moves the first such row, instead of
        integrating.  Raises PathDivergence when the start is outside
        beta_bound.
        """
        if self.opts.beta_bound - np.abs(self.beta).max() < 0.0:
            raise PathDivergence(
                f"|beta| exceeds beta_bound={self.opts.beta_bound:g} at rho={self.rho:g}"
            )
        beyond = np.flatnonzero(np.asarray(start) < -self.opts.event_tol)
        rows = [j for j in beyond if not self._undoes_last_kink(table.info(j))]
        if rows:
            self._close(ctx, table, ctx, self.t_sign * self.rho, ctx.beta0, rows)
        return bool(rows)

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
        if ctx.n_active:
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
        firing times t (inf if one never fires), then as entry table.size
        the time at which |beta| reaches beta_bound, the layout of the ODE
        engine's event vector.  The events fire under odeint's FiringRule,
        as in the ODE engine (_firing_times).
        """
        rho0, t_sign = line.rho0, self.t_sign
        t0 = t_sign * rho0
        t_max = self._t_max()

        # Residual events g = sign * (row beta - offset), linear in rho.
        values = table.res_rows @ np.column_stack([line.beta0, line.d])
        g_res = table.res_sign * (values[:, 0] - table.res_offsets)
        slope = table.res_sign * values[:, 1]
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
        return start, np.concatenate((times, [t_guard]))

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
                first_step=self.step,
            )
            ctx.results.append(result)
            self.step = result.last_step
            if result.status == "event" or t_hi >= t_max:
                return result
            t, y = result.t_end, result.y_end

    def _close(self, ctx, table, evaluator, t_end, beta_end, rows):
        """End the segment at t_end, where the table's entries `rows` fire
        (None when it reached t_max): raise PathDivergence if the beta_bound
        guard, entry table.size, is among them, else record the segment and
        apply the first event of the cluster.  Every segment of both engines
        ends here, a zero-length one too (_closed_at_start)."""
        rho_a, rho_b = self.rho, float(self.t_sign * t_end)
        if rows is not None and rows[-1] == table.size:
            raise PathDivergence(
                f"|beta| exceeded beta_bound={self.opts.beta_bound:g} "
                f"at rho={rho_b:g}; the penalized objective may lose coercivity"
            )
        info = None
        termination = "rho_max" if self.forward else "rho_min"
        if rows is not None:
            infos = [table.info(j) for j in rows]
            if len(infos) > 1:
                msg = (
                    f"{len(infos)} events within {EVENT_CLUSTER_TOL:g} of rho={rho_b:.9g}; "
                    "processing one at a time"
                )
                self.warnings.append(msg)
                _pywarnings.warn(msg, SimultaneousEventWarning)
            info = min(infos, key=lambda info: info.key)
            termination = info.describe()
        beta_b = ctx.snap(beta_end)
        self._record_segment(ctx.config, evaluator, rho_b, beta_b, termination)
        ctx.release()
        self.rho, self.beta = rho_b, beta_b
        self._count_squeeze(abs(rho_b - rho_a))
        if info is not None:
            self._apply_kink(info, rho_b)

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
        self.on_segment(self.segments[-1])

    def _apply_kink(self, info, rho):
        from_set, self.sets = self.sets.move(info.row_kind, info.index, info.to_set)
        self.kinks.append(
            Kink(
                rho=rho,
                row_kind=info.row_kind,
                index=info.index,
                from_set=from_set,
                to_set=info.to_set,
                boundary=info.boundary,
                df_after=degrees_of_freedom(self.sets.config, self.p),
            )
        )


def _firing_times(start, falls_to, tol, t0, t_max):
    """Firing times of monotone event functions under odeint's FiringRule.

    `start` holds the functions' values at t0, and falls_to(level) the
    times after t0 at which each one falls to its entry of `level` (inf if
    it never does).  One that starts below its level never fires, because
    it would have to rise back through it first.
    """
    rule = FiringRule(start, tol, t0)
    times = falls_to(rule.level)
    times[start < rule.level] = np.inf
    return rule.held(times, t_max)


def _constrained_minimum(model, v_mat, d):
    """Minimize f subject to V beta = d by Newton in the null space of V."""
    part = np.linalg.lstsq(v_mat, d, rcond=None)[0]
    basis = null_basis(v_mat).basis
    if basis.shape[1] == 0:
        return part
    value = lambda z: model.value(part + basis @ z)
    gradient = lambda z: basis.T @ model.gradient(part + basis @ z)
    hessian = lambda z: basis.T @ model.hessian(part + basis @ z) @ basis
    z = minimize_smooth(value, gradient, hessian, np.zeros(basis.shape[1]))
    return part + basis @ z


def run_path(model, cs, options=None, *, on_segment=None, **overrides):
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
    on_segment : callable, optional
        Called with each PathSegment as soon as it is recorded, the last
        one included; it changes nothing the run computes.

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
    if options.start_beta is not None and np.shape(options.start_beta) != (cs.dim,):
        raise ValueError(f"start_beta has shape {np.shape(options.start_beta)}, not ({cs.dim},)")
    return _PathRunner(model, cs, options, on_segment).run()
