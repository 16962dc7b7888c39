"""Exception types shared across the package."""


class PenPathError(Exception):
    """Base class for all package-specific errors."""


class RankDeficientActiveSet(PenPathError):
    """Active constraint rows are linearly dependent (KKT system singular)."""


class DomainError(PenPathError):
    """Loss evaluated outside its domain (e.g. non positive definite matrix)."""


class DivergenceError(PenPathError):
    """Newton minimization failed to converge."""


class NotStrictlyConvex(PenPathError):
    """Hessian is singular where strict convexity was required."""


class ReducedHessianSingular(PenPathError):
    """Hessian restricted to the active null space is singular."""


class StepSizeUnderflow(PenPathError):
    """Integrator step size fell below the representable minimum."""


class NonFiniteDerivative(PenPathError):
    """ODE right-hand side returned NaN or infinity."""


class EventLocationFailed(PenPathError):
    """The root search for an event crossing hit its iteration cap."""


class PathDivergence(PenPathError):
    """Path iterate left the trust region (objective likely unbounded)."""


class NoConvergence(PenPathError):
    """Iterative oracle hit its iteration cap before reaching tolerance."""


class DimensionTooSmall(PenPathError):
    """Constraint pattern does not fit the requested dimension."""


class InvalidEdge(PenPathError):
    """Graph edge references a bad node pair."""


class OverlapError(PenPathError):
    """Concatenated constraint blocks overlap."""


class NonIncreasingGrid(PenPathError):
    """Grid points must be strictly increasing."""


class SpecError(PenPathError):
    """Problem specification is malformed or inconsistent."""


class UnsupportedLoss(SpecError):
    """Requested operation is not defined for this loss family."""


class SimultaneousEventWarning(UserWarning):
    """Two or more path events fired within the clustering tolerance."""
