"""Loss models: value, gradient and Hessian of each smooth convex loss."""

from .base import LossModel
from .ggm import GaussianGraphicalLoss, tri_indices
from .glm import FAMILIES, LINKS, VARIANCES, Family, GlmLoss, QuasiLoss
from .jkernel import j_kernel, j_table
from .logconcave import LogConcaveLoss
from .newton import minimize_smooth, unconstrained_minimum
from .quadratic import QuadraticLoss

__all__ = [
    "FAMILIES",
    "Family",
    "GaussianGraphicalLoss",
    "GlmLoss",
    "LINKS",
    "LogConcaveLoss",
    "LossModel",
    "QuadraticLoss",
    "QuasiLoss",
    "VARIANCES",
    "j_kernel",
    "j_table",
    "minimize_smooth",
    "tri_indices",
    "unconstrained_minimum",
]
