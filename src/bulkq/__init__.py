"""bulkq: transient analysis of the M/M(m,m)/1 bulk-service queue.

The package computes the transition probabilities P_{n,r}(t) of the queue
through a spectral representation built from the branches of an algebraic
equation, and cross-validates them against a truncated matrix exponential,
Picard iteration, and Monte Carlo simulation.
"""

from .algebraic import AlgebraicConfig, solve_branches, star_geometry
from .errors import BulkqError
from .model import QueueParams, build_generator, validate_params
from .spectral import QuadratureRule, sigma_apply, star_quadrature
from .oracle import (
    CrossReport,
    McConfig,
    McResult,
    PicardState,
    cross_validate,
    expm_uniformization,
    picard_solve,
    simulate_mc,
)
from .transition import (
    TransitionQuery,
    TransitionResult,
    decay_rate,
    honesty_check,
    semigroup_check,
    transition_block,
    transition_spectral,
)

__version__ = "0.1.0"

__all__ = [
    "AlgebraicConfig",
    "BulkqError",
    "CrossReport",
    "McConfig",
    "McResult",
    "PicardState",
    "QuadratureRule",
    "QueueParams",
    "TransitionQuery",
    "TransitionResult",
    "build_generator",
    "cross_validate",
    "decay_rate",
    "expm_uniformization",
    "honesty_check",
    "picard_solve",
    "semigroup_check",
    "sigma_apply",
    "simulate_mc",
    "solve_branches",
    "star_geometry",
    "star_quadrature",
    "transition_block",
    "transition_spectral",
    "validate_params",
    "__version__",
]
