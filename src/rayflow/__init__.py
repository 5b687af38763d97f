"""Approximation of least Rayleigh quotients for degree-p homogeneous energies.

Two schemes drive a strictly convex p-homogeneous energy toward its ground
state: inverse iteration through the duality map, and the implicit
minimizing-movement discretization of the maximal-slope gradient flow.
Both produce the least Rayleigh quotient, its contraction rate
mu = lambda^(1/(p-1)), and a properly rescaled limit vector; independent
oracles (dense Jacobi, direct sphere minimization, closed forms) verify
every computable claim.
"""

from .errors import ConfigError, DegenerateInputError, NumericsError, SpaceMismatchError
from .flow import FlowOptions, check_decay, local_slope, run_flow
from .inner import SolveReport, minimize_movement, minimize_phi_minus_linear
from .iterate import IterOptions, RunSummary, SchemeFailure, StopReason, Trace, check_monotonicity, iterate, rough_mu
from .oracles import (
    OracleMethod,
    OracleResult,
    direct_rayleigh_min,
    eigen_residual,
    oracle_lambda,
    symmetric_eigs,
)
from .problems import (
    FractionalSeminorm1D,
    MatrixQuadratic,
    NeumannQuotient1D,
    PDirichlet1D,
    PDirichlet2D,
    ProblemInstance,
    Robin1D,
    Steklov1D,
    SupDirichlet1D,
    assemble,
)
from .spaces import (
    Exponent,
    SpaceDescriptor,
    SpaceKind,
    mu_from_lambda,
    optimal_shift,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DegenerateInputError",
    "Exponent",
    "FlowOptions",
    "FractionalSeminorm1D",
    "IterOptions",
    "MatrixQuadratic",
    "NeumannQuotient1D",
    "NumericsError",
    "OracleMethod",
    "OracleResult",
    "PDirichlet1D",
    "PDirichlet2D",
    "ProblemInstance",
    "Robin1D",
    "RunSummary",
    "SchemeFailure",
    "SolveReport",
    "SpaceDescriptor",
    "SpaceKind",
    "SpaceMismatchError",
    "Steklov1D",
    "StopReason",
    "SupDirichlet1D",
    "Trace",
    "assemble",
    "check_decay",
    "check_monotonicity",
    "direct_rayleigh_min",
    "eigen_residual",
    "iterate",
    "local_slope",
    "minimize_movement",
    "minimize_phi_minus_linear",
    "mu_from_lambda",
    "optimal_shift",
    "oracle_lambda",
    "rough_mu",
    "run_flow",
    "symmetric_eigs",
]
