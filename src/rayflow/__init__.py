"""Approximation of least Rayleigh quotients for degree-p homogeneous energies.

Two schemes drive a strictly convex p-homogeneous energy toward its ground
state: inverse iteration through the duality map, and the implicit
minimizing-movement discretization of the maximal-slope gradient flow.
Both produce the least Rayleigh quotient, its contraction rate
mu = lambda^(1/(p-1)), and a properly rescaled limit vector; independent
oracles (dense Jacobi, direct sphere minimization, closed forms) verify
every computable claim.
"""

__version__ = "0.1.0"
