"""Closed forms and residuals that only the tests use."""

import numpy as np

from rayflow.errors import DegenerateInputError


def hilbert_closed_form(sigmas, a, k: int | None = None, t: float | None = None) -> np.ndarray:
    """Eigenbasis coordinates of the explicit diagonal-quadratic solutions.

    With spectrum ``sigmas`` (ascending, positive) and initial coordinates
    ``a``, returns a_j sigma_j^(-k) for the iteration or a_j e^(-sigma_j t)
    for the flow; exactly one of k and t must be given.
    """
    sig = np.asarray(sigmas, dtype=float)
    a = np.asarray(a, dtype=float)
    if sig.shape != a.shape or sig.ndim != 1:
        raise DegenerateInputError("sigmas and a must be 1-d arrays of equal length")
    if np.any(sig <= 0.0) or np.any(np.diff(sig) < 0.0):
        raise DegenerateInputError("sigmas must be ascending and positive")
    if (k is None) == (t is None):
        raise DegenerateInputError("give exactly one of k (step) or t (time)")
    if k is not None:
        return a * sig ** (-float(k))
    return a * np.exp(-sig * float(t))


def euler_identity_residual(inst, u) -> float:
    """|p Phi(u) - <grad Phi(u), u>| / max(1, p Phi(u)); exact homogeneity check."""
    u = inst.space.check_dim(u)
    pphi = inst.p * inst.value(u)
    paired = inst.space.pairing(inst.gradient(u), u)
    return abs(pphi - paired) / max(1.0, abs(pphi))
