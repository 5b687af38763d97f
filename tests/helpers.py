"""Closed forms, residuals and state records that only the tests use."""

import importlib

import numpy as np

from rayflow.errors import DegenerateInputError
from rayflow.problems import DenseHessian


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


def hessian_matrix(h) -> np.ndarray:
    """The n x n matrix of a Hessian hook's operator (a ``DenseHessian``'s
    own matrix, or a ``BandHessian`` filled in)."""
    if isinstance(h, DenseHessian):
        return h.matrix
    return np.diag(h.diag) + np.diag(h.off, 1) + np.diag(h.off, -1)


def euler_identity_residual(inst, u) -> float:
    """|p Phi(u) - <grad Phi(u), u>| / max(1, p Phi(u)); exact homogeneity check."""
    u = inst.space.check_dim(u)
    pphi = inst.p * inst.value(u)
    paired = inst.space.pairing(inst.gradient(u), u)
    return abs(pphi - paired) / max(1.0, abs(pphi))


def record_states(monkeypatch, u0) -> list:
    """The states of the next scheme run from u0: [u0], then a copy of each
    inner solve's minimizer as it returns.

    Wraps ``minimize_phi_minus_linear`` and ``minimize_movement`` where
    ``rayflow.iterate`` and ``rayflow.flow`` look them up, as perfbench's
    tracer does, so only the solves run after this call are recorded.
    """
    states = [np.array(u0, dtype=float)]
    for module, name in (("rayflow.iterate", "minimize_phi_minus_linear"), ("rayflow.flow", "minimize_movement")):
        module = importlib.import_module(module)

        def recorded(*args, _solve=getattr(module, name), **kwargs):
            rep = _solve(*args, **kwargs)
            states.append(rep.minimizer.copy())
            return rep

        monkeypatch.setattr(module, name, recorded)
    return states
