"""Independent ground-truth routes for the least Rayleigh quotient.

None of these go through the iteration or flow schemes:

* ``symmetric_eigs``: cyclic Jacobi rotations for dense symmetric matrices.
* ``direct_rayleigh_min``: quasi-Newton descent of p Phi(u)/||u||^p on the
  unit sphere of the space norm, multi-start.  The sup-sphere is nonsmooth
  exactly at the minimizers, so ``SupDirichlet1D`` is solved in closed
  form instead: with the peak u_i = 1 fixed, Jensen's inequality makes the
  tent (equal differences on each side of i) the minimizer of the convex
  energy, and lambda is the least quotient over the n tents.
* ``hilbert_closed_form``: the explicit diagonal-quadratic solution
  sequences used to cross-check both schemes step by step.

What the direct route shares with the schemes is the line search only:
it runs ``inner.descend``, the loop the inner convex solves use.  The
quotient it minimizes, the eigen residual that drives it, and so lambda
and the certificate, come from the problem primitives (value, gradient,
norm, duality map) alone, never from a scheme's subproblem or its output.
The sup tents likewise only evaluate those primitives on n explicit
vectors; the sup flow's taut-string box solve plays no part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateInputError
from .inner import descend
from .problems import ProblemInstance
from .spaces import CoeffVec, SpaceKind, as_array, optimal_shift

__all__ = [
    "OracleMethod",
    "OracleResult",
    "symmetric_eigs",
    "direct_rayleigh_min",
    "oracle_lambda",
    "hilbert_closed_form",
    "eigen_residual",
]

DEFAULT_SEED = 0x5EED
#: sweep budget of symmetric_eigs; dense dim-32 SPD matrices converge in 7-8
JACOBI_MAX_SWEEPS = 60


class OracleMethod(Enum):
    JACOBI_EIG = "jacobi_eig"
    PROJECTED_GRADIENT = "projected_gradient"
    CLOSED_FORM = "closed_form"


@dataclass
class OracleResult:
    lambda_star: float
    minimizer: CoeffVec
    method: OracleMethod
    certificate: float


def eigen_residual(inst: ProblemInstance, u, lam: float) -> float:
    """Relative dual-norm residual of the eigen-relation dPhi(u) = lam J_p(u)."""
    space = inst.space
    u = space.check_dim(as_array(u))
    m = float(np.max(np.abs(u)))
    if m == 0.0:
        raise DegenerateInputError("eigen residual undefined at zero")
    u = u / 2.0 ** math.frexp(m)[1]  # a power of 2 at or above max |u|: the scaling is exact
    g = inst.gradient(u)
    j = space.duality_map(u).values
    ref = lam * space.dual_norm(j)
    return space.dual_norm(g - lam * j) / max(ref, 1e-300)


def symmetric_eigs(a):
    """Eigendecomposition of a dense symmetric matrix by cyclic Jacobi sweeps.

    Each rotation is the symmetric Schur step A <- J^T A J of Golub and
    Van Loan (Matrix Computations, sec. 8.5), which zeroes a_pq.  Returns
    (eigenvalues ascending, eigenvectors as columns).  Sweeps stop when the
    off-diagonal Frobenius norm, summed directly over the off-diagonal
    entries, drops below 1e-12 ||A||_F; if JACOBI_MAX_SWEEPS sweeps leave it
    above that, DegenerateInputError is raised.
    """
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DegenerateInputError("matrix must be square")
    n = a.shape[0]
    if n > 512:
        raise DegenerateInputError("Jacobi oracle is limited to dim <= 512")
    scale = float(np.linalg.norm(a))
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * max(1.0, scale)):
        raise DegenerateInputError("matrix must be symmetric")
    a = 0.5 * (a + a.T)
    v = np.eye(n)
    if scale == 0.0:
        return np.zeros(n), v

    def offdiag(m):
        # not sqrt(||m||_F^2 - ||diag m||^2): that difference cancels to
        # about sqrt(eps) ||m||_F and would never reach the stop rule
        return float(np.linalg.norm(m - np.diag(np.diag(m))))

    stop = 1e-12 * scale
    sweeps = 0
    while (off := offdiag(a)) > stop:
        if sweeps == JACOBI_MAX_SWEEPS:
            raise DegenerateInputError(
                f"Jacobi sweeps did not converge: {JACOBI_MAX_SWEEPS} sweeps left off-diagonal norm "
                f"{off:.3g} > {stop:.3g}"
            )
        sweeps += 1
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-14 * scale / max(n, 1):
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                rot = np.array([[c, -s], [s, c]])  # J^T restricted to rows p, q
                a[[p, q], :] = rot @ a[[p, q], :]
                a[:, [p, q]] = a[:, [p, q]] @ rot.T
                v[:, [p, q]] = v[:, [p, q]] @ rot.T
    w = np.diag(a).copy()
    order = np.argsort(w, kind="stable")
    return w[order], v[:, order]


def _unit(inst, u):
    """Project to the unit sphere of the space norm (recentred for quotients)."""
    space = inst.space
    if space.kind is SpaceKind.QUOTIENT_LP:
        u = u + optimal_shift(u, space)
    n = space.norm(u)
    if n == 0.0:
        raise DegenerateInputError("cannot normalize zero-norm start")
    return u / n


def _spg(inst, u0, tol, max_iters):
    """Descent of the Rayleigh quotient on the unit sphere of the space norm.

    ``inner.descend`` with the sphere retraction ``_unit``; the gradient is
    the eigen residual dPhi(u) - lam J_p(u) relative to lam ||J_p(u)||_*,
    so its dual norm is the certificate.  Returns (u, lam, certificate).
    """
    space = inst.space

    def residual(u):
        lam = inst.rayleigh(u)
        j = space.duality_map(u).values
        return (inst.gradient(u) - lam * j) / max(lam * space.dual_norm(j), 1e-300)

    w = space.pairing_weights()
    u, lam, cert, _, _ = descend(
        _unit(inst, u0), inst.rayleigh, residual, space.dual_norm, tol, max_iters, w, project=lambda u: _unit(inst, u)
    )
    return u, lam, cert


def direct_rayleigh_min(
    inst: ProblemInstance,
    restarts: int = 16,
    tol: float = 1e-8,
    seed: int = DEFAULT_SEED,
) -> OracleResult:
    """Direct minimization of p Phi(u)/||u||^p over the unit sphere.

    Runs ``restarts`` seeded random starts plus the all-ones start at a
    coarse tolerance, keeps the best by (value, start index), then polishes
    it to the requested certificate tolerance.  The certificate is the
    relative dual-norm residual of dPhi(u) - lambda J_p(u).

    ``SupDirichlet1D`` needs no search.  A unit-sup minimizer peaks at some
    node, u_i = 1 up to sign.  Phi is a sum of one convex function of each
    difference, and the differences left of i sum to u_i - 0 (right of i to
    0 - u_i).  By Jensen's inequality Phi over {u_i = 1} is least when each
    side's differences are equal: the tent u_j = j/i for j <= i and
    (n+1-j)/(n+1-i) for j >= i, for every p and eps.  The tent lies in the
    unit sup ball, so lambda is the least quotient of the n tents, and the
    method is ``closed_form``.
    """
    space = inst.space
    if space.dim > 256:
        raise DegenerateInputError("direct oracle is limited to dim <= 256")
    if inst.kind == "supdirichlet1d":
        n = space.dim
        j = np.arange(1, n + 1)
        tents = (np.where(j <= i, j / i, (n + 1 - j) / (n + 1 - i)) for i in range(1, n + 1))
        lam, u = min(((inst.rayleigh(t), t) for t in tents), key=lambda c: c[0])
        return OracleResult(lam, CoeffVec(u, space), OracleMethod.CLOSED_FORM, eigen_residual(inst, u, lam))

    rng = np.random.default_rng(seed)
    starts = [np.ones(space.dim)]
    if space.kind is SpaceKind.QUOTIENT_LP:
        starts = [np.linspace(-1.0, 1.0, space.dim)]  # ones is the zero class
    starts += [rng.standard_normal(space.dim) for _ in range(restarts)]

    best = None
    coarse = max(tol, 1e-5)
    for idx, u0 in enumerate(starts):
        try:
            u, lam, _ = _spg(inst, u0, coarse, 800)
        except DegenerateInputError:
            continue
        if best is None or lam < best[0]:
            best = (lam, idx, u)
    if best is None:
        raise DegenerateInputError("all oracle starts were degenerate")
    u, lam, cert = _spg(inst, best[2], tol, 50_000)
    return OracleResult(lam, CoeffVec(u, space), OracleMethod.PROJECTED_GRADIENT, cert)


def oracle_lambda(inst: ProblemInstance, restarts: int = 16, tol: float = 1e-8, seed: int = DEFAULT_SEED) -> OracleResult:
    """Best available independent oracle for an instance.

    Matrix instances use the Jacobi eigensolver; everything else goes
    through direct Rayleigh minimization.
    """
    if inst.kind == "matrix":
        w, v = symmetric_eigs(inst.matrix)
        u = v[:, 0]
        i = int(np.argmax(np.abs(u)))
        if u[i] < 0.0:
            u = -u
        lam = float(w[0])
        return OracleResult(lam, CoeffVec(u, inst.space), OracleMethod.JACOBI_EIG, eigen_residual(inst, u, lam))
    return direct_rayleigh_min(inst, restarts, tol, seed)


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
