"""Independent ground-truth routes for the least Rayleigh quotient.

None of these go through the iteration or flow schemes:

* ``symmetric_eigs``: Jacobi rotations for dense symmetric matrices, swept
  in round-robin rounds of disjoint pairs, each round applied at once.
  It does not call LAPACK.
* ``direct_rayleigh_min``: quasi-Newton descent of log R, for the
  quotient R(u) = p Phi(u)/||u||^p, on the unit sphere of the space norm,
  multi-start.  The sup-sphere is nonsmooth exactly at the minimizers, so
  ``SupDirichlet1D`` is solved in closed form instead: with the peak
  u_i = 1 fixed, Jensen's inequality makes the tent (equal differences on
  each side of i) the minimizer of the convex energy, and lambda is the
  least quotient over the n tents.

Every point the direct route finds gives an upper bound R(u) >= lambda.
Where the kind has one, ``ProblemInstance.lambda_lower`` gives a lower
bound at a positive u: lambda_lo(u) = min_i dPhi(u)_i / J_p(u)_i <= lambda.
It is the discrete Picone inequality, which holds edge by edge for an
energy that sums |u_i - u_j|^p over edges of nonnegative weight, ground
edges included (Amghibech, Ars Combin. 2003); summed over the edges and
tested with the ground state phi >= 0 it gives p Phi(phi) >=
lambda_lo ||phi||^p.  The kinds in scope are the pairwise energies on
weighted-Lp spaces: ``pdirichlet1d``, ``robin1d`` and ``fractional1d``.
Once [lambda_lo, R] is narrow, no restart can lower lambda by more than
its width, so the multistart stops there (see ``direct_rayleigh_min``).

What the direct route shares with the schemes is the line search only:
it runs ``inner.descend``, the loop the inner convex solves use.  The
quotient it minimizes, the eigen residual that drives it, the lower bound
that stops it, and so lambda and the certificate, come from the problem
primitives (value, gradient, norm, duality map) alone, never from a
scheme's subproblem or its output.  The sup tents likewise only evaluate
those primitives on n explicit vectors; the sup flow's taut-string box
solve plays no part.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegenerateInputError
from .inner import descend
from .problems import ProblemInstance, start_vector
from .spaces import optimal_shift, pow2_scale, unit_representative  # noqa: F401 (perfbench traces it here)

__all__ = [
    "OracleMethod",
    "OracleResult",
    "symmetric_eigs",
    "direct_rayleigh_min",
    "oracle_lambda",
    "eigen_residual",
]

DEFAULT_SEED = 0x5EED
#: random starts and certificate tolerance of an oracle run, unless configured
DEFAULT_RESTARTS = 16
DEFAULT_TOL = 1e-8
#: the multistart stops once the polished first start has
#: (R - lambda_lo) <= BRACKET_RTOL R; the benchmark checks lambda to 1e-6
BRACKET_RTOL = 1e-6
#: sweep budget of symmetric_eigs; dense dim-32 SPD matrices B'B/32 + I
#: converge in 7-8 round-robin sweeps
JACOBI_MAX_SWEEPS = 60


class OracleMethod(Enum):
    JACOBI_EIG = "jacobi_eig"
    PROJECTED_GRADIENT = "projected_gradient"
    CLOSED_FORM = "closed_form"


@dataclass
class OracleResult:
    lambda_star: float
    minimizer: np.ndarray
    method: OracleMethod
    certificate: float
    #: the Picone lower bound at the minimizer; None where the kind has none
    lambda_lower: float | None = None


def check_oracle_options(restarts, tol):
    """Refuse a restart count that is not a nonnegative integer, or a tol not positive and finite."""
    if not (isinstance(restarts, (int, np.integer)) and restarts >= 0):
        raise DegenerateInputError(f"restarts: must be a nonnegative integer, got {restarts}")
    if not (0.0 < tol < math.inf):
        raise DegenerateInputError(f"tol: must be a positive finite number, got {tol}")


def eigen_residual(inst: ProblemInstance, u, lam: float) -> float:
    """Relative dual-norm residual of the eigen-relation dPhi(u) = lam J_p(u)."""
    space = inst.space
    u = space.check_dim(u)
    m = float(np.abs(u).max())
    if m == 0.0:
        raise DegenerateInputError("eigen residual undefined at zero")
    u = pow2_scale(u)[0]  # exact: a vector exact as given keeps its bits
    g = inst.gradient(u)
    j = space.duality_map(u)
    ref = lam * space.dual_norm(j)
    return space.dual_norm(g - lam * j) / max(ref, 1e-300)


def _round_robin(n):
    """The rounds of one Jacobi sweep over an n x n matrix, as (P, Q) index arrays.

    Round-robin (circle) order of Brent and Luk (SIAM J. Sci. Stat. Comput.
    6, 1985): index 0 stays put while the others turn one place per round,
    and position i is paired with position m - 1 - i, for m = n rounded up
    to even.  An odd n gets a dummy index n whose pairs are dropped.  The
    m - 1 rounds rotate every unordered pair p < q exactly once, and the
    pairs of one round are disjoint.
    """
    m = n + n % 2
    rounds = []
    for r in range(m - 1):
        order = np.concatenate(([0], np.roll(np.arange(1, m), -r)))
        p, q = order[: m // 2], order[::-1][: m // 2]
        p, q = np.minimum(p, q), np.maximum(p, q)
        rounds.append((p[q < n], q[q < n]))
    return rounds


def symmetric_eigs(a):
    """Eigendecomposition of a dense symmetric matrix by Jacobi sweeps in rounds.

    Each rotation is the symmetric Schur step A <- J^T A J of Golub and
    Van Loan (Matrix Computations, sec. 8.5), which zeroes a_pq.  A sweep
    rotates every pair once, in the round-robin rounds of ``_round_robin``.
    The rotations of a round act on disjoint index pairs, so they form one
    orthogonal J, and their angles come from the entries before the round;
    pairs with |a_pq| <= 1e-14 ||A||_F / n are skipped.  A round is applied
    as row-pair updates: J^T to the rows of A and of V^T, a transpose of A,
    and J^T to its rows again.  That gives J^T (J^T A)^T = (J^T A J)^T,
    which is the rotated matrix up to rounding, as A is symmetric.  Returns
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
    if scale == 0.0:
        return np.zeros(n), np.eye(n)
    av = np.hstack((0.5 * (a + a.T), np.eye(n)))  # [A | V^T]: one row update rotates both
    a = av[:, :n]

    def offdiag(m):
        # not sqrt(||m||_F^2 - ||diag m||^2): that difference cancels to
        # about sqrt(eps) ||m||_F and would never reach the stop rule
        return float(np.linalg.norm(m - np.diag(np.diag(m))))

    def rotate_rows(m, p, q, c, s):
        rp, rq = m[p], m[q]
        m[p] = c * rp - s * rq
        m[q] = s * rp + c * rq

    stop = 1e-12 * scale
    skip = 1e-14 * scale / max(n, 1)
    rounds = _round_robin(n)
    sweeps = 0
    while (off := offdiag(a)) > stop:
        if sweeps == JACOBI_MAX_SWEEPS:
            raise DegenerateInputError(
                f"Jacobi sweeps did not converge: {JACOBI_MAX_SWEEPS} sweeps left off-diagonal norm "
                f"{off:.3g} > {stop:.3g}"
            )
        sweeps += 1
        for p, q in rounds:
            keep = np.abs(a[p, q]) > skip
            p, q = p[keep], q[keep]
            apq = a[p, q]
            theta = (a[q, q] - a[p, p]) / (2.0 * apq)
            t = np.copysign(1.0, theta) / (np.abs(theta) + np.hypot(1.0, theta))
            c = 1.0 / np.sqrt(1.0 + t * t)
            c, s = c[:, None], (t * c)[:, None]
            rotate_rows(av, p, q, c, s)
            a[...] = a.T.copy()
            rotate_rows(a, p, q, c, s)
    w = np.diag(a).copy()
    order = np.argsort(w, kind="stable")
    return w[order], av[:, n:].T[:, order]


def _unit(inst, u):
    """Project to the unit sphere of the space norm (recentred for quotients,
    by the shift the norm solves)."""
    t, n = inst.space.representative_norm(u)
    if n == 0.0:
        raise DegenerateInputError("cannot normalize zero-norm start")
    return t / n


def _spg(inst, u0, tol, max_iters):
    """Descent of the Rayleigh quotient on the unit sphere of the space norm.

    ``inner.descend`` with the sphere retraction ``_unit`` on log(R)/p.
    On the unit sphere the gradient of log(R)/p is exactly the eigen
    residual dPhi(u) - lam J_p(u) relative to lam ||J_p(u)||_*, so its dual
    norm is the certificate.  The logarithm keeps the Armijo test resolved
    where R itself is huge (R ~ 1e12 at large p), and the value and the
    residual of one point share one quotient evaluation.  Returns (u, lam,
    certificate), lam the quotient at u.
    """
    space = inst.space
    last = None  # (u, R(u)) of the last point: descend hands value and residual one array

    def quotient(u):
        nonlocal last
        if last is None or last[0] is not u:
            last = u, inst.rayleigh(u)
        return last[1]

    def value(u):
        lam = quotient(u)
        return math.log(lam) / inst.p if lam > 0.0 else -math.inf

    def residual(u):
        lam = quotient(u)
        j = space.duality_map(u)
        return (inst.gradient(u) - lam * j) / max(lam * space.dual_norm(j), 1e-300)

    w = space.pairing_weights()
    u, _, cert, _, _ = descend(
        _unit(inst, u0), value, residual, space.dual_norm, tol, max_iters, w, project=lambda u: _unit(inst, u)
    )
    return u, inst.rayleigh(u), cert


def _bracketed(inst, u, tol):
    """The first start's coarse point polished to ``tol``, as the result, if
    the Picone bound certifies it as the minimum: positive, certificate at
    most ``tol`` and (R - lambda_lo) <= BRACKET_RTOL R.  Else None."""
    if inst.lambda_lower(u) is None:
        return None  # no bound for the kind, or a coarse point that changes sign
    u, lam, cert = _spg(inst, u, tol, 50_000)
    lower = inst.lambda_lower(u)
    if lower is None or not (cert <= tol and lam - lower <= BRACKET_RTOL * lam):
        return None
    return OracleResult(lam, unit_representative(inst.space, u, 1.0), OracleMethod.PROJECTED_GRADIENT, cert, lower)


def direct_rayleigh_min(
    inst: ProblemInstance,
    restarts: int = DEFAULT_RESTARTS,
    tol: float = DEFAULT_TOL,
    seed: int = DEFAULT_SEED,
) -> OracleResult:
    """Direct minimization of p Phi(u)/||u||^p over the unit sphere.

    Runs the generic start ``start_vector(inst, "auto", seed)`` and
    ``restarts`` seeded random starts at a coarse tolerance, keeps the best
    by value (first on ties), then polishes it to the requested certificate
    tolerance (``check_oracle_options`` validates both).  The certificate
    is the relative dual-norm residual of dPhi(u) - lambda J_p(u).  The
    returned unit minimizer is sign-normalized like ``unit_representative``'s:
    its largest-magnitude entry is positive, whichever sign the winning start
    converged to.

    Stop rule: where the kind has the Picone bound (module docstring) and
    the generic start's coarse descent met its tolerance, that point is
    polished at once.  If the polished point is positive, certified, and
    its bound lambda_lo has (R - lambda_lo) <= BRACKET_RTOL R, it is
    returned: no restart can lower lambda by more than that.  Otherwise
    the restarts run as above, and the early polish takes no part in the
    choice.  ``lambda_lower`` of the result is the bound at the returned
    minimizer, or None.

    ``SupDirichlet1D`` needs no search.  A unit-sup minimizer peaks at some
    node, u_i = 1 up to sign.  Phi is a sum of one convex function of each
    difference, and the differences left of i sum to u_i - 0 (right of i to
    0 - u_i).  By Jensen's inequality Phi over {u_i = 1} is least when each
    side's differences are equal: the tent u_j = j/i for j <= i and
    (n+1-j)/(n+1-i) for j >= i, for every p.  The tent lies in the
    unit sup ball, so lambda is the least quotient of the n tents, and the
    method is ``closed_form``.
    """
    check_oracle_options(restarts, tol)
    space = inst.space
    if inst.kind == "supdirichlet1d":
        n = space.dim
        j = np.arange(1, n + 1)
        tents = (np.where(j <= i, j / i, (n + 1 - j) / (n + 1 - i)) for i in range(1, n + 1))
        lam, u = min(((inst.rayleigh(t), t) for t in tents), key=lambda c: c[0])
        return OracleResult(lam, u, OracleMethod.CLOSED_FORM, eigen_residual(inst, u, lam))
    if space.dim > 256:
        raise DegenerateInputError("direct oracle is limited to dim <= 256")

    starts = [start_vector(inst, "auto", seed), *np.random.default_rng(seed).standard_normal((restarts, space.dim))]

    best = None
    coarse = max(tol, 1e-5)
    for idx, u0 in enumerate(starts):
        try:
            u, lam, cert = _spg(inst, u0, coarse, 800)
        except DegenerateInputError:
            continue
        # a coarse descent that stalls short of its tolerance is not polished early
        if idx == 0 and cert <= coarse and (done := _bracketed(inst, u, tol)) is not None:
            return done
        if best is None or lam < best[0]:
            best = (lam, u)
    if best is None:
        raise DegenerateInputError("all oracle starts were degenerate")
    u, lam, cert = _spg(inst, best[1], tol, 50_000)
    u = unit_representative(inst.space, u, 1.0)
    return OracleResult(lam, u, OracleMethod.PROJECTED_GRADIENT, cert, inst.lambda_lower(u))


def oracle_lambda(inst: ProblemInstance, restarts: int = DEFAULT_RESTARTS, tol: float = DEFAULT_TOL) -> OracleResult:
    """Best available independent oracle for an instance.

    Matrix instances use the Jacobi eigensolver; everything else goes
    through direct Rayleigh minimization.  Both check their options first.
    """
    check_oracle_options(restarts, tol)
    if inst.kind == "matrix":
        w, v = symmetric_eigs(inst.matrix)
        u = unit_representative(inst.space, v[:, 0], 1.0)  # a unit vector, sign-normalized
        lam = float(w[0])
        return OracleResult(lam, u, OracleMethod.JACOBI_EIG, eigen_residual(inst, u, lam))
    return direct_rayleigh_min(inst, restarts, tol)
