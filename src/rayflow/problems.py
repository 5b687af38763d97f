"""Discretized degree-p homogeneous energies and their gradients.

Each problem instance couples an energy value/gradient pair with the normed
space its Rayleigh quotient is taken in:

* ``MatrixQuadratic``       0.5 u'Au on Euclidean R^n (p = 2 only)
* ``PDirichlet2D``          (h^2/p) sum |grad u|^p on a uniform square grid,
                            zero boundary, weighted-Lp norm
* ``FractionalSeminorm1D``  (h^2/p) sum_{i!=j} |u_i-u_j|^p / |x_i-x_j|^(1+ps),
                            zero-extended on a collar of 2n nodes, which
                            folds into a per-node weight on |u_i|^p

The five 1D difference kinds share one chain energy, the graph p-Laplacian
energy (1/p) sum_e c_e |u_i - u_j|^p of a path: edges of weight h^(1-p)
join neighbouring nodes, and ground edges join some nodes to a node held
at 0.  The kinds differ in their ground edges and their space:

* ``PDirichlet1D``          ground edges of weight h^(1-p) at both ends (the
                            zero boundary values), weighted-Lp norm
* ``SupDirichlet1D``        the same energy paired with the sup norm
* ``Robin1D``               ground edges of weight beta at both ends of a
                            free grid, weighted-Lp norm
* ``NeumannQuotient1D``     no ground edges, quotient-Lp norm
* ``Steklov1D``             a ground edge of weight h at every node (the
                            mass term), boundary trace norm

Gradients are returned in dual coordinates: the array g with
d(value) = sum_i w_i g_i delta_i for the pairing weights w of the space.
Every energy is positively homogeneous of degree p, which the inner solves,
``rayleigh`` and the eigen residual rely on to rescale their data exactly.
"""

from __future__ import annotations

import inspect
import math
import sys

import numpy as np

from .errors import ConfigError, DegenerateInputError, NumericsError
from .spaces import (
    SpaceDescriptor,
    SpaceKind,
    pow2_scale,
    signed_power,
    smoothed_curvature,
)

__all__ = [
    "ProblemInstance",
    "MatrixQuadratic",
    "PDirichlet1D",
    "PDirichlet2D",
    "FractionalSeminorm1D",
    "Robin1D",
    "NeumannQuotient1D",
    "SupDirichlet1D",
    "Steklov1D",
    "assemble",
    "start_vector",
]


def _power_sum(t, p, weight=None):
    """sum of weight |t|^p; the weight is 1 if None."""
    a = np.abs(t) ** p
    return float((a if weight is None else a * weight).sum())


#: iterations allowed to a scalar root (the flux closures, the sup radius)
ROOT_MAX_ITERS = 200


def _increasing_root(f, lo, hi, ends=None):
    """Root of an increasing scalar function with f(lo) <= 0 <= f(hi).

    Illinois-weighted secant steps (the stale end's value is halved when
    one end moves twice in a row; Dowell and Jarratt, BIT 1971), with
    bisection whenever the secant point leaves the open bracket or the
    bracket has not halved over the last two steps.  Stops once no float
    lies strictly inside the bracket, or at a residual within 4 ulp of
    |f(lo)| + |f(hi)|, which bounds the sum of the absolute terms at any
    point of the bracket for the flux closures; an exact 0.0 always stops
    it, and the sup movement step returns one once its own test passes.
    ``ends`` = (f(lo), f(hi)) if the caller has them; f is then not called
    at the ends again.  The callers are the exact gradient solves' flux
    closures and the radius of ``inner._sup_movement``.  Returns (root,
    iterations), not counting the ends; the root is nan if f is not finite.
    """
    f_lo, f_hi = (f(lo), f(hi)) if ends is None else ends
    if not (math.isfinite(f_lo) and math.isfinite(f_hi)):
        return math.nan, 0
    if f_lo >= 0.0 or f_hi <= 0.0:
        return (lo if abs(f_lo) <= abs(f_hi) else hi), 0
    ftol = 4.0 * np.finfo(float).eps * (abs(f_lo) + abs(f_hi))
    x, iters, side = lo, 0, 0
    width_before = [math.inf, math.inf]
    while iters < ROOT_MAX_ITERS:
        width = hi - lo
        x = hi - f_hi * width / (f_hi - f_lo)
        if not lo < x < hi or width > 0.5 * width_before[0]:
            x = 0.5 * (lo + hi)
            if not lo < x < hi:
                break
        width_before = [width_before[1], width]
        fx = f(x)
        iters += 1
        if not math.isfinite(fx):
            return math.nan, iters
        if abs(fx) <= ftol:
            break
        if fx < 0.0:
            if side < 0:
                f_hi *= 0.5
            lo, f_lo, side = x, fx, -1
        else:
            if side > 0:
                f_lo *= 0.5
            hi, f_hi, side = x, fx, 1
    return x, iters


class BandHessian:
    """A symmetric tridiagonal Hessian (diag, off), solved by a Thomas sweep
    without pivoting, as it is positive definite where it is solved (None on
    a zero pivot).  A band whose kernel holds the constants (the quotient's)
    carries the weights w of its mean: ``solve`` pins node 0 and fits the
    constant against the diagonal ``add_diagonal`` added, or where that
    vanishes returns the solution of zero w-mean."""

    def __init__(self, diag, off, mean_weights=None, added=None):
        self.diag, self.off, self.mean_weights, self.added = diag, off, mean_weights, added

    def add_diagonal(self, dg):
        return BandHessian(self.diag + dg, self.off, self.mean_weights, dg)

    def quad(self, s) -> float:
        return float(s @ (self.diag * s) + 2.0 * s[:-1] @ (self.off * s[1:]))

    def _sweep(self, rhs, k=0):  # on rows and columns k onward
        d, e, x = self.diag[k:].tolist(), self.off[k:].tolist(), rhs[k:].tolist()
        for i in range(1, len(d)):
            m = e[i - 1] / d[i - 1]
            d[i] -= m * e[i - 1]
            x[i] -= m * x[i - 1]
        x[-1] /= d[-1]
        for i in range(len(d) - 2, -1, -1):
            x[i] = (x[i] - e[i] * x[i + 1]) / d[i]
        return np.array(x)

    def solve(self, b):
        try:
            if self.mean_weights is None:
                return self._sweep(b)
            w, dg = self.mean_weights, np.zeros(len(b)) if self.added is None else self.added
            vb, vd = self._sweep(b, 1), self._sweep(dg, 1)
        except ZeroDivisionError:
            return None
        schur = dg.sum() - dg[1:] @ vd
        alpha = (b.sum() - dg[1:] @ vb) / schur if schur > 1e-14 * dg.sum() else 0.0
        d = np.concatenate(([0.0], vb - alpha * vd)) + alpha
        if alpha == 0.0:
            d -= (w * d).sum() / w.sum()
        return d


class DenseHessian:
    """A dense symmetric Hessian, solved by ``np.linalg.solve`` (None where singular)."""

    def __init__(self, matrix):
        self.matrix = matrix

    def add_diagonal(self, dg):
        a = self.matrix.copy()
        a.flat[:: len(dg) + 1] += dg
        return DenseHessian(a)

    def quad(self, s) -> float:
        return float(s @ self.matrix @ s)

    def solve(self, b):
        try:
            return np.linalg.solve(self.matrix, b)
        except np.linalg.LinAlgError:
            return None


class ProblemInstance:
    """Base class: energy value, gradient in dual coordinates, and space."""

    kind = "abstract"
    #: Phi sums |u_i - u_j|^p over edges of nonnegative weight, ground edges
    #: (u_j = 0) included: the Picone bound of ``lambda_lower`` holds for it
    pairwise = False

    def __init__(self, space: SpaceDescriptor):
        self.space = space
        self.p, self.q = space.p, space.q

    def value(self, u) -> float:
        raise NotImplementedError

    def _gradient(self, u) -> np.ndarray:
        raise NotImplementedError

    def gradient(self, u) -> np.ndarray:
        g = self._gradient(self.space.check_dim(u))
        bad = ~np.isfinite(g)
        if bad.any():
            raise NumericsError(f"non-finite gradient entry at index {int(bad.argmax())}")
        return g

    def solve_gradient(self, xi):
        """(u, root iterations) with gradient(u) = xi in closed form, or None
        where the kind has no exact solve (the inner solver then descends)."""
        return None

    def hessian(self, u):
        """The Euclidean Hessian of Phi at u: a ``BandHessian`` or a
        ``DenseHessian``, or None where the kind has none (descend then takes
        L-BFGS directions)."""
        return None

    def lambda_lower(self, u):
        """The Picone lower bound min_i dPhi(u)_i / J_p(u)_i <= lambda at a
        positive u (or at -u), or None.

        For a ``pairwise`` energy and phi >= 0, the discrete Picone
        inequality holds edge by edge: c |phi_i - phi_j|^p is at least
        c |u_i - u_j|^(p-2) (u_i - u_j) (phi_i^p / u_i^(p-1) - phi_j^p / u_j^(p-1)),
        with equality on a ground edge (phi_j = u_j = 0).  Summed over the
        edges, p Phi(phi) >= <dPhi(u), phi^p / u^(p-1)> >= lambda_lo ||phi||^p
        on a weighted-Lp space, where J_p(u) = u^(p-1).  The ground state
        may be taken >= 0, as Phi(|u|) <= Phi(u), so lambda >= lambda_lo
        (Amghibech, Ars Combin. 2003; the Collatz-Wielandt bound of the
        nonlinear inverse power method, Hein and Buehler, NIPS 2010).
        None for other kinds or spaces, at a state with a zero entry or a
        sign change, and where u^(p-1) leaves the normal double range.
        """
        if not self.pairwise or self.space.kind is not SpaceKind.WEIGHTED_LP:
            return None
        u = self.space.check_dim(u)
        u = u if u[0] > 0.0 else -u
        m = float(u.max())
        if not ((u > 0.0).all() and m < math.inf):
            return None
        u = pow2_scale(u)[0]
        j = self.space.duality_map(u)
        if j.min() < np.finfo(float).tiny:
            return None
        with np.errstate(over="ignore"):  # a ratio past the double range is +-inf, still a bound
            return float((self.gradient(u) / j).min())

    def rayleigh(self, u) -> float:
        # homogeneity makes the quotient scale-free: evaluate at u / 2^k
        # (``pow2_scale``) so extreme magnitudes never under/overflow the powers
        y = pow2_scale(self.space.check_dim(u))[0]
        return self.quotient(self.value(y), self.space.norm(y))

    def quotient(self, phi, norm) -> float:
        """p phi / norm^p, the quotient at y = u / 2^k from Phi(y) and ||y||;
        raises at norm 0, or where norm^p underflows (a tiny trace of u)."""
        if (norm_p := norm**self.p) == 0.0:
            cause = f"||y||^p underflows at ||y|| = {norm:.3g} (y = u / 2^k, max|y| >= 1/2)" if norm else "u is zero"
            raise DegenerateInputError(f"Rayleigh quotient undefined: {cause}")
        return self.p * phi / norm_p


class MatrixQuadratic(ProblemInstance):
    """0.5 u'Au for a symmetric positive definite A, given as ``matrix`` (rows
    of equal length) or as its ``diag``; Euclidean norm, p = 2 only."""

    kind = "matrix"

    def __init__(self, matrix=None, diag=None, p=2.0):
        if p != 2.0:
            raise ConfigError(f"p: matrix instances require p = 2, got {p}")
        if (matrix is None) == (diag is None):
            raise ConfigError("matrix: give exactly one of 'matrix' and 'diag'")
        key = "matrix" if diag is None else "diag"
        try:
            a = np.asarray(matrix if diag is None else diag, dtype=float)
        except (TypeError, ValueError):
            raise ConfigError(f"{key}: expected numbers in rows of equal length") from None
        if diag is not None and (a.ndim != 1 or a.size == 0):
            raise ConfigError(f"diag: expected a nonempty list of numbers, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise ConfigError(f"{key}: entries must be finite")
        a = a if diag is None else np.diag(a)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
            raise ConfigError("matrix: must be square and nonempty")
        if not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(a).max()))):
            raise ConfigError("matrix: must be symmetric")
        try:
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            raise ConfigError("matrix: must be positive definite") from None
        self.matrix = a
        super().__init__(SpaceDescriptor(SpaceKind.WEIGHTED_LP, a.shape[0], 2.0, weight=1.0))

    def value(self, u) -> float:
        u = self.space.check_dim(u)
        return 0.5 * float(u @ self.matrix @ u)

    def _gradient(self, u) -> np.ndarray:
        return self.matrix @ u

    def hessian(self, u):
        return DenseHessian(self.matrix)


#: the largest grid numpy can index: the biggest grid array, the fractional
#: kernel's n x 3n doubles, then holds at most sys.maxsize bytes
MAX_N = math.isqrt(sys.maxsize // 24)


def _grid(p, n, L):
    """(p, n, L) of a grid kind, n an int and p and L floats; p <= 1, a
    non-integer or nonpositive n or one above MAX_N, or a nonpositive or
    non-finite L (or p) raises the ConfigError naming its key."""
    if not (1.0 < p < math.inf):
        raise ConfigError(f"p: must be finite and > 1, got {p}")
    if not (n >= 1 and float(n).is_integer()):
        raise ConfigError(f"n: must be a positive integer, got {n}")
    if n > MAX_N:
        raise ConfigError(f"n: must be at most {MAX_N}, the largest grid numpy can index, got {n}")
    if not (0.0 < L < math.inf):
        raise ConfigError(f"L: must be a positive finite number, got {L}")
    return float(p), int(n), float(L)


class _Chain1D(ProblemInstance):
    """The chain energy of the 1D difference kinds (see the module docstring).

    Phi(u) = (h/p) sum |Du/h|^p + (m/p) sum_{i in ground} |u_i|^p, with
    m = ``mass``.  ``zero_padded`` grids have n interior nodes of (0, L),
    h = L/(n+1), and both ends held at zero, which adds the two end
    differences; free grids have n >= 2 nodes spanning [0, L], h = L/(n-1),
    and no flux through their ends.  Each kind is a constructor: its grid,
    space and ground edges, plus its exact solves.
    """

    pairwise = True
    zero_padded = False
    #: nodes with an edge of weight ``mass`` to the ground; None for none
    ground = None
    mass = 0.0

    def __init__(self, p, n, L, space_kind, **space_args):
        p, n, L = _grid(p, n, L)
        self.n, self.L = n, L
        if not self.zero_padded and n < 2:
            raise ConfigError(f"n: kind {self.kind!r} needs n >= 2, got {n}")
        self.h = L / (n + 1) if self.zero_padded else L / (n - 1)
        # the sup space reads no cell weight: its pairing weights are 1
        super().__init__(SpaceDescriptor(space_kind, n, p, weight=self.h, **space_args))

    def _diffs(self, u) -> np.ndarray:
        if self.zero_padded:
            u = np.concatenate(([0.0], u, [0.0]))
        return (u[1:] - u[:-1]) / self.h

    def _free_ends(self, t) -> np.ndarray:
        """t per difference, with a zero at each free end (no difference there)."""
        return t if self.zero_padded else np.concatenate(([0.0], t, [0.0]))

    def value(self, u) -> float:
        u, p = self.space.check_dim(u), self.p
        phi = (self.h / p) * _power_sum(self._diffs(u), p)
        if self.ground is not None:
            phi += (self.mass / p) * _power_sum(u[self.ground], p)
        return phi

    def _gradient(self, u) -> np.ndarray:
        p = self.p
        k = self._free_ends(signed_power(self._diffs(u), p - 1.0))
        g = k[:-1] - k[1:]
        if self.ground is not None:
            g[self.ground] += self.mass * signed_power(u[self.ground], p - 1.0)
        return g / self.space.pairing_weights()

    def hessian(self, u):
        """The band of the chain energy: each difference adds its curvature
        weight to the diagonal at its two nodes and subtracts it from the
        off-diagonal entry between them (a padded end difference touches one
        node); each ground edge adds mass times its curvature at its node."""
        u, p = self.space.check_dim(u), self.p
        c = self._free_ends(smoothed_curvature(self._diffs(u), p) / self.h)
        diag = c[:-1] + c[1:]
        if self.ground is not None:
            diag[self.ground] += self.mass * smoothed_curvature(u[self.ground], p)
        quotient = self.space.kind is SpaceKind.QUOTIENT_LP
        return BandHessian(diag, -c[1:-1], self.space.pairing_weights() if quotient else None)

    def solve_gradient(self, xi):
        """The u with gradient(u) = xi, integrated along the flux.

        With b = w xi the Euclidean right-hand side and S its partial sums,
        the flux on the differences is k = c - S and the differences are
        |k|^(q-2) k; one boundary closure, increasing in the scalar c, fixes
        c.  Zero padding: the right boundary value vanishes.  Ground edges
        at both free ends (Robin, m = mass): c is the left ground flux
        m |u_1|^(p-2) u_1 and the right end must balance,
        c + m |u_n|^(p-2) u_n = sum b.  Neumann: c = 0, and the
        representative with u_1 = 0 is returned.  Returns (u, root
        iterations), or None if a value is not finite.
        """
        p, q, h = self.p, self.q, self.h
        w = self.space.pairing_weights()
        xi = self.space.check_dim(xi)
        if self.space.kind is SpaceKind.QUOTIENT_LP:
            xi = xi - (w * xi).sum() / w.sum()  # the dual of the quotient annihilates constants
        S = (w * xi).cumsum()

        def diffs(c, sums):
            return signed_power(c - sums, q - 1.0)

        with np.errstate(over="ignore", invalid="ignore"):
            if self.zero_padded:
                S = np.concatenate(([0.0], S))
                c, iters = _increasing_root(lambda c: float(diffs(c, S).sum()), S.min(), S.max())
                u = h * diffs(c, S[:-1]).cumsum()
            elif self.space.kind is SpaceKind.QUOTIENT_LP:
                iters = 0
                u = h * np.concatenate(([0.0], diffs(0.0, S[:-1]).cumsum()))
            else:
                m = self.mass

                def closure(c):
                    right = signed_power(c / m, q - 1.0) + h * diffs(c, S[:-1]).sum()
                    return float(c + m * signed_power(right, p - 1.0) - S[-1])

                c, iters = _increasing_root(closure, min(0.0, S.min()), max(0.0, S.max()))
                u = signed_power(c / m, q - 1.0) + h * np.concatenate(([0.0], diffs(c, S[:-1]).cumsum()))
        return (u, iters) if np.isfinite(u).all() else None


class PDirichlet1D(_Chain1D):
    """p-Dirichlet energy on (0, L) with zero boundary, n interior nodes."""

    kind = "pdirichlet1d"
    zero_padded = True
    space_kind = SpaceKind.WEIGHTED_LP

    def __init__(self, p, n, L=1.0):
        super().__init__(p, n, L, self.space_kind)

    def solve_box(self, lo, hi):
        """The discrete taut string: the minimizer of Phi over lo <= u <= hi.

        Phi is one strictly convex even function summed over the differences
        of a uniform grid with both ends held at zero, so its minimizer over
        the box is the shortest path through the gates [lo_i, hi_i], whatever
        p (Grasmair, JMIV 2007; Davies-Kovac, Ann. Statist. 2001).
        The path is straight between contacts, bends up only under an upper
        bound and down only over a lower one.  Each segment narrows the cone
        of feasible slopes from its anchor gate by gate; once a gate falls
        outside the cone, the segment ends at the contact that bounded the
        cone on that side, and the next starts there.
        """
        n = self.n
        lo_ = self.space.check_dim(lo).tolist() + [0.0]  # gate k is node k; the right end is gate n + 1
        hi_ = self.space.check_dim(hi).tolist() + [0.0]
        u = np.zeros(n + 2)
        x0, y0 = 0, 0.0
        while x0 <= n:
            smin, smax, kmin, kmax = -math.inf, math.inf, x0, x0
            x1, y1 = n + 1, 0.0
            for k in range(x0 + 1, n + 2):
                a = (lo_[k - 1] - y0) / (k - x0)
                b = (hi_[k - 1] - y0) / (k - x0)
                if a > smax:  # the gate lies above the cone: bend up under its upper contact
                    x1, y1 = kmax, hi_[kmax - 1]
                    break
                if b < smin:  # below the cone: bend down over its lower contact
                    x1, y1 = kmin, lo_[kmin - 1]
                    break
                if a >= smin:
                    smin, kmin = a, k
                if b <= smax:
                    smax, kmax = b, k
            u[x0:x1] = y0 + (y1 - y0) * (np.arange(x1 - x0) / (x1 - x0))
            u[x1] = y1
            x0, y0 = x1, y1
        return np.clip(u[1:-1], lo, hi)


class SupDirichlet1D(PDirichlet1D):
    """p-Dirichlet energy paired with the sup norm (requires p > n = 1)."""

    kind = "supdirichlet1d"
    space_kind = SpaceKind.SUP


class Robin1D(_Chain1D):
    """Free endpoints with a ground edge of weight beta at each end: the
    Dirichlet energy plus (beta/p)(|u_1|^p + |u_n|^p)."""

    kind = "robin1d"

    def __init__(self, p, n, L=1.0, beta=1.0):
        if not (0.0 < beta < math.inf):
            raise ConfigError(f"beta: Robin parameter must be a positive finite number, got {beta}")
        super().__init__(p, n, L, SpaceKind.WEIGHTED_LP)
        self.ground, self.mass = np.array([0, -1]), float(beta)


class NeumannQuotient1D(_Chain1D):
    """Dirichlet energy with free endpoints on the quotient-Lp space."""

    kind = "neumann1d"

    def __init__(self, p, n, L=1.0):
        super().__init__(p, n, L, SpaceKind.QUOTIENT_LP)


class Steklov1D(_Chain1D):
    """Gradient-plus-mass energy (a ground edge of weight h at every node)
    paired with the two-endpoint trace norm."""

    kind = "steklov1d"

    def __init__(self, p, n, L=1.0):
        super().__init__(p, n, L, SpaceKind.TRACE_BOUNDARY, boundary=(0, n - 1))
        self.ground, self.mass = slice(None), self.h

    def solve_gradient(self, xi):
        return None  # the mass term couples the nodes: no flux integration


class PDirichlet2D(ProblemInstance):
    """p-Dirichlet energy on a uniform n x n interior grid of (0, L)^2.

    Zero boundary; cell-centered forward differences in both axes give the
    gradient magnitude. Vectors are stored row-major with dim = n^2.
    """

    kind = "pdirichlet2d"

    def __init__(self, p, n, L=1.0):
        p, n, L = _grid(p, n, L)
        self.n, self.L, self.h = n, L, L / (n + 1)
        super().__init__(SpaceDescriptor(SpaceKind.WEIGHTED_LP, n * n, p, weight=self.h * self.h))

    def _padded(self, u) -> np.ndarray:
        g = np.zeros((self.n + 2, self.n + 2))
        g[1:-1, 1:-1] = u.reshape(self.n, self.n)
        return g

    def _cells(self, u):
        g = self._padded(u)
        dx = (g[1:, :-1] - g[:-1, :-1]) / self.h
        dy = (g[:-1, 1:] - g[:-1, :-1]) / self.h
        return dx, dy

    def value(self, u) -> float:
        dx, dy = self._cells(self.space.check_dim(u))
        m2 = dx * dx + dy * dy
        return (self.h * self.h / self.p) * float((m2 ** (self.p / 2.0)).sum())

    def _gradient(self, u) -> np.ndarray:
        dx, dy = self._cells(u)
        m2 = dx * dx + dy * dy
        # |grad u|^(p-2) grad u tends to 0 with grad u for p > 1; mask the
        # zero cells so the p < 2 power does not produce inf * 0
        w = np.where(m2 > 0.0, m2, 1.0) ** ((self.p - 2.0) / 2.0)
        w = np.where(m2 > 0.0, w, 0.0)
        ex, ey = w * dx, w * dy
        g = np.zeros((self.n + 2, self.n + 2))
        g[1:, :-1] += ex
        g[:-1, :-1] -= ex
        g[:-1, 1:] += ey
        g[:-1, :-1] -= ey
        # euclid gradient carries one factor h; dual coordinates divide by h^2
        return g[1:-1, 1:-1].ravel() / self.h


class FractionalSeminorm1D(ProblemInstance):
    """Discrete fractional (s, p) seminorm with zero exterior extension.

    Interior nodes x_j = j h, j = 1..n, h = L/(n+1); the zero extension is
    truncated to 2n collar nodes on the same grid, n - 1 left of the
    interior and n + 1 right.  The diagonal i = j is excluded, matching the
    principal-value integral.  The collar values are zero, so the energy is
    (h^2/p) [sum_{i,j} phi(u_i - u_j) K_ij + 2 sum_i phi(u_i) c_i] over the
    interior, with the collar weight c_i = sum_{j in collar} K_ij stored as
    an extra kernel column paired with u_i - 0.

    One power per state: for the n x (n+1) pair differences t of the last
    point, ``_state`` keeps the weighted kernel a = K |t|^(p-2) and the
    flux a t.  The value sums flux t (the collar column twice), the
    gradient takes the flux's row sums, and for p >= 2 the Hessian's
    curvature weights are (p-1) a.  For p < 2, a is 0 where t = 0, the
    limit of |t|^(p-2) t there (no inf * 0), and the Hessian takes its own
    power under the CURVATURE_FLOOR of ``smoothed_curvature``.
    """

    kind = "fractional1d"
    pairwise = True  # the kernel and its collar column are nonnegative edge weights

    def __init__(self, p, n, L=1.0, s=0.5):
        if not (0.0 < s < 1.0):
            raise ConfigError("s: fractional order must lie in (0, 1)")
        p, n, L = _grid(p, n, L)
        self.n, self.L, self.s, self.h = n, L, float(s), L / (n + 1)
        super().__init__(SpaceDescriptor(SpaceKind.WEIGHTED_LP, n, p, weight=self.h))
        x = np.arange(1 - n, 2 * n + 1) * self.h  # collar | interior | collar
        interior = np.arange(n - 1, 2 * n - 1)
        d = np.abs(x[interior, None] - x[None, :])
        d[d == 0.0] = np.inf  # the principal value drops i = j
        k = 1.0 / d ** (1.0 + p * s)
        collar = np.delete(k, interior, axis=1).sum(axis=1)
        self._kernel = np.column_stack((k[:, interior], collar))
        self._last = (None, None, None, None)

    def _state(self, u):
        """(t, a, flux) at u, built once per state (read-only): the pair
        differences t (u_i - u_j for interior i, j, then u_i - 0 in the
        collar column), a = K |t|^(p-2) and a t."""
        key = u.tobytes()
        if key != self._last[0]:
            t = np.empty((self.n, self.n + 1))
            np.subtract(u[:, None], u, out=t[:, :-1])
            t[:, -1] = u
            a = np.abs(t)
            if self.p < 2.0:  # a stays 0 at t = 0: no 0^(p-2) = inf
                np.power(a, self.p - 2.0, out=a, where=a > 0.0)
            else:
                a **= self.p - 2.0
            a *= self._kernel
            flux = a * t
            t.flags.writeable = a.flags.writeable = flux.flags.writeable = False
            self._last = (key, t, a, flux)
        return self._last[1:]

    def value(self, u) -> float:
        t, _, flux = self._state(self.space.check_dim(u))
        m = flux * t
        # the collar column counts the pairs (i, collar); add the (collar, i) order
        return (self.h * self.h / self.p) * float(m.sum() + m[:, -1].sum())

    def _gradient(self, u) -> np.ndarray:
        # ordered pairs (i,j) and (j,i) both contribute; dual coords divide by h
        return 2.0 * self.h * self._state(u)[2].sum(axis=1)

    def hessian(self, u):
        # each pair {i, j} adds 2 h^2 K_ij kappa(u_i - u_j) (e_i - e_j)(e_i - e_j)'
        # (e_j = 0 in the collar); the p < 2 floor spans the same |u_i - u_j|
        t, a, _ = self._state(self.space.check_dim(u))
        m = (self.p - 1.0) * a if self.p >= 2.0 else smoothed_curvature(t, self.p) * self._kernel
        hess = 0.0 - m[:, :-1]  # not -m: an entry m = 0 stays +0.0
        hess.flat[:: self.n + 1] += m.sum(axis=1)
        return DenseHessian(2.0 * self.h * self.h * hess)


_KINDS = {
    cls.kind: cls
    for cls in (
        MatrixQuadratic,
        PDirichlet1D,
        PDirichlet2D,
        FractionalSeminorm1D,
        Robin1D,
        NeumannQuotient1D,
        SupDirichlet1D,
        Steklov1D,
    )
}

#: every key an instance description may carry: each kind's constructor
#: parameters and the kind itself
INSTANCE_KEYS = {"kind"}.union(*(inspect.signature(cls).parameters for cls in _KINDS.values()))


def assemble(config: dict) -> ProblemInstance:
    """Build a problem instance from a flat key-value description.

    ``kind`` names the constructor, and every other key is one of its
    parameters.  A list goes as given to a parameter whose default is None
    (``matrix``, ``diag``), any other value must be a finite number, and an
    unset parameter keeps the constructor's default.  Unknown keys, a missing
    required key and failed range checks raise ConfigError naming the key,
    and so does an instance too large for memory (``n``, or a matrix kind's
    ``diag``, whose square it builds).
    """
    cfg = dict(config)
    kind = cfg.pop("kind", None)
    if kind not in _KINDS:
        raise ConfigError(f"kind: unknown instance kind {kind!r}")
    params = inspect.signature(_KINDS[kind]).parameters
    for key, raw in cfg.items():
        if key not in params:
            raise ConfigError(f"{key}: unknown key for kind {kind!r}")
        if not (isinstance(raw, (list, tuple, np.ndarray)) and params[key].default is None):
            try:
                cfg[key] = float(raw)
            except (TypeError, ValueError):
                raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
            if not math.isfinite(cfg[key]):
                raise ConfigError(f"{key}: expected a finite number, got {raw!r}")
    for key, param in params.items():
        if key not in cfg and param.default is param.empty:
            raise ConfigError(f"{key}: missing, and kind {kind!r} needs it")
    try:
        return _KINDS[kind](**cfg)
    except MemoryError as e:
        raise ConfigError(f"{'n' if 'n' in params else 'diag'}: kind {kind!r} does not fit in memory: {e}") from None


def start_vector(inst, policy, seed) -> np.ndarray:
    """The start a ``u0`` policy names; ``auto`` is also the oracle's first.

    ``auto`` (the default) picks a generic start per space kind: a linear
    ramp on quotient spaces (constants are the zero element there), a
    centered parabolic bump on sup spaces, and all-ones otherwise.  On sup
    spaces the all-ones vector lies on an invariant ray of the set-valued
    duality map: both schemes keep its direction and stop, converged, at a
    critical value far above the least quotient (the flow at 2 h^(1-p)).
    ``random`` draws normals from the run seed mod 2**64 (a negative seed is
    valid); it is the seed's one reader, the oracle never draws from it.
    """
    dim = inst.space.dim
    if policy in (None, "auto"):
        policy = {SpaceKind.QUOTIENT_LP: "ramp", SpaceKind.SUP: "bump"}.get(inst.space.kind, "ones")
    if policy == "ones":
        return np.ones(dim)
    if policy == "ramp":
        return np.linspace(-1.0, 1.0, dim)
    if policy == "bump":
        t = (np.arange(dim) + 0.5) / dim
        return t * (1.0 - t)
    if policy == "random":
        return np.random.default_rng(seed % 2**64).standard_normal(dim)
    raise ConfigError(f"u0: unknown start policy {policy!r}")
