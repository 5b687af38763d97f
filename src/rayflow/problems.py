"""Discretized degree-p homogeneous energies and their gradients.

Each problem instance couples an energy value/gradient pair with the normed
space its Rayleigh quotient is taken in:

* ``MatrixQuadratic``       0.5 u'Au on Euclidean R^n (p = 2 only)
* ``PDirichlet1D``          (h/p) sum |du/h|^p, zero boundary, weighted-Lp norm
* ``PDirichlet2D``          same on a uniform square grid with |grad u|
* ``FractionalSeminorm1D``  (h^2/p) sum_{i!=j} |u_i-u_j|^p / |x_i-x_j|^(1+ps),
                            zero-extended on a collar of 2n nodes, which
                            folds into a per-node weight on |u_i|^p
* ``Robin1D``               Dirichlet energy + (beta/p)(|u_1|^p + |u_n|^p),
                            free endpoints, weighted-Lp norm
* ``NeumannQuotient1D``     Dirichlet energy on the quotient-Lp space
* ``SupDirichlet1D``        Dirichlet energy paired with the sup norm
* ``Steklov1D``             full W-type energy (gradient + mass) paired with
                            the boundary trace norm

Gradients are returned in dual coordinates: the array g with
d(value) = sum_i w_i g_i delta_i for the pairing weights w of the space.
Every energy is positively homogeneous of degree p, which the inner solves,
``rayleigh`` and the eigen residual rely on to rescale their data exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigError, DegenerateInputError, NumericsError
from .spaces import (
    Exponent,
    SpaceDescriptor,
    SpaceKind,
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
]


def _power_sum(t, p, weight=1.0):
    """sum of weight |t|^p."""
    return float(np.sum(np.abs(t) ** p * weight))


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


class ProblemInstance:
    """Base class: energy value, gradient in dual coordinates, and space."""

    kind = "abstract"

    def __init__(self, exponent: Exponent, space: SpaceDescriptor):
        self.exponent = exponent
        self.space = space

    @property
    def p(self) -> float:
        return self.exponent.p

    def value(self, u) -> float:
        raise NotImplementedError

    def _gradient(self, u) -> np.ndarray:
        raise NotImplementedError

    def gradient(self, u) -> np.ndarray:
        g = self._gradient(self.space.check_dim(u))
        bad = ~np.isfinite(g)
        if bad.any():
            raise NumericsError(f"non-finite gradient entry at index {int(np.argmax(bad))}")
        return g

    def solve_gradient(self, xi):
        """(u, root iterations) with gradient(u) = xi in closed form, or None
        where the kind has no exact solve (the inner solver then descends)."""
        return None

    def hessian(self, u):
        """The Euclidean Hessian of Phi at u: a dense matrix, or the
        (diagonal, off-diagonal) pair of a symmetric tridiagonal band.  None
        where the kind has none (descend then takes L-BFGS directions)."""
        return None

    def rayleigh(self, u) -> float:
        u = self.space.check_dim(u)
        # homogeneity makes the quotient scale-free: evaluate at max-scaled u
        # so extreme iterate magnitudes never under/overflow the powers
        m = float(np.max(np.abs(u)))
        if m == 0.0:
            raise DegenerateInputError("Rayleigh quotient undefined on the zero element")
        u = u / m
        n = self.space.norm(u)
        if n == 0.0:
            raise DegenerateInputError("Rayleigh quotient undefined on the zero element")
        return self.p * self.value(u) / n**self.p


class MatrixQuadratic(ProblemInstance):
    """0.5 u'Au for a symmetric positive definite A; Euclidean norm, p = 2."""

    kind = "matrix"

    def __init__(self, matrix):
        a = np.asarray(matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
            raise ConfigError("matrix: must be square and nonempty")
        if not np.isfinite(a).all():
            raise ConfigError("matrix: entries must be finite")
        if not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(a).max()))):
            raise ConfigError("matrix: must be symmetric")
        try:
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            raise ConfigError("matrix: must be positive definite") from None
        self.matrix = a
        exp = Exponent(2.0)
        space = SpaceDescriptor(SpaceKind.WEIGHTED_LP, a.shape[0], exp, weight=1.0)
        super().__init__(exp, space)

    def value(self, u) -> float:
        u = self.space.check_dim(u)
        return 0.5 * float(u @ self.matrix @ u)

    def _gradient(self, u) -> np.ndarray:
        return self.matrix @ u

    def hessian(self, u):
        return self.matrix


class _Dirichlet1DBase(ProblemInstance):
    """Shared forward-difference machinery for the 1D gradient energies."""

    #: pad the vector with zero boundary values before differencing
    zero_padded = True

    def __init__(self, n, L, exponent, space):
        super().__init__(exponent, space)
        self.n = int(n)
        self.L = float(L)
        self.h = L / (n + 1) if self.zero_padded else L / (n - 1)

    def _diffs(self, u) -> np.ndarray:
        if self.zero_padded:
            u = np.concatenate(([0.0], u, [0.0]))
        return np.diff(u) / self.h

    def _dirichlet_value(self, u) -> float:
        return (self.h / self.p) * _power_sum(self._diffs(u), self.p)

    def _dirichlet_grad_euclid(self, u) -> np.ndarray:
        k = signed_power(self._diffs(u), self.p - 1.0)
        if self.zero_padded:
            return k[:-1] - k[1:]
        g = np.zeros_like(u)
        g[:-1] -= k
        g[1:] += k
        return g

    def hessian(self, u):
        """The band of the difference energy: each difference adds its
        curvature weight to the diagonal at its two nodes and subtracts it
        from the off-diagonal entry between them (a padded boundary
        difference touches one node)."""
        c = smoothed_curvature(self._diffs(self.space.check_dim(u)), self.p) / self.h
        if self.zero_padded:
            return c[:-1] + c[1:], -c[1:-1]
        diag = np.zeros(self.n)
        diag[:-1] += c
        diag[1:] += c
        return diag, -c

    def solve_gradient(self, xi):
        """The u with gradient(u) = xi, integrated along the flux.

        With b = w xi the Euclidean right-hand side and S its partial sums,
        the flux on the differences is k = c - S and the differences are
        |k|^(q-2) k; one boundary closure, increasing in the scalar c, fixes
        c.  Zero padding: the right boundary value vanishes.  Robin: c is
        the left boundary flux beta |u_1|^(p-2) u_1 and the right end must
        balance, c + beta |u_n|^(p-2) u_n = sum b.  Neumann: c = 0, and the
        representative with u_1 = 0 is returned.  Returns (u, root
        iterations), or None if a value is not finite.
        """
        p, q, h = self.p, self.exponent.q, self.h
        w = self.space.pairing_weights()
        xi = self.space.check_dim(xi)
        if self.space.kind is SpaceKind.QUOTIENT_LP:
            xi = xi - np.sum(w * xi) / np.sum(w)  # the dual of the quotient annihilates constants
        S = np.cumsum(w * xi)

        def diffs(c, sums):
            return signed_power(c - sums, q - 1.0)

        with np.errstate(over="ignore", invalid="ignore"):
            if self.zero_padded:
                S = np.concatenate(([0.0], S))
                c, iters = _increasing_root(lambda c: float(np.sum(diffs(c, S))), S.min(), S.max())
                u = h * np.cumsum(diffs(c, S[:-1]))
            elif self.space.kind is SpaceKind.QUOTIENT_LP:
                iters = 0
                u = h * np.concatenate(([0.0], np.cumsum(diffs(0.0, S[:-1]))))
            else:
                beta = self.beta

                def closure(c):
                    right = signed_power(c / beta, q - 1.0) + h * np.sum(diffs(c, S[:-1]))
                    return float(c + beta * signed_power(right, p - 1.0) - S[-1])

                c, iters = _increasing_root(closure, min(0.0, S.min()), max(0.0, S.max()))
                u = signed_power(c / beta, q - 1.0) + h * np.concatenate(([0.0], np.cumsum(diffs(c, S[:-1]))))
        return (u, iters) if np.all(np.isfinite(u)) else None


class PDirichlet1D(_Dirichlet1DBase):
    """p-Dirichlet energy on (0, L) with zero boundary, n interior nodes."""

    kind = "pdirichlet1d"
    zero_padded = True

    def __init__(self, p, n, L=1.0):
        exp = Exponent(p)
        h = L / (n + 1)
        space = SpaceDescriptor(SpaceKind.WEIGHTED_LP, n, exp, weight=h)
        super().__init__(n, L, exp, space)

    def value(self, u) -> float:
        return self._dirichlet_value(self.space.check_dim(u))

    def _gradient(self, u) -> np.ndarray:
        return self._dirichlet_grad_euclid(u) / self.h

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

    def __init__(self, p, n, L=1.0):
        exp = Exponent(p)
        space = SpaceDescriptor(SpaceKind.SUP, n, exp)
        _Dirichlet1DBase.__init__(self, n, L, exp, space)

    def _gradient(self, u) -> np.ndarray:
        # sup-space pairing weights are 1, so dual coordinates are Euclidean
        return self._dirichlet_grad_euclid(u)


class Robin1D(_Dirichlet1DBase):
    """Dirichlet energy plus boundary term (beta/p)(|u_1|^p + |u_n|^p).

    Free endpoints: n nodes spanning [0, L], h = L/(n-1).
    """

    kind = "robin1d"
    zero_padded = False

    def __init__(self, p, n, L=1.0, beta=1.0):
        if beta <= 0.0:
            raise ConfigError("beta: Robin parameter must be > 0")
        exp = Exponent(p)
        h = L / (n - 1)
        space = SpaceDescriptor(SpaceKind.WEIGHTED_LP, n, exp, weight=h)
        super().__init__(n, L, exp, space)
        self.beta = float(beta)

    def value(self, u) -> float:
        u = self.space.check_dim(u)
        ends = np.array([u[0], u[-1]])
        return self._dirichlet_value(u) + (self.beta / self.p) * _power_sum(ends, self.p)

    def _gradient(self, u) -> np.ndarray:
        g = self._dirichlet_grad_euclid(u)
        g[0] += self.beta * signed_power(u[0], self.p - 1.0)
        g[-1] += self.beta * signed_power(u[-1], self.p - 1.0)
        return g / self.h

    def hessian(self, u):
        u = self.space.check_dim(u)
        diag, off = super().hessian(u)
        diag[[0, -1]] += self.beta * smoothed_curvature(u[[0, -1]], self.p)
        return diag, off


class NeumannQuotient1D(_Dirichlet1DBase):
    """Dirichlet energy with free endpoints on the quotient-Lp space."""

    kind = "neumann1d"
    zero_padded = False

    def __init__(self, p, n, L=1.0):
        exp = Exponent(p)
        h = L / (n - 1)
        space = SpaceDescriptor(SpaceKind.QUOTIENT_LP, n, exp, weight=h)
        super().__init__(n, L, exp, space)

    def value(self, u) -> float:
        return self._dirichlet_value(self.space.check_dim(u))

    def _gradient(self, u) -> np.ndarray:
        return self._dirichlet_grad_euclid(u) / self.h


class Steklov1D(_Dirichlet1DBase):
    """Gradient-plus-mass energy paired with the two-endpoint trace norm."""

    kind = "steklov1d"
    zero_padded = False

    def __init__(self, p, n, L=1.0):
        exp = Exponent(p)
        h = L / (n - 1)
        space = SpaceDescriptor(
            SpaceKind.TRACE_BOUNDARY, n, exp, weight=h, boundary=(0, n - 1)
        )
        super().__init__(n, L, exp, space)

    def value(self, u) -> float:
        u = self.space.check_dim(u)
        return self._dirichlet_value(u) + (self.h / self.p) * _power_sum(u, self.p)

    def _gradient(self, u) -> np.ndarray:
        g = self._dirichlet_grad_euclid(u) + self.h * signed_power(u, self.p - 1.0)
        return g / self.space.pairing_weights()

    def hessian(self, u):
        u = self.space.check_dim(u)
        diag, off = super().hessian(u)
        return diag + self.h * smoothed_curvature(u, self.p), off

    def solve_gradient(self, xi):
        return None  # the mass term couples the nodes: no flux integration


class PDirichlet2D(ProblemInstance):
    """p-Dirichlet energy on a uniform n x n interior grid of (0, L)^2.

    Zero boundary; cell-centered forward differences in both axes give the
    gradient magnitude. Vectors are stored row-major with dim = n^2.
    """

    kind = "pdirichlet2d"

    def __init__(self, p, n, L=1.0):
        exp = Exponent(p)
        h = L / (n + 1)
        space = SpaceDescriptor(SpaceKind.WEIGHTED_LP, n * n, exp, weight=h * h)
        super().__init__(exp, space)
        self.n = int(n)
        self.L = float(L)
        self.h = h

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
        return (self.h * self.h / self.p) * float(np.sum(m2 ** (self.p / 2.0)))

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
    an extra kernel column paired with u_i - 0.  The n x (n+1) pair
    differences of the last point are kept, so value, gradient and Hessian
    at one point build them once.
    """

    kind = "fractional1d"

    def __init__(self, p, n, L=1.0, s=0.5):
        if not (0.0 < s < 1.0):
            raise ConfigError("s: fractional order must lie in (0, 1)")
        exp = Exponent(p)
        h = L / (n + 1)
        space = SpaceDescriptor(SpaceKind.WEIGHTED_LP, n, exp, weight=h)
        super().__init__(exp, space)
        self.n = int(n)
        self.L = float(L)
        self.s = float(s)
        self.h = h
        x = np.arange(1 - n, 2 * n + 1) * h  # collar | interior | collar
        interior = np.arange(n - 1, 2 * n - 1)
        d = np.abs(x[interior, None] - x[None, :])
        d[d == 0.0] = np.inf  # the principal value drops i = j
        k = 1.0 / d ** (1.0 + p * s)
        collar = np.delete(k, interior, axis=1).sum(axis=1)
        self._kernel = np.column_stack((k[:, interior], collar))
        self._last_pairs = (None, None)

    def _pairs(self, u) -> np.ndarray:
        """u_i - u_j for interior i, j, then u_i - 0 in the collar column (read-only)."""
        key = u.tobytes()
        if key != self._last_pairs[0]:
            t = np.empty((self.n, self.n + 1))
            np.subtract(u[:, None], u, out=t[:, :-1])
            t[:, -1] = u
            t.flags.writeable = False
            self._last_pairs = (key, t)
        return self._last_pairs[1]

    def value(self, u) -> float:
        u = self.space.check_dim(u)
        # the collar column counts the pairs (i, collar); add the (collar, i) order
        total = _power_sum(self._pairs(u), self.p, self._kernel)
        return (self.h * self.h / self.p) * (total + _power_sum(u, self.p, self._kernel[:, -1]))

    def _gradient(self, u) -> np.ndarray:
        k = signed_power(self._pairs(u), self.p - 1.0) * self._kernel
        # ordered pairs (i,j) and (j,i) both contribute; dual coords divide by h
        return 2.0 * self.h * np.sum(k, axis=1)

    def hessian(self, u):
        # each pair {i, j} adds 2 h^2 K_ij kappa(u_i - u_j) (e_i - e_j)(e_i - e_j)'
        # (e_j = 0 in the collar); the p < 2 floor spans the same |u_i - u_j|
        m = smoothed_curvature(self._pairs(self.space.check_dim(u)), self.p) * self._kernel
        return 2.0 * self.h * self.h * (np.diag(m.sum(axis=1)) - m[:, :-1])


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

_GRID_KEYS = {"p", "n", "L"}
_KIND_KEYS = {
    "matrix": {"matrix", "diag", "p"},
    "pdirichlet1d": _GRID_KEYS,
    "pdirichlet2d": _GRID_KEYS,
    "fractional1d": _GRID_KEYS | {"s"},
    "robin1d": _GRID_KEYS | {"beta"},
    "neumann1d": _GRID_KEYS,
    "supdirichlet1d": _GRID_KEYS,
    "steklov1d": _GRID_KEYS,
}
#: every key an instance description may carry, for any kind
INSTANCE_KEYS = {"kind"}.union(*_KIND_KEYS.values())


def assemble(config: dict) -> ProblemInstance:
    """Build a problem instance from a flat key-value description.

    Recognized keys: INSTANCE_KEYS (kind, p, n, L, s, beta, matrix, diag),
    of which each kind takes its own subset.  Unknown keys and
    out-of-range values raise ConfigError naming the key.
    """
    cfg = dict(config)
    kind = cfg.pop("kind", None)
    if kind not in _KINDS:
        raise ConfigError(f"kind: unknown instance kind {kind!r}")
    for key in cfg:
        if key not in _KIND_KEYS[kind]:
            raise ConfigError(f"{key}: unknown key for kind {kind!r}")

    def as_float(key, default=None):
        raw = cfg.pop(key, default)
        try:
            x = float(raw)
        except (TypeError, ValueError):
            raise ConfigError(f"{key}: expected a number, got {raw!r}") from None
        if not math.isfinite(x):
            raise ConfigError(f"{key}: expected a finite number, got {raw!r}")
        return x

    if kind == "matrix":
        if "p" in cfg and as_float("p") != 2.0:
            raise ConfigError("p: matrix instances require p = 2")
        if "diag" in cfg and "matrix" in cfg:
            raise ConfigError("matrix: give either 'matrix' or 'diag', not both")
        if "diag" not in cfg and "matrix" not in cfg:
            raise ConfigError("matrix: missing 'matrix' or 'diag' entries")
        key = "diag" if "diag" in cfg else "matrix"
        try:
            a = np.asarray(cfg.pop(key), dtype=float)
        except (TypeError, ValueError):
            raise ConfigError(f"{key}: expected numbers in rows of equal length") from None
        if key == "diag":
            if a.ndim != 1 or a.size == 0:
                raise ConfigError(f"diag: expected a nonempty list of numbers, got shape {a.shape}")
            a = np.diag(a)
        inst = MatrixQuadratic(a)
    else:
        p = as_float("p")
        if not (p > 1.0):
            raise ConfigError(f"p: must be > 1, got {p}")
        n_raw = cfg.pop("n", None)
        try:
            n = int(n_raw)
            ok = n == float(n_raw) and n >= 1
        except (TypeError, ValueError, OverflowError):
            ok = False
        if not ok:
            raise ConfigError(f"n: must be a positive integer, got {n_raw}")
        L = as_float("L", 1.0)
        if L <= 0.0:
            raise ConfigError(f"L: must be > 0, got {L}")
        kwargs = {"p": p, "n": n, "L": L}
        if kind == "fractional1d":
            kwargs["s"] = as_float("s", 0.5)
        if kind == "robin1d":
            kwargs["beta"] = as_float("beta", 1.0)
        if kind in ("robin1d", "neumann1d", "steklov1d") and n < 2:
            raise ConfigError(f"n: kind {kind!r} needs n >= 2, got {n}")
        inst = _KINDS[kind](**kwargs)
    return inst
