"""Finite-dimensional normed spaces with explicit duals.

Four norm families are supported on coefficient vectors in R^dim:

* weighted-Lp:      ||u|| = (sum_i h |u_i|^p)^(1/p)
* quotient-Lp:      ||u|| = inf_c (sum_i h |u_i + c|^p)^(1/p)   (constants are zero)
* sup:              ||u|| = max_i |u_i|
* trace-boundary:   ||u|| = (sum_{i in boundary} |u_i|^p)^(1/p)

Dual vectors are stored as coefficient arrays under the pairing
<xi, u> = sum_i w_i xi_i u_i, where the pairing weight w_i is the cell
measure h for Lp-type spaces, 1 for sup spaces, and (1 on the boundary,
h in the interior) for trace spaces.  With this convention the duality
map has exact closed forms and the identities

    <J_p(u), u> = ||u||^p = ||J_p(u)||_*^q

hold up to floating-point rounding.  Per-evaluation code calls ndarray
methods and ufuncs, not numpy's Python wrappers (``np.sum``, ``np.max``,
...), whose dispatch costs more than the arithmetic at these sizes (guard
test: ``tests/test_bench_targets.py::test_hot_paths_skip_numpy_dispatch``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DegenerateInputError, SpaceMismatchError

__all__ = [
    "SpaceKind",
    "SpaceDescriptor",
    "signed_power",
    "smoothed_curvature",
    "mu_from_lambda",
    "optimal_shift",
    "pow2_scale",
    "unit_representative",
]


def signed_power(t, e):
    """sign(t) * |t|**e, elementwise; exact 0 at t = 0 for e > 0."""
    t = np.asarray(t, dtype=float)
    return np.sign(t) * np.abs(t) ** e


def pow2_scale(u) -> tuple[np.ndarray, int]:
    """(u / 2^k, k) for 2^k the power of 2 at or above max|u| (k = 0 for a
    zero or non-finite u).  The scaling is exact unless an entry leaves the
    normal range, and no power of the scaled entries overflows.  ``np.ldexp``
    has no OverflowError at max|u| >= 2^1023, where ``2.0 ** k`` does."""
    k = math.frexp(float(np.abs(u).max()))[1]
    return np.ldexp(u, -k), k


def _scaled_pnorm(v, w, p) -> float:
    """(sum w |v|^p)^(1/p) evaluated without underflow/overflow in |v|^p."""
    m = float(np.abs(v).max()) if v.size else 0.0
    if m == 0.0 or not math.isfinite(m):
        return m
    return m * float((w * np.abs(v / m) ** p).sum() ** (1.0 / p))


#: relative floor on |t| in the curvature weights for p < 2, where
#: (p-1)|t|^(p-2) is unbounded at zero
CURVATURE_FLOOR = 1e-8


def smoothed_curvature(t, p):
    """(p-1)|t|^(p-2), the derivative of the kernel |t|^(p-2) t, with a floor
    for p < 2: there |t| is floored at CURVATURE_FLOOR times max |t| over the
    array, so the weights stay finite unless every entry is zero.
    """
    a = np.abs(np.asarray(t, dtype=float))
    if p >= 2.0:  # a^(p-2) has no pole
        return (p - 1.0) * a ** (p - 2.0)
    a = np.maximum(a, CURVATURE_FLOOR * a.max(initial=0.0))
    with np.errstate(divide="ignore"):
        return (p - 1.0) * a ** (p - 2.0)


class SpaceKind(Enum):
    WEIGHTED_LP = "weighted_lp"
    QUOTIENT_LP = "quotient_lp"
    SUP = "sup"
    TRACE_BOUNDARY = "trace_boundary"


@dataclass(frozen=True)
class SpaceDescriptor:
    """A concrete normed space: kind, dimension, homogeneity degree p > 1
    with its dual exponent q = p/(p-1), and cell weight.

    ``weight`` is the uniform cell measure h used by the Lp-type norms and
    pairings.  ``boundary`` lists the indices carrying the trace norm and is
    required (only) for trace-boundary spaces.  The pairing weights and
    the boundary index array are built once, read-only.
    """

    kind: SpaceKind
    dim: int
    p: float
    weight: float = 1.0
    boundary: tuple[int, ...] = ()
    q: float = field(init=False)

    def __post_init__(self):
        if self.dim < 1:
            raise DegenerateInputError(f"space dim must be >= 1, got {self.dim}")
        if not (self.p > 1.0 and math.isfinite(self.p)):
            raise DegenerateInputError(f"homogeneity degree must satisfy p > 1, got p={self.p}")
        if not (self.weight > 0.0):
            raise DegenerateInputError(f"space weight must be > 0, got {self.weight}")
        if self.kind is SpaceKind.TRACE_BOUNDARY:
            if not self.boundary:
                raise DegenerateInputError("trace-boundary space needs boundary indices")
            if any(i < 0 or i >= self.dim for i in self.boundary):
                raise DegenerateInputError("boundary index out of range")
        w = np.full(self.dim, 1.0 if self.kind is SpaceKind.SUP else self.weight)
        b = np.array(self.boundary, dtype=int)
        if self.kind is SpaceKind.TRACE_BOUNDARY:
            w[b] = 1.0
        w.flags.writeable = b.flags.writeable = False
        object.__setattr__(self, "q", self.p / (self.p - 1.0))
        object.__setattr__(self, "_weights", w)
        object.__setattr__(self, "_boundary_index", b)

    def check_dim(self, values) -> np.ndarray:
        v = np.asarray(values, dtype=float)
        if v.shape != (self.dim,):
            raise SpaceMismatchError(f"expected vector of length {self.dim}, got shape {v.shape}")
        return v

    def pairing_weights(self) -> np.ndarray:
        """Weights w_i of the duality pairing <xi, u> = sum w_i xi_i u_i (read-only)."""
        return self._weights

    def norm(self, u) -> float:
        return self.representative_norm(u)[1]

    def representative_norm(self, u) -> tuple[np.ndarray, float]:
        """(t, ||u||) with t the representative of u the norm is taken on:
        u + optimal_shift(u) on quotient spaces (one shift solve), else u."""
        u = self.check_dim(u)
        p = self.p
        if self.kind is SpaceKind.SUP:
            return u, float(np.abs(u).max())
        if self.kind is SpaceKind.TRACE_BOUNDARY:
            return u, _scaled_pnorm(u[self._boundary_index], 1.0, p)
        if self.kind is SpaceKind.QUOTIENT_LP:
            u = u + optimal_shift(u, self)
        return u, _scaled_pnorm(u, self.weight, p)

    def dual_norm(self, xi) -> float:
        """Norm on the dual space, sup{<xi,u> : ||u|| <= 1}, in closed form.

        For sup spaces this is the total-variation norm; for quotient spaces
        the weighted q-norm of the zero-mean representative.  For trace
        spaces the closed form is exact on boundary-supported duals (the
        legitimate dual space); interior components are measured in the
        volume q-norm so that solver residuals remain controlled.
        """
        xi = self.check_dim(xi)
        q = self.q
        if self.kind is SpaceKind.SUP:
            return float(np.abs(xi).sum())
        w = self.pairing_weights()
        if self.kind is SpaceKind.QUOTIENT_LP:
            xi = xi - (w * xi).sum() / w.sum()
        return _scaled_pnorm(xi, w, q)

    def pairing(self, xi, u) -> float:
        return float((self.pairing_weights() * self.check_dim(xi) * self.check_dim(u)).sum())

    def duality_map(self, u) -> np.ndarray:
        """One element of J_p(u), the subdifferential of ||.||^p / p.

        Ties on sup spaces are broken at the lowest argmax index of |u_i|.
        Raises DegenerateInputError where |u|^(p-1) leaves the double range.
        """
        u = self.check_dim(u)
        p = self.p
        if self.kind in (SpaceKind.SUP, SpaceKind.TRACE_BOUNDARY):
            # supported on the first peak of |u| (sup) or on the boundary (trace)
            b = [int(np.abs(u).argmax())] if self.kind is SpaceKind.SUP else self._boundary_index
            xi = np.zeros(self.dim)
            xi[b] = signed_power(u[b], p - 1.0)
        elif self.kind is SpaceKind.QUOTIENT_LP:
            xi = _zero_mean_dual(u + optimal_shift(u, self), p, self.pairing_weights())
        else:
            xi = signed_power(u, p - 1.0)
        if not np.isfinite(xi).all():
            raise DegenerateInputError("dual vector has non-finite entries")
        return xi


def _zero_mean_dual(t, p, w) -> np.ndarray:
    """|t|^(p-2) t for t = u + c, with zero weighted sum like the exact element.

    The shift solver's drift r = sum w xi is removed as the linearized
    Newton correction of c: entry i moves in proportion to d xi_i / dc =
    (p-1) |t_i|^(p-2), taken on t scaled by a power of 2; for p < 2 with
    some t_i = 0 those entries take the whole correction.  At p = 2 the
    correction is uniform; the zero vector is returned unchanged.
    """
    xi = signed_power(t, p - 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        sens = (p - 1.0) * np.abs(pow2_scale(t)[0]) ** (p - 2.0)
    if np.isinf(sens).any():
        sens = np.isinf(sens).astype(float)
    total = (w * sens).sum()
    return xi - sens * ((w * xi).sum() / total) if total > 0.0 else xi


def mu_from_lambda(lam: float, p: float) -> float:
    """mu = lambda^(1/(p-1)), the per-step contraction rate of the schemes."""
    if not (lam > 0.0):
        raise DegenerateInputError(f"lambda must be > 0, got {lam}")
    try:
        return float(lam) ** (1.0 / (p - 1.0))
    except OverflowError:  # near p = 1 on a small domain
        raise DegenerateInputError(f"mu = lambda^(1/(p-1)) overflows at lambda = {lam}, p = {p}") from None


def optimal_shift(u, space: SpaceDescriptor) -> float:
    """The constant c minimizing sum_i h |u_i + c|^p for a quotient space.

    c is the root of the increasing r(c) = sum_i h |u_i + c|^(p-2) (u_i + c)
    on [-max u, -min u].  c is 1-homogeneous in u, so the solve runs on
    u / 2^k from ``pow2_scale``.  Safeguarded Newton starts at c = 0 when 0
    is inside the bracket (a centred vector stops at once), else at its
    midpoint.  One power a^(p-1) of a = |u + c| per iteration gives r, its
    scale sum h a^(p-1) and r' = (p-1) sum h a^(p-2).  Bisection replaces a
    Newton point outside the bracket or a step over half the one before last
    (rtsafe, Numerical Recipes).  Stops at |r| <= 1e-13 scale or at the
    rounding floor of r at c, 4 r'(c) ulp(c), whichever is larger, or with
    no float left inside the bracket at the end of smaller |r|.
    """
    if space.kind is not SpaceKind.QUOTIENT_LP:
        raise SpaceMismatchError("optimal_shift applies to quotient-Lp spaces only")
    u = space.check_dim(u)
    w = space.pairing_weights()
    p = space.p
    lo, hi = float(-u.max()), float(-u.min())
    if lo == hi:
        return lo  # constant vector: shift cancels it exactly
    v, k = pow2_scale(u)
    lo, hi = math.ldexp(lo, -k), math.ldexp(hi, -k)
    r_lo, r_hi = -math.inf, math.inf
    c = 0.0 if lo < 0.0 < hi else 0.5 * (lo + hi)
    step_before = [math.inf, math.inf]
    for _ in range(200):
        t = v + c
        a = np.abs(t)
        ap = a ** (p - 1.0)
        r = float(w @ np.copysign(ap, t))
        # a^(p-2) is taken as 0 at a = 0: exact for p > 2; the bracket guards the rest
        deriv = (p - 1.0) * float(w @ np.divide(ap, a, out=np.zeros(a.shape), where=a > 0.0))
        if abs(r) <= max(1e-13 * float(w @ ap), 4.0 * deriv * math.ulp(c)):
            break
        if r > 0.0:
            hi, r_hi = c, r
        else:
            lo, r_lo = c, r
        c_next = c - r / deriv if deriv > 0.0 else math.nan
        if not lo < c_next < hi or abs(c_next - c) > 0.5 * step_before[0]:
            c_next = 0.5 * (lo + hi)
            if not lo < c_next < hi:  # no float left between the ends
                c = lo if -r_lo <= r_hi else hi
                break
        step_before = [step_before[1], abs(c_next - c)]
        c = c_next
    return math.ldexp(c, k)


def unit_representative(space: SpaceDescriptor, t, n: float) -> np.ndarray:
    """Sign-normalized unit-norm vector t/n, for (t, n) from
    ``representative_norm``: on quotient spaces t is already shifted.  The
    sign is fixed so the largest-magnitude entry is positive.
    """
    t = space.check_dim(t)
    if n == 0.0:
        raise DegenerateInputError("cannot normalize a zero-norm vector")
    rep = t / n
    i = int(np.abs(rep).argmax())
    if rep[i] < 0.0:
        rep = -rep
    return rep
