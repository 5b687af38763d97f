"""Convex subproblem solvers shared by both approximation schemes.

Both outer schemes reduce to strictly convex minimizations:

* ``minimize_phi_minus_linear``: v |-> Phi(v) - <xi, v>
* ``minimize_movement``:         v |-> Phi(v) + ||v - g||^p / (p tau^(p-1))

Each solve depends only on its instance, its data and one ``grad_tol``.
Both run ``descend``, the one line-search loop for smooth problems.  Its
direction is the Newton direction wherever the instance has a Hessian
(``ProblemInstance.hessian``: a tridiagonal band for the 1D kinds, solved
by a Thomas sweep, and a dense matrix for the fractional and matrix
kinds); the movement solve adds the diagonal curvature of its penalty.
That penalty is the exact ||v - g||^p / (p tau^(p-1)) for every p, so a
movement solve's residual is the one of the scheme's own step.
The movement solve starts at the caller's warm start (``run_flow``
passes its predicted next state) or else at the anchor g.  Both movement
steps take the tolerance scale ||dPhi(g)||_* from the caller's slope at g
(``run_flow``: the last trace row's) and report the slope at their
minimizer from a gradient they evaluated there, and no other gradient.
Where there is no Hessian (2D), or the Newton direction is not finite or
not a descent direction, an L-BFGS metric in pairing coordinates, built
afresh in each solve, maps the dual residual to the direction instead.
An Armijo backtracking search enforces strict decrease, an endgame below
the rounding floor of the objective backtracks on the residual, and a
solve whose residual stops improving gives up.  ``oracles`` runs the same
loop on the unit sphere (with a retraction, without Newton directions)
for the direct Rayleigh minimization; it descends on log(R)/p, whose
gradient there is the relative eigen residual.  Problems are solved in
normalized coordinates (unit data scale) so the gradient tolerance acts
relatively; homogeneity of Phi makes the rescaling exact.

``minimize_phi_minus_linear`` first tries the instance's exact solve
(``ProblemInstance.solve_gradient``): the 1D Dirichlet, sup, Neumann and
Robin energies integrate dPhi(v) = xi along the flux up to one monotone
scalar root.  The exact point is accepted only under descend's
dual-norm residual test; where it fails that test (near p = 1 the primal
residual is ill-conditioned) descend starts from it.  Steklov, 2D,
fractional and matrix instances have no exact solve and run descend alone.

The sup-norm movement step (``SupDirichlet1D``) runs no descent: for each
trial radius rho the instance solves the energy over the box
|v - g|_inf <= rho exactly (``solve_box``, the discrete taut string of the
1D Dirichlet energy), and a bracketed scalar root on rho balances the
active multiplier mass against the movement penalty.  No descent loop runs
apart from ``descend``: the sup oracle in ``oracles`` is a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, NumericsError
from .problems import ProblemInstance, _power_sum
from .spaces import SpaceKind, _scaled_pnorm, signed_power, smoothed_curvature

__all__ = ["SolveReport", "descend", "minimize_phi_minus_linear", "minimize_movement"]

#: iteration cap of the inner solves; it does not bind, since descend gives
#: up after STALL_ITERS iterations without halving its merit
MAX_ITERS = 50_000
#: Armijo backtracking factor and sufficient-decrease slope
LS_SHRINK = 0.5
LS_SLOPE = 1e-4
#: curvature pairs kept by the L-BFGS metric
LBFGS_MEMORY = 12
#: descend gives up once its merit has gone this many iterations without
#: falling below half of its best value
STALL_ITERS = 60
#: for p < 2 a Newton direction is shortened once the Hessian falls short
#: of the curvature seen along the last step by more than this factor
SECANT_RATIO = 1.5


@dataclass
class SolveReport:
    """Result of one inner solve.

    ``path`` names the solver that produced the minimizer: "exact" for the
    closed-form gradient solve (``iters`` then counts its scalar root
    iterations) and for the sup-norm movement step (``iters`` then counts
    its exact box solves), "descent" for ``descend``.  ``newton_steps``
    counts the descent iterations that took the Newton direction.
    ``grad_dual_norm`` is the residual at the minimizer; for a movement
    step it is the one of the exact step, dPhi(v) + J_p((v - g)/tau) = 0
    (on sup spaces, the box KKT violation plus the radius mismatch).
    ``slope`` is ||dPhi||_* at a movement step's minimizer, from a gradient
    the step evaluated there; None for the phi-minus-linear solve and for
    an anchor whose scale^(p-1) leaves the normal double range.
    """

    minimizer: np.ndarray
    grad_dual_norm: float
    iters: int
    converged: bool
    path: str = "descent"
    newton_steps: int = 0
    slope: float | None = None


def descend(x, value, grad, merit, tol, max_iters, w, project=None, newton=None):
    """Monotone limited-memory quasi-Newton descent in pairing coordinates.

    The one line-search loop for smooth problems.  ``grad(x)`` is the dual
    residual, ``merit(g)`` its stopping measure (the loop ends once it is at
    most ``tol``) and ``w`` the pairing weights.  The step direction is
    ``newton(x, r)`` wherever that returns one (see ``_Newton``), and
    otherwise the residual mapped through an L-BFGS metric (a
    preconditioned residual); the metric is updated on every step either
    way.  An Armijo backtracking search enforces strict decrease while
    objective differences are resolvable, and the endgame below the
    floating-point floor of the objective backtracks on the merit instead.
    The loop gives up once the merit has gone STALL_ITERS iterations
    without halving its best value (at the rounding floor it can creep
    down by parts in 1e4 for thousands of iterations).  ``project``, if
    given, retracts every trial point onto a constraint set (the start
    must already lie on it).  The metric starts empty in every call.
    Returns (x, f, merit, iters, converged); an unconverged exit returns
    the lowest-merit point visited, the start included.
    """
    x = np.array(x, dtype=float)
    f = value(x)
    if not np.isfinite(f):
        raise NumericsError("objective is not finite at the starting point")
    r = grad(x)
    resid = merit(r)
    memory: list[tuple[np.ndarray, np.ndarray, float]] = []
    gamma = 1.0
    iters = 0
    best, since_best = resid, 0
    lowest = x, f, resid

    def dot(a, b):
        return float((w * a * b).sum())

    def direction():
        qv = r.copy()
        coef = []
        for s, y, rho in reversed(memory):
            a = rho * dot(s, qv)
            coef.append(a)
            qv -= a * y
        qv *= gamma
        for (s, y, rho), a in zip(memory, reversed(coef)):
            qv += (a - rho * dot(y, qv)) * s
        return -qv

    def trial(t, d):
        x_new = x + t * d
        return x_new if project is None else project(x_new)

    # a far trial point may overflow the objective, and the isfinite test
    # rejects it: no cause for a warning (a non-finite gradient still raises)
    with np.errstate(over="ignore"):
        while resid > tol and iters < max_iters and since_best < STALL_ITERS:
            d = None if newton is None else newton(x, r)
            if d is None:
                d = direction()
            slope = dot(r, d)
            if slope >= 0.0:
                memory.clear()
                d = -gamma * r
                slope = dot(r, d)
                if slope >= 0.0:
                    break
            accepted = False
            noise = 16.0 * np.finfo(float).eps * (1.0 + abs(f))
            t = 1.0
            if -LS_SLOPE * t * slope > noise:
                for _ in range(200):
                    x_new = trial(t, d)
                    if np.array_equal(x_new, x):
                        break
                    f_new = value(x_new)
                    if np.isfinite(f_new) and f_new <= f + LS_SLOPE * t * slope:
                        accepted = True
                        r_new = grad(x_new)
                        break
                    t *= LS_SHRINK
                    if -LS_SLOPE * t * slope <= noise:
                        break  # shrunk into the rounding floor of f
            if not accepted:
                # endgame: f-differences are at rounding level, so backtrack on
                # the merit, which stays well resolved near the minimizer
                for trial_d in (d, -gamma * r):
                    t = 1.0
                    for _ in range(60):
                        x_new = trial(t, trial_d)
                        if np.array_equal(x_new, x):
                            break
                        f_new = value(x_new)
                        r_new = grad(x_new)
                        if np.isfinite(f_new) and merit(r_new) < resid:
                            accepted = True
                            break
                        t *= LS_SHRINK
                    if accepted:
                        break
                    memory.clear()  # retry along the raw residual
            if not accepted:
                break  # no resolvable progress in either merit
            s, y = x_new - x, r_new - r
            sy = dot(s, y)
            yy = dot(y, y)
            if sy > 1e-20 * max(dot(s, s), 1e-300) and yy > 0.0:
                memory.append((s, y, 1.0 / sy))
                if len(memory) > LBFGS_MEMORY:
                    memory.pop(0)
                gamma = sy / yy
            x, f, r = x_new, f_new, r_new
            resid = merit(r)
            iters += 1
            best, since_best = (resid, 0) if resid < 0.5 * best else (best, since_best + 1)
            lowest = (x, f, resid) if resid < lowest[2] else lowest
    x, f, resid = (x, f, resid) if resid <= tol else lowest
    return x, f, resid, iters, resid <= tol


def _thomas(diag, off, rhs):
    """x with T x = rhs for the symmetric tridiagonal T = (diag, off), by
    elimination without pivoting (T is positive definite where it is used)."""
    d, e, x = diag.tolist(), off.tolist(), rhs.tolist()
    for i in range(1, len(d)):
        m = e[i - 1] / d[i - 1]
        d[i] -= m * e[i - 1]
        x[i] -= m * x[i - 1]
    x[-1] /= d[-1]
    for i in range(len(d) - 2, -1, -1):
        x[i] = (x[i] - e[i] * x[i + 1]) / d[i]
    return np.array(x)


class _Newton:
    """Newton directions for ``descend`` from the instance's Hessian hook.

    Solves (H(x) + diag(extra(x))) d = -w r, with H the Euclidean Hessian
    of Phi, ``extra`` the Euclidean curvature of a separable term added to
    Phi (the movement penalty) and w r the Euclidean residual: a Thomas
    sweep for a tridiagonal band, ``np.linalg.solve`` for a dense matrix.
    On quotient spaces the constants span the kernel of H, so the solve
    pins node 0 and then fits the constant component against the added
    curvature; where that curvature vanishes (the first movement iterate
    for p > 2, every phi-minus-linear iterate) the direction is the one
    with zero weighted mean.  A direction that is not finite or not a
    descent direction is declined (None) and descend keeps its L-BFGS step.

    For p < 2 the Hessian underestimates the curvature of long steps: on
    the p-homogeneous part, where H(x) x = (p-1) dPhi(x), a full Newton
    step from afar maps x to -x (2-p)/(p-1), across zero, and the Armijo
    search accepts the flip.  When the secant of the last step shows more
    than SECANT_RATIO times the curvature H gives it, the direction is
    shortened by that ratio (the Kacanov step on the homogeneous part).
    ``steps`` counts the directions handed out.
    """

    def __init__(self, inst: ProblemInstance, extra=None):
        self.inst = inst
        self.extra = extra
        self.w = inst.space.pairing_weights()
        self.steps = 0
        self.last = None

    def __call__(self, x, r):
        with np.errstate(all="ignore"):
            h = self.inst.hessian(x)
            if h is None:
                return None
            w, b = self.w, -self.w * r
            dg = np.zeros(len(x)) if self.extra is None else self.extra(x)
            band = not isinstance(h, np.ndarray)
            a = (h[0] + dg, h[1]) if band else h + np.diag(dg)

            def solve(a, rhs):
                return _thomas(*a, rhs) if band else np.linalg.solve(a, rhs)

            shrink = 1.0
            if self.inst.p < 2.0 and self.last is not None:
                s, y = x - self.last[0], w * (r - self.last[1])
                sas = float(s @ (a[0] * s) + 2.0 * s[:-1] @ (a[1] * s[1:])) if band else float(s @ a @ s)
                if float(y @ s) > SECANT_RATIO * sas > 0.0:
                    shrink = sas / float(y @ s)
            self.last = x, r
            try:
                if self.inst.space.kind is not SpaceKind.QUOTIENT_LP:
                    d = solve(a, b)
                else:
                    pinned = (a[0][1:], a[1][1:]) if band else a[1:, 1:]
                    vb, vd = solve(pinned, b[1:]), solve(pinned, dg[1:])
                    schur = dg.sum() - dg[1:] @ vd
                    alpha = (b.sum() - dg[1:] @ vb) / schur if schur > 1e-14 * dg.sum() else 0.0
                    d = np.concatenate(([0.0], vb - alpha * vd)) + alpha
                    if alpha == 0.0:
                        d -= np.sum(w * d) / np.sum(w)
            except (ZeroDivisionError, np.linalg.LinAlgError):
                return None
        if not (np.all(np.isfinite(d)) and float((w * r * d).sum()) < 0.0):
            return None
        self.steps += 1
        return shrink * d


def minimize_phi_minus_linear(inst: ProblemInstance, xi, grad_tol: float = 1e-9, init=None) -> SolveReport:
    """Unique minimizer of Phi(v) - <xi, v>, i.e. the point with dPhi(v) = xi.

    Terminates when the dual norm of (grad Phi(v) - xi) falls below
    grad_tol * (1 + ||xi||_*); by internal normalization the achieved
    residual is in fact below grad_tol * ||xi||_* for nonzero xi.  The
    instance's exact gradient solve, where it has one, is tried first and
    accepted under the same residual test; otherwise ``descend`` starts
    from it, or else from the warm start ``init`` (default zero).
    """
    space = inst.space
    xi = space.check_dim(xi)
    s = space.dual_norm(xi)
    if s == 0.0:
        zero = np.zeros(space.dim)
        return SolveReport(zero, space.dual_norm(inst.gradient(zero)), 0, True)
    q = inst.exponent.q
    xt = xi / s
    scale = np.float64(s) ** (q - 1.0)
    v0 = np.zeros(space.dim) if init is None else space.check_dim(init) / scale

    def value(v):
        return inst.value(v) - space.pairing(xt, v)

    def grad(v):
        return inst.gradient(v) - xt

    exact = inst.solve_gradient(xt)
    if exact is not None:
        v0, iters = exact
        resid = space.dual_norm(grad(v0))
        if resid <= grad_tol:
            return SolveReport(scale * v0, float(s * resid), iters, True, "exact")
    w = space.pairing_weights()
    newton = _Newton(inst)
    v, _, resid, iters, ok = descend(v0, value, grad, space.dual_norm, grad_tol, MAX_ITERS, w, newton=newton)
    return SolveReport(scale * v, float(s * resid), iters, ok, newton_steps=newton.steps)


def _smooth_movement(inst, g, tau, grad_tol, ref, v0):
    """The movement step by ``descend`` from v0, for the anchor g (both
    normalized) with ref = ||dPhi(g)||_*.

    The penalty ||v - g||^p / (p tau^(p-1)) is exact for every p.  ||u||^p
    is the power sum of u weighted by m: the pairing weights, or on trace
    spaces 1 on the boundary nodes and 0 inside.  Differences off the
    boundary are zeroed, so the dual gradient (m/w) times the kernel is the
    kernel itself (w is 1 on the boundary), and the p < 2 curvature floor
    of the Newton direction sees the boundary only.

    Quotient spaces use the same plain penalty: Phi is shift-invariant, so
    the unconstrained minimizer settles on the representative whose
    movement kernel has zero weighted mean, which is exactly the quotient
    duality-map inclusion (no per-evaluation shift solves needed).  The
    report's slope is read from the gradient at descend's last accepted
    point.
    """
    space, p = inst.space, inst.exponent.p
    c = tau ** (p - 1.0)
    trace = space.kind is SpaceKind.TRACE_BOUNDARY
    w = m = space.pairing_weights()
    if trace:
        m = np.zeros(space.dim)
        m[list(space.boundary)] = 1.0

    def diff(v):
        return (v - g) * m if trace else v - g

    def value(v):
        return inst.value(v) + _power_sum(diff(v), p, m) / (p * c)

    last = [None, None]  # the point of the last gradient call and dPhi there

    def grad(v):
        last[:] = v, inst.gradient(v)
        return last[1] + signed_power(diff(v), p - 1.0) / c

    def curvature(v):
        return m * smoothed_curvature(diff(v), p) / c

    tol = grad_tol * (1.0 + ref)
    newton = _Newton(inst, curvature)
    v, _, resid, iters, ok = descend(v0, value, grad, space.dual_norm, tol, MAX_ITERS, w, newton=newton)
    slope = space.dual_norm(last[1] if v is last[0] else inst.gradient(v))
    return SolveReport(v, resid, iters, ok, newton_steps=newton.steps, slope=slope)


def _box_kkt(v, gr, lo, hi):
    """(KKT violation, active multiplier mass) of v for min Phi on lo <= v <= hi.

    ``gr`` is the gradient of Phi at v.  The violation sums the free
    gradient and the wrong-signed gradient on the active faces; the mass
    sums the multipliers carried by the active faces.
    """
    at_up = v >= hi
    at_lo = v <= lo
    interior = ~(at_up | at_lo)
    viol = (
        float(np.sum(np.abs(gr[interior])))
        + float(np.sum(np.maximum(gr[at_up], 0.0)))
        + float(np.sum(np.maximum(-gr[at_lo], 0.0)))
    )
    mass = float(np.sum(np.maximum(-gr[at_up], 0.0))) + float(np.sum(np.maximum(gr[at_lo], 0.0)))
    return viol, mass


def _sup_movement(inst, g, tau, grad_tol, ref, carry: dict):
    """Exact sup-norm movement step via the box reformulation, for the
    normalized anchor g with ref = ||dPhi(g)||_*.

    For rho = ||v - g||_inf the subproblem splits into an energy
    minimization over the box |v - g|_inf <= rho (all nonsmoothness absorbed
    by the constraint), which the instance solves exactly (``solve_box``),
    and a scalar optimality condition on rho: the active multiplier mass
    must equal rho^(p-1)/tau^(p-1).  The root is bracketed and polished with
    safeguarded secant steps; the multiplier mass is nonincreasing in rho.
    The KKT violation, the mass and the report's slope are measured from
    the gradient at each box point, so the residual is never assumed zero.
    The last radius is kept in ``carry["sup_rho"]`` to start the next step.
    """
    p, q = inst.exponent.p, inst.exponent.q
    c = tau ** (p - 1.0)
    tol = grad_tol * (1.0 + ref)
    evals = 0

    def G(rho):
        nonlocal evals
        lo, hi = g - rho, g + rho
        v = inst.solve_box(lo, hi)
        evals += 1
        gr = inst.gradient(v)
        viol, mass = _box_kkt(v, gr, lo, hi)
        return mass - rho ** (p - 1.0) / c, v, viol, gr

    rho = max(carry.get("sup_rho", tau * ref ** (q - 1.0)), 1e-300)
    g_mid, v_mid, viol_mid, gr_mid = G(rho)
    # bracket the radius: mass decreases with rho, the power term grows
    lo_r, hi_r = rho, rho
    g_lo, g_hi = g_mid, g_mid
    for _ in range(200):
        if g_lo > 0.0:
            break
        lo_r *= 0.5
        g_lo = G(lo_r)[0]
    for _ in range(200):
        if g_hi < 0.0:
            break
        hi_r *= 2.0
        g_hi = G(hi_r)[0]

    def report(v, gr, resid):
        return SolveReport(v, resid, evals, resid <= tol, "exact", slope=inst.space.dual_norm(gr))

    if not (g_lo > 0.0 > g_hi):
        return report(v_mid, gr_mid, viol_mid + abs(g_mid))
    v_best, gr_best, rho_best, resid_best = v_mid, gr_mid, rho, math.inf
    for it in range(200):
        span = hi_r - lo_r
        mid = hi_r - g_hi * span / (g_hi - g_lo) if it % 2 == 0 and g_hi != g_lo else 0.5 * (lo_r + hi_r)
        if not (lo_r < mid < hi_r):
            mid = 0.5 * (lo_r + hi_r)
        g_m, v_m, viol_m, gr_m = G(mid)
        resid = viol_m + abs(g_m)
        if resid < resid_best:
            v_best, gr_best, rho_best, resid_best = v_m, gr_m, mid, resid
        if resid <= 0.75 * tol or span <= 1e-15 * hi_r:
            break
        if g_m > 0.0:
            lo_r, g_lo = mid, g_m
        else:
            hi_r, g_hi = mid, g_m
    carry["sup_rho"] = rho_best
    return report(v_best, gr_best, resid_best)


def minimize_movement(
    inst: ProblemInstance, g, tau: float, grad_tol: float = 1e-9, carry: dict | None = None, init=None, slope=None
) -> SolveReport:
    """One implicit minimizing-movement step from anchor g with step tau.

    Minimizes Phi(v) + ||v - g||^p / (p tau^(p-1)), the exact penalty for
    every p; terminates when the dual norm of the full objective gradient,
    the residual of dPhi(v) + J_p((v - g)/tau) = 0, drops below
    grad_tol * (1 + ||grad Phi(g)||_*).  The smooth path starts ``descend``
    at the warm start ``init`` (default: the anchor g); ``run_flow`` passes
    its predicted next state.  Both paths solve for the anchor normalized
    to unit norm and the report is scaled back here.  dPhi is
    (p-1)-homogeneous, so the caller's ``slope`` = ||grad Phi(g)||_* gives
    both paths' tolerance scale (evaluated here if not given), and the
    report's slope scales back the same way, while scale^(p-1) is a normal
    double.  The sup path ignores ``init``: ``run_flow`` passes a mutable
    ``carry`` dict, which holds only the sup radius of the last step, and
    that radius starts the next sup step's root search.
    """
    if not (tau > 0.0):
        raise DegenerateInputError(f"step size tau must be > 0, got {tau}")
    space = inst.space
    g = space.check_dim(g)
    p = inst.exponent.p
    scale = _scaled_pnorm(g, space.pairing_weights(), p)
    if scale == 0.0:
        return SolveReport(np.zeros(space.dim), 0.0, 0, True)
    s = np.float64(scale)
    with np.errstate(over="ignore"):  # an extreme anchor's s^(p-1) may leave the double range
        s_p1 = s ** (p - 1.0)
    homogeneous = np.finfo(float).tiny <= s_p1 < math.inf
    g = g / scale
    ref = float(slope / s_p1) if slope is not None and homogeneous else space.dual_norm(inst.gradient(g))
    if space.kind is SpaceKind.SUP:
        rep = _sup_movement(inst, g, tau, grad_tol, ref, {} if carry is None else carry)
    else:
        v0 = g if init is None else space.check_dim(init) / scale
        rep = _smooth_movement(inst, g, tau, grad_tol, ref, v0)
    with np.errstate(over="ignore"):
        resid = float(s_p1 * rep.grad_dual_norm)
        slope_new = float(s_p1 * rep.slope) if homogeneous else None
    return SolveReport(s * rep.minimizer, resid, rep.iters, rep.converged, rep.path, rep.newton_steps, slope_new)
