"""Convex subproblem solvers shared by both approximation schemes.

Both outer schemes reduce to strictly convex minimizations:

* ``minimize_phi_minus_linear``: v |-> Phi(v) - <xi, v>
* ``minimize_movement``:         v |-> Phi(v) + ||v - g||^p / (p tau^(p-1))

Each solve depends only on its instance, its data and one ``grad_tol``.
Both run ``descend``, the one line-search loop for smooth problems.  Its
direction is the Newton direction wherever the instance has a Hessian
(``ProblemInstance.hessian``: a ``BandHessian`` for the 1D kinds and a
``DenseHessian`` for the fractional and matrix kinds, each with its own
solve); the movement solve adds the diagonal curvature of its penalty.
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
relatively; homogeneity of Phi makes the rescaling exact.  Per-evaluation
code calls ndarray methods and ufuncs, not numpy's Python wrappers (guard
test: ``tests/test_bench_targets.py::test_hot_paths_skip_numpy_dispatch``).

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
1D Dirichlet energy), and ``problems._increasing_root``, on a bracket
grown around the last step's radius, balances the active multiplier mass
against the movement penalty.  No descent loop runs apart from
``descend``: the sup oracle in ``oracles`` is a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, NumericsError
from .problems import ProblemInstance, _increasing_root, _power_sum
from .spaces import SpaceKind, _scaled_pnorm, signed_power, smoothed_curvature

__all__ = ["SolveReport", "check_step", "descend", "minimize_phi_minus_linear", "minimize_movement"]

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
#: the double epsilon and the least normal double, looked up once
_EPS, _TINY = np.finfo(float).eps, np.finfo(float).tiny


@dataclass
class SolveReport:
    """Result of one inner solve.

    ``path`` names the solver that produced the minimizer: "exact" for the
    closed-form gradient solve (``iters`` then counts its scalar root
    iterations) and for the sup-norm movement step (``iters`` then counts
    its exact box solves, bracketing included), "descent" for ``descend``.
    ``newton_steps`` counts the descent iterations that took the Newton
    direction.
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
    preconditioned residual).  The metric starts empty in every call; the
    curvature pair (s, y) of each step waits, LBFGS_MEMORY at most, until
    the metric is read, and is folded in then, in order.  An Armijo search
    enforces strict decrease while objective differences are resolvable,
    and the endgame below the rounding floor of the objective backtracks
    on the merit instead, along d and then along the raw residual; it also
    takes any d that rounding leaves without descent (the metric keeps only
    pairs with s.y > 0, and ``_Newton`` declines such a d).  The loop gives
    up once the merit has gone STALL_ITERS iterations without halving its
    best value (at the rounding floor it can creep down by parts in 1e4 for
    thousands of iterations).
    ``project``, if given, retracts every trial point onto a constraint set
    (the start must already lie on it).  Returns (x, f, merit, iters,
    converged); an unconverged exit returns the lowest-merit point visited,
    the start included.
    """
    x = np.array(x, dtype=float)
    f = value(x)
    if not math.isfinite(f):
        raise NumericsError("objective is not finite at the starting point")
    r = grad(x)
    resid = merit(r)
    memory: list[tuple[np.ndarray, np.ndarray, float]] = []
    pending: list[tuple[np.ndarray, np.ndarray]] = []  # (s, y) not yet in memory and gamma
    gamma = 1.0
    iters = 0
    best, since_best = resid, 0
    lowest = x, f, resid

    def dot(a, b):
        return float((w * a * b).sum())

    def fold():
        nonlocal gamma
        for s, y in pending:
            sy, yy = dot(s, y), dot(y, y)
            if sy > 1e-20 * max(dot(s, s), 1e-300) and yy > 0.0:
                memory.append((s, y, 1.0 / sy))
                if len(memory) > LBFGS_MEMORY:
                    memory.pop(0)
                gamma = sy / yy
        pending.clear()

    def direction():
        fold()
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
            accepted = False
            noise = 16.0 * _EPS * (1.0 + abs(f))
            t = 1.0
            if -LS_SLOPE * t * slope > noise:
                for _ in range(200):
                    x_new = trial(t, d)
                    f_new = value(x_new)
                    if math.isfinite(f_new) and f_new <= f + LS_SLOPE * t * slope:
                        accepted = True
                        r_new = grad(x_new)
                        break
                    t *= LS_SHRINK
                    if -LS_SLOPE * t * slope <= noise:
                        break  # shrunk into the rounding floor of f
            if not accepted:
                # endgame: f-differences are at rounding level, so backtrack on
                # the merit, which stays well resolved near the minimizer
                fold()
                for trial_d in (d, -gamma * r):
                    t = 1.0
                    for _ in range(60):
                        x_new = trial(t, trial_d)
                        if (x_new == x).all():
                            break
                        f_new = value(x_new)
                        r_new = grad(x_new)
                        if math.isfinite(f_new) and merit(r_new) < resid:
                            accepted = True
                            break
                        t *= LS_SHRINK
                    if accepted:
                        break
                    memory.clear()  # retry along the raw residual
            if not accepted:
                break  # no resolvable progress in either merit
            pending.append((x_new - x, r_new - r))
            if len(pending) >= LBFGS_MEMORY:
                fold()
            x, f, r = x_new, f_new, r_new
            resid = merit(r)
            iters += 1
            best, since_best = (resid, 0) if resid < 0.5 * best else (best, since_best + 1)
            lowest = (x, f, resid) if resid < lowest[2] else lowest
    x, f, resid = (x, f, resid) if resid <= tol else lowest
    return x, f, resid, iters, resid <= tol


class _Newton:
    """Newton directions for ``descend`` from the instance's Hessian hook.

    Solves (H(x) + diag(extra(x))) d = -w r, with H the Euclidean Hessian
    of Phi (a ``problems.BandHessian`` or ``DenseHessian``, which owns its
    solve), ``extra`` the Euclidean curvature of a separable term added to
    Phi (the movement penalty, or None) and w r the Euclidean residual.  A
    direction that is not finite or not a descent direction is declined
    (None) and descend keeps its L-BFGS step.

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
            a = h if self.extra is None else h.add_diagonal(self.extra(x))
            shrink = 1.0
            if self.inst.p < 2.0 and self.last is not None:
                s, y = x - self.last[0], self.w * (r - self.last[1])
                sas = a.quad(s)
                if float(y @ s) > SECANT_RATIO * sas > 0.0:
                    shrink = sas / float(y @ s)
            self.last = x, r
            d = a.solve(-self.w * r)
        if d is None or not (np.isfinite(d).all() and float((self.w * r * d).sum()) < 0.0):
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
    q = inst.q
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


def _smooth_movement(inst, g, c, tol, v0):
    """The movement step by ``descend`` from v0 to the residual ``tol``,
    for the anchor g (both normalized) and c = tau^(p-1).

    The penalty ||v - g||^p / (p c) is exact for every p.  ||u||^p
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
    space, p = inst.space, inst.p
    trace = space.kind is SpaceKind.TRACE_BOUNDARY
    w = m = space.pairing_weights()
    if trace:
        m = np.zeros(space.dim)
        m[space._boundary_index] = 1.0

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


def _sup_movement(inst, g, tau, c, tol, ref, carry: dict):
    """The exact sup-norm movement step to the residual ``tol``, for the
    normalized anchor g, c = tau^(p-1) and ref = ||dPhi(g)||_*.

    For rho = ||v - g||_inf the subproblem splits into an energy
    minimization over the box |v - g|_inf <= rho (all nonsmoothness absorbed
    by the constraint), which the instance solves exactly (``solve_box``),
    and a scalar optimality condition on rho: the active multiplier mass
    must equal rho^(p-1)/c.  The mass is nonincreasing in rho, so
    the mismatch G(rho) is decreasing; the radius is bracketed from the one
    in ``carry["sup_rho"]`` (the last step's, which is usually within about
    1% of the root) by a factor that starts at 1.01 and squares up to 2, and
    then found by ``_increasing_root`` on -G.  The KKT violation, the mass
    and the report's slope are measured from the gradient at each box
    point, so the residual is never assumed zero.  The step reports the box
    point of lowest residual and stops (G returns an exact 0.0) once that
    residual is at most 0.75 of the tolerance; ``iters`` counts every box
    solve, bracketing included.
    """
    p, q = inst.p, inst.q
    evals = 0
    best = []  # residual, rho, v and dPhi(v) of the lowest-residual box point

    def G(rho):
        nonlocal evals
        lo, hi = g - rho, g + rho
        v = inst.solve_box(lo, hi)
        evals += 1
        gr = inst.gradient(v)
        viol, mass = _box_kkt(v, gr, lo, hi)
        mismatch = mass - rho ** (p - 1.0) / c
        if not best or viol + abs(mismatch) < best[0]:
            best[:] = viol + abs(mismatch), rho, v, gr
        return 0.0 if best[0] <= 0.75 * tol else mismatch

    lo_r = hi_r = max(carry.get("sup_rho", tau * ref ** (q - 1.0)), 1e-300)
    g_lo = g_hi = G(lo_r)
    factor = 1.01
    for _ in range(200):
        if g_hi > 0.0:
            lo_r, g_lo = hi_r, g_hi
            hi_r *= factor
            g_hi = G(hi_r)
        elif g_lo < 0.0:
            hi_r, g_hi = lo_r, g_lo
            lo_r /= factor
            g_lo = G(lo_r)
        else:
            break
        factor = min(factor * factor, 2.0)
    if g_lo > 0.0 > g_hi:
        _increasing_root(lambda r: -G(r), lo_r, hi_r, ends=(-g_lo, -g_hi))
    resid, carry["sup_rho"], v, gr = best
    return SolveReport(v, resid, evals, resid <= tol, "exact", slope=inst.space.dual_norm(gr))


def check_step(tau: float | None, t_end: float | None, p: float):
    """Refuse a step tau at exponent p, or a horizon t_end, that the flow
    cannot take; None is not known yet.  Both must be positive and finite,
    t_end must span one to finitely many steps, and tau^(p-1), which both
    movement paths divide by, a normal double: tested on logs, with a binade
    of margin, after the horizon (an overflowing step count is t_end's)."""
    for name, x in (("tau", tau), ("t_end", t_end)):
        if x is not None and not (0.0 < x < math.inf):
            raise DegenerateInputError(f"{name}: must be a positive finite number, got {x}")
    if None not in (tau, t_end) and not (tau <= t_end and t_end / tau < math.inf):
        raise DegenerateInputError(f"t_end: must span from one to finitely many steps tau = {tau}, got {t_end}")
    if tau is not None and not (-1021.0 <= (p - 1.0) * math.log2(tau) <= 1023.0):
        raise DegenerateInputError(f"tau: tau^(p-1) must be a normal double, got tau = {tau} at p = {p}")


def minimize_movement(
    inst: ProblemInstance, g, tau: float, grad_tol: float = 1e-9, carry: dict | None = None, init=None, slope=None
) -> SolveReport:
    """One implicit minimizing-movement step from anchor g with step tau.

    Minimizes Phi(v) + ||v - g||^p / (p tau^(p-1)), the exact penalty for
    every p, for a tau that ``check_step`` accepts; terminates when the dual
    norm of the full objective gradient, the residual of dPhi(v) +
    J_p((v - g)/tau) = 0, drops below grad_tol * (1 + ||grad Phi(g)||_*).
    Both paths take tau^(p-1) and that tolerance from here.  The smooth path
    starts ``descend`` at the warm start ``init`` (default: the anchor g);
    ``run_flow`` passes its predicted next state.  Both paths solve for the
    anchor normalized to unit norm, and the report is scaled back here.
    dPhi is (p-1)-homogeneous, so the caller's ``slope`` = ||grad Phi(g)||_*
    gives both paths' tolerance scale (evaluated here if not given), and the
    report's slope scales back the same way, while scale^(p-1) is a normal
    double.  The sup path ignores ``init``: ``run_flow`` passes a mutable
    ``carry`` dict, which holds only the sup radius of the last step, and
    the next sup step grows its radius bracket from there.
    """
    p = inst.p
    check_step(tau, None, p)
    space = inst.space
    g = space.check_dim(g)
    scale = _scaled_pnorm(g, space.pairing_weights(), p)
    if scale == 0.0:
        return SolveReport(np.zeros(space.dim), 0.0, 0, True)
    try:  # Python floats: C pow, and products that overflow to inf without a warning
        s_p1 = math.pow(scale, p - 1.0)
    except OverflowError:  # an extreme anchor's s^(p-1) leaves the double range
        s_p1 = math.inf
    homogeneous = _TINY <= s_p1 < math.inf
    g = g / scale
    ref = float(slope / s_p1) if slope is not None and homogeneous else space.dual_norm(inst.gradient(g))
    c, tol = tau ** (p - 1.0), grad_tol * (1.0 + ref)
    if space.kind is SpaceKind.SUP:
        rep = _sup_movement(inst, g, tau, c, tol, ref, {} if carry is None else carry)
    else:
        v0 = g if init is None else space.check_dim(init) / scale
        rep = _smooth_movement(inst, g, c, tol, v0)
    resid = s_p1 * float(rep.grad_dual_norm)
    slope_new = s_p1 * float(rep.slope) if homogeneous else None
    return SolveReport(scale * rep.minimizer, resid, rep.iters, rep.converged, rep.path, rep.newton_steps, slope_new)
