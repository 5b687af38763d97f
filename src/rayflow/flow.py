"""Minimizing-movement approximation of p-curves of maximal slope.

The implicit scheme advances v_{n+1} = argmin Phi(v) + ||v - v_n||^p/(p tau^(p-1)).
Along the discrete flow the energy is nonincreasing (by construction), the
Rayleigh quotient is monitored for monotonicity, the energy dissipation
identity is recorded as a per-step residual

    |(phi_n - phi_{n+1})/tau - (speed_n^p/p + slope_{n+1}^q/q)|,

and (1 + tau mu)^n v_n is the rescaled state whose limit is a minimizer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError
from .inner import minimize_movement
from .iterate import SchemeFailure, Trace, Violation, check_stop_rules, measure_start, outer_loop
from .problems import ProblemInstance
from .spaces import SpaceKind, mu_from_lambda

__all__ = [
    "FlowOptions",
    "FlowRow",
    "local_slope",
    "run_flow",
    "check_decay",
]

#: the flow takes no stop before this step
MIN_STEPS = 10
#: Rayleigh-stable steps in a row that stop a flow whose direction never settles
RQ_PATIENCE = 50


@dataclass
class FlowOptions:
    """Stability thresholds and the movement solves' tolerance for the discrete flow."""

    rtol: float | None = 1e-9
    dtol: float | None = 1e-8
    grad_tol: float = 1e-9

    def __post_init__(self):
        check_stop_rules(self.rtol, self.dtol, self.grad_tol)


@dataclass
class FlowRow:
    n: int
    t: float
    phi: float
    norm: float
    rq: float
    speed: float
    slope: float
    energy_residual: float


def local_slope(inst: ProblemInstance, u) -> float:
    """|dPhi|(u): the dual norm of the (unique) gradient of the smooth energy."""
    return inst.space.dual_norm(inst.gradient(u))


def check_step(tau: float | None, t_end: float | None):
    """Validate the flow's step size and horizon, either of which may be
    None (not known yet): both positive and finite, and t_end at least one
    step with a finite step count t_end/tau."""
    if tau is not None and not (0.0 < tau < math.inf):
        raise DegenerateInputError(f"tau: must be a positive finite number, got {tau}")
    if t_end is not None and not (0.0 < t_end < math.inf):
        raise DegenerateInputError(f"t_end: must be a positive finite number, got {t_end}")
    if None not in (tau, t_end) and not (tau <= t_end and t_end / tau < math.inf):
        raise DegenerateInputError(f"t_end: must span from one to finitely many steps tau = {tau}, got {t_end}")


def run_flow(inst: ProblemInstance, v0, tau: float, t_end: float, opts: FlowOptions | None = None):
    """Advance the minimizing-movement flow from v0; returns (Trace, RunSummary),
    with one FlowRow per state.

    Each step is one movement solve anchored at the previous state v_n.
    On smooth spaces the solve starts at a predicted state, with
    s = 1 + tau mu and mu from the quotient of v_n: on the ground ray each
    step divides the state by exactly s, so the first two steps start at
    v_n/s; on it the rescaled states a_k = v_{n-k}/s^k coincide, and off it
    they vary smoothly in k.  The third step extrapolates
    e = v_2 + (v_2 - v_1)/s, to O(tau^2) off the ray; later steps take the
    quadratic through three rescaled states, e = 3 a_0 - 3 a_1 + a_2, to
    O(tau^3).  Neither reads the start v_0, which one step can move far off
    the smooth path (a Steklov start's interior is free, its first state's
    is fixed by the boundary).  Either prediction is rescaled to the radial
    norm ||v_n||/s: a prediction within the inner tolerance is accepted
    uncorrected, and an unscaled one would drift along the ray.  A zero
    state starts at the anchor.  Each solve takes its tolerance scale from
    the last row's slope and returns the next row's, so a smooth step
    evaluates the gradient only inside ``descend`` and a sup step only in
    its box checks, where the last step's radius starts the root search.
    Stop rules and collapse handling are ``iterate.outer_loop``'s (no stop
    before MIN_STEPS; t_end bounds the run).  The limit is
    (1 + tau mu)^n v_n at the last step: on the ground ray each step
    shrinks the state by exactly (1 + tau mu)^(-1), for every p, so a unit
    ground state keeps unit norm.
    """
    opts = opts or FlowOptions()
    check_step(tau, t_end)
    space = inst.space
    v = space.check_dim(v0)
    v_hat, norm, phi, rq = measure_start(inst, v)
    trace = Trace(inst.p, [FlowRow(0, 0.0, phi, norm, rq, math.nan, local_slope(inst, v), math.nan)])
    p, q = inst.exponent.p, inst.exponent.q
    carry: dict = {}  # the sup radius of the last step
    past: list[np.ndarray] = []  # v_{n-1} and v_{n-2} for the predictor, never the start

    def predict(v):
        rq, norm = trace.rows[-1].rq, trace.rows[-1].norm
        if space.kind is SpaceKind.SUP or not (0.0 < rq < math.inf):
            return None
        s = 1.0 + tau * mu_from_lambda(rq, inst.exponent)
        if not past:
            return v / s
        if len(past) == 1:
            e = v + (v - past[0]) / s
        else:
            e = 3.0 * (v - past[0] / s) + past[1] / (s * s)
        return e * (norm / s / space.norm(e))

    def step(n, v):
        rep = minimize_movement(inst, v, tau, opts.grad_tol, carry, init=predict(v), slope=trace.rows[-1].slope)
        if n > 1:
            past[:] = [v] + past[:1]
        if not rep.converged:
            raise SchemeFailure(
                f"{inst.kind}: movement solve failed to converge at step {n} (merit {rep.grad_dual_norm:.3e})", trace
            )
        v_new = rep.minimizer
        speed = space.norm(v_new - v) / tau
        slope_new = local_slope(inst, v_new) if rep.slope is None else rep.slope

        def row(norm_new, phi_new, rq_new):
            prev = trace.rows[-1]
            prev.speed = speed
            prev.energy_residual = abs((prev.phi - phi_new) / tau - (speed**p / p + slope_new**q / q))
            return FlowRow(n, n * tau, phi_new, norm_new, rq_new, math.nan, slope_new, math.nan)

        return v_new, row

    def rescale(mu_hat):
        last = trace.rows[-1]
        return math.exp(last.n * math.log1p(tau * mu_hat) + math.log(last.norm))

    max_steps = max(1, int(round(t_end / tau)))
    summary = outer_loop(inst, v, v_hat, trace, step, rescale, max_steps, opts.rtol, opts.dtol, RQ_PATIENCE, MIN_STEPS)
    return trace, summary


#: relative allowance on the decay bound for inexact movement solves
DECAY_RTOL = 1e-9


def check_decay(trace: Trace, mu_hat: float, phi0: float):
    """Steps where phi_n exceeds the discrete decay bound (1 + p tau mu)^(-n) phi0.

    The bound holds for every p and every supported space:

    1. The movement step's Euler-Lagrange relation is J_p(w_n) = -dPhi(v_n)
       with w_n = (v_n - v_{n-1})/tau, so ||dPhi(v_n)||_*^q = ||w_n||^p.
    2. Convexity of Phi gives phi_{n-1} >= phi_n + <dPhi(v_n), v_{n-1} - v_n>
       = phi_n + tau ||dPhi(v_n)||_*^q.
    3. Euler's identity p Phi(v) = <dPhi(v), v>, Hoelder's inequality and
       lambda ||v||^p <= p Phi(v) give ||dPhi(v_n)||_*^q >= p mu phi_n,
       with mu = lambda^(1/(p-1)).

    Hence phi_{n-1} >= (1 + p tau mu) phi_n.  On the ground ray the scheme
    decays at (1 + tau mu)^(-p n), so the bound is tight to first order in
    tau.  It holds for the true mu; a run's mu_hat is an upper estimate of
    mu, which makes the bound a little stricter (step 3 also holds with the
    quotient of v_n in place of lambda, and that quotient is at least the
    run's final one while it decreases along the flow).  Only phi_n and the
    step size tau are read from the trace; DECAY_RTOL is a fixed relative
    allowance for inexact inner solves.
    """
    rows = trace.rows
    if len(rows) < 2:
        return []
    rate = 1.0 + trace.p * (rows[1].t - rows[0].t) * mu_hat
    out = []
    for r in rows[1:]:
        bound = phi0 * rate ** (-r.n)
        if r.phi > bound * (1.0 + DECAY_RTOL):
            out.append(Violation(r.n, "decay", r.phi / bound - 1.0))
    return out
