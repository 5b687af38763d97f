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
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError
from .inner import minimize_movement
from .iterate import SchemeFailure, StopReason, Violation, check_stop_rules, outer_loop
from .problems import ProblemInstance
from .spaces import CoeffVec, as_array

__all__ = [
    "FlowOptions",
    "FlowRow",
    "FlowTrace",
    "FlowSummary",
    "local_slope",
    "run_flow",
    "check_decay",
]


@dataclass
class FlowOptions:
    """Stability thresholds and the movement solves' tolerance for the discrete flow."""

    rtol: float | None = 1e-9
    dtol: float | None = 1e-8
    grad_tol: float = 1e-9
    min_steps: int = 10
    rq_patience: int = 50
    keep_states: bool = False

    def __post_init__(self):
        check_stop_rules(self.rtol, self.dtol, self.rq_patience, self.grad_tol)
        if self.min_steps < 1:
            raise DegenerateInputError(f"min_steps: must be >= 1, got {self.min_steps}")


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


@dataclass
class FlowTrace:
    p: float
    rows: list[FlowRow] = field(default_factory=list)
    states: list[np.ndarray] = field(default_factory=list)  # only if requested

    def __len__(self):
        return len(self.rows)

    def column(self, name) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows])


@dataclass
class FlowSummary:
    lambda_hat: float
    mu_hat: float
    limit_vec: CoeffVec
    steps: int
    converged: bool
    stop_reason: StopReason


def local_slope(inst: ProblemInstance, u) -> float:
    """|dPhi|(u): the dual norm of the (unique) gradient of the smooth energy."""
    return inst.space.dual_norm(inst.gradient(as_array(u)))


def check_step(tau: float, t_end: float):
    """Validate the flow's step size and horizon."""
    if not (0.0 < tau < math.inf):
        raise DegenerateInputError(f"tau: must be a positive finite number, got {tau}")
    if not (tau <= t_end < math.inf):
        raise DegenerateInputError(f"t_end: must be finite and at least one step tau = {tau}, got {t_end}")


def run_flow(inst: ProblemInstance, v0, tau: float, t_end: float, opts: FlowOptions | None = None):
    """Advance the minimizing-movement flow from v0; returns (FlowTrace, FlowSummary).

    Each step is one movement solve from the previous state; on sup spaces
    the last step's box radius starts the next one's root search.  Stop
    rules and collapse handling are ``iterate.outer_loop``'s (no stop
    before min_steps; t_end bounds the run).  The limit is
    (1 + tau mu)^n v_n at the last step: on the ground ray each step
    shrinks the state by exactly (1 + tau mu)^(-1), for every p, so a unit
    ground state keeps unit norm.
    """
    opts = opts or FlowOptions()
    check_step(tau, t_end)
    space = inst.space
    v = space.check_dim(as_array(v0))
    phi = inst.value(v)
    if not math.isfinite(phi):
        raise DegenerateInputError("Phi(v0) must be finite")
    norm = space.norm(v)
    rq = inst.rayleigh(v) if norm > 0.0 else math.nan
    trace = FlowTrace(p=inst.p)
    trace.rows.append(FlowRow(0, 0.0, phi, norm, rq, math.nan, local_slope(inst, v), math.nan))
    if opts.keep_states:
        trace.states.append(v.copy())
    p, q = inst.exponent.p, inst.exponent.q
    carry: dict = {}  # the sup radius of the last step

    def step(n, v):
        rep = minimize_movement(inst, v, tau, opts.grad_tol, carry)
        if not rep.converged:
            raise SchemeFailure(
                f"{inst.kind}: movement solve failed to converge at step {n} (merit {rep.grad_dual_norm:.3e})", trace
            )
        v_new = rep.minimizer
        if opts.keep_states:
            trace.states.append(v_new.copy())
        speed = space.norm(v_new - v) / tau
        slope_new = local_slope(inst, v_new)

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
    summary = outer_loop(
        inst, v, trace, step, rescale, max_steps, opts.rtol, opts.dtol, opts.rq_patience, opts.min_steps
    )
    return trace, FlowSummary(*summary)


#: relative allowance on the decay bound for inexact movement solves
DECAY_RTOL = 1e-9


def check_decay(trace: FlowTrace, mu_hat: float, phi0: float):
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
