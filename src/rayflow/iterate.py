"""Inverse iteration for the least Rayleigh quotient.

Each step maps the previous iterate through the duality map and solves the
strictly convex subproblem dPhi(u_k) = J_p(u_{k-1}).  Along any solution
sequence the Rayleigh quotient p Phi(u_k)/||u_k||^p and the norm ratio
||u_{k-1}||/||u_k|| are nonincreasing, the ratios converge to
mu = lambda^(1/(p-1)), and mu^k u_k converges to a minimizer (or to zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import DegenerateInputError
from .inner import minimize_phi_minus_linear
from .problems import ProblemInstance
from .spaces import mu_from_lambda, pow2_scale, unit_representative

__all__ = [
    "IterOptions",
    "IterationRow",
    "Trace",
    "StopReason",
    "RunSummary",
    "Violation",
    "SchemeFailure",
    "iterate",
    "check_monotonicity",
    "rough_mu",
]


class SchemeFailure(RuntimeError):
    """An inner solve failed to converge; the partial trace is attached."""

    def __init__(self, message, trace):
        super().__init__(message)
        self.trace = trace


class StopReason(Enum):
    RQ_STABLE = "rq_stable"
    DIRECTION_STABLE = "direction_stable"
    MAX_ITERS = "max_iters"
    COLLAPSED_TO_ZERO = "collapsed_to_zero"


#: an iterate whose norm falls below this has collapsed to the zero element
COLLAPSE_NORM = 1e-300
#: Rayleigh-stable steps in a row that stop a run whose direction never settles
RQ_PATIENCE = 30
#: relative slack of the Rayleigh-quotient and norm-ratio monotonicity checks
MONOTONE_SLACK = 1e-8
#: loose inverse-iteration steps behind the rough mu estimate
ROUGH_MU_STEPS = 5


def check_stop_rules(rtol, dtol, grad_tol):
    """Validate the stability thresholds and the inner-solve tolerance
    shared by both schemes."""
    for key, tol in (("rtol", rtol), ("dtol", dtol)):
        if tol is not None and not (0.0 < tol < math.inf):
            raise DegenerateInputError(f"{key}: must be a positive finite number or None, got {tol}")
    if not (0.0 < grad_tol < math.inf):
        raise DegenerateInputError(f"grad_tol: must be a positive finite number, got {grad_tol}")


@dataclass
class IterOptions:
    """Outer-loop controls.

    ``rtol``/``dtol`` are the Rayleigh- and direction-stability thresholds;
    either may be None to disable that stop (a run with both disabled
    continues to max_iters or norm underflow).  ``grad_tol`` is the relative
    residual tolerance of each inner solve.
    """

    rtol: float | None = 1e-10
    dtol: float | None = 1e-8
    max_iters: int = 500
    grad_tol: float = 1e-9

    def __post_init__(self):
        check_stop_rules(self.rtol, self.dtol, self.grad_tol)
        if not (isinstance(self.max_iters, (int, np.integer)) and self.max_iters >= 1):
            raise DegenerateInputError(f"max_iters: must be an integer >= 1, got {self.max_iters}")


@dataclass
class IterationRow:
    k: int
    norm: float
    phi: float
    rq: float
    ratio: float
    residual: float


@dataclass
class Trace:
    """The rows of one scheme run, the start's first: ``IterationRow`` for
    inverse iteration, ``flow.FlowRow`` for the flow; ``p`` is the energy's
    degree, which ``flow.check_decay`` reads."""

    p: float
    rows: list = field(default_factory=list)

    def __len__(self):
        return len(self.rows)

    def column(self, name) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows])


@dataclass
class RunSummary:
    """Either scheme's outcome: lambda_hat, the quotient of the last state
    before any collapse, mu_hat = lambda_hat^(1/(p-1)), limit and steps."""

    lambda_hat: float
    mu_hat: float
    limit_vec: np.ndarray
    steps: int
    converged: bool
    stop_reason: StopReason

    @property
    def iters(self) -> int:
        """``steps``, under the iterate summary's JSON key."""
        return self.steps


class Violation(NamedTuple):
    k: int
    quantity: str
    magnitude: float


def measure_state(inst, x):
    """(x_hat, norm, phi, rq) of a state x from one Phi and one norm.

    Both are taken at y = x / 2^k from ``pow2_scale``, as in
    ``inst.rayleigh``, so rq = ``inst.quotient(Phi(y), ||y||)`` is
    ``inst.rayleigh(x)`` to the bit, and raises where ||y||^p underflows.
    phi = 2^(kp) Phi(y) is Phi(x) up to rounding and overflows where Phi(x)
    does.  The norm 2^k ||y|| and the sign-normalized unit representative
    x_hat have the bits of x's own: the norm and the quotient shift scale by
    the same power of 2 inside.  At norm 0, rq is nan and x_hat None.
    """
    y, k = pow2_scale(x)
    rep, norm = inst.space.representative_norm(y)
    phi = inst.value(y)
    rq = inst.quotient(phi, norm) if norm > 0.0 else math.nan
    x_hat = unit_representative(inst.space, rep, norm) if norm > 0.0 else None
    e = k * inst.p
    whole = math.floor(e)
    phi = float(np.ldexp(phi * 2.0 ** (e - whole), whole))  # a whole power of 2 is exact
    return x_hat, float(np.ldexp(norm, k)), phi, rq


def measure_start(inst, x, scale_free=False):
    """``measure_state`` of a start x; raises, with no warning, at norm 0 or
    unless Phi is finite at x, or for a scale-free scheme (inverse
    iteration) at the x / 2^k its quotient is taken at."""
    with np.errstate(over="ignore"):
        state = measure_state(inst, x)
    if state[1] == 0.0:
        raise DegenerateInputError("u0 must have nonzero norm")
    if not math.isfinite(state[3] if scale_free else state[2]):
        raise DegenerateInputError("Phi at the start is not finite")
    return state


def outer_loop(inst, x, x_hat, trace, step, log_rate, max_steps, rtol, dtol, rq_patience, min_steps=1):
    """The outer loop both schemes share; returns the run's RunSummary,
    whose ``steps`` counts the rows after the start's.

    ``trace`` holds the row of the start x, and ``x_hat`` is its unit
    representative, both from ``measure_start``.
    ``step(k, x)`` runs one scheme step from x and returns (report, row):
    the SolveReport whose minimizer is the new state x_new, and
    ``row(norm_new, phi_new, rq_new)``, which builds the trace row of x_new
    (the row of x is still last).  An unconverged solve, or a non-finite
    minimizer, raises SchemeFailure with the rows so far.  ``measure_state``
    gives each new state's row and direction from one Phi and one norm: its
    quotient shift is solved once, and ``inst.rayleigh`` is not called.
    The run stops once the Rayleigh quotient is rtol-stable and the
    sign-normalized direction dtol-stable, or after ``rq_patience``
    Rayleigh-stable steps in a row (neither before ``min_steps``), or at
    ``max_steps``; a norm underflow stops it as CollapsedToZero.  lambda_hat
    is the quotient of the last state before any collapse.  A step shrinks a
    state on the ground ray by s, with log s = ``log_rate(mu_hat)``, so the
    limit at the last step K is exp(K log s + log ||x_K||) x_hat_K, or zero
    after a collapse; a limit outside the double range raises
    DegenerateInputError.
    """
    space = inst.space
    rq = trace.rows[-1].rq
    stop = StopReason.MAX_ITERS
    rq_stable_run = 0
    for k in range(1, max_steps + 1):
        rep, row = step(k, x)
        if not rep.converged:
            raise SchemeFailure(
                f"{inst.kind}: inner solve failed to converge at outer step {k} (merit {rep.grad_dual_norm:.3e})", trace
            )
        if not np.isfinite(rep.minimizer).all():
            raise SchemeFailure(f"{inst.kind}: minimizer at outer step {k} is not finite", trace)
        x_hat_new, norm_new, phi_new, rq_new = measure_state(inst, rep.minimizer)
        trace.rows.append(row(norm_new, phi_new, rq_new))
        if norm_new < COLLAPSE_NORM:
            stop = StopReason.COLLAPSED_TO_ZERO
            break
        rq_stable = rtol is not None and abs(rq_new - rq) <= rtol * abs(rq_new)
        dir_stable = dtol is not None and space.norm(x_hat_new - x_hat) <= dtol
        x, rq, x_hat = rep.minimizer, rq_new, x_hat_new
        rq_stable_run = rq_stable_run + 1 if rq_stable else 0
        if k >= min_steps:
            if rq_stable and dir_stable:
                stop = StopReason.DIRECTION_STABLE
                break
            if rq_stable_run >= rq_patience:
                # Rayleigh value settled but the direction keeps moving
                # (non-simple minimizer set); report the value-level convergence.
                stop = StopReason.RQ_STABLE
                break

    steps, mu_hat = len(trace) - 1, mu_from_lambda(rq, inst.exponent)
    if stop is StopReason.COLLAPSED_TO_ZERO:
        return RunSummary(rq, mu_hat, np.zeros(space.dim), steps, False, stop)
    limit = math.exp(steps * log_rate(mu_hat) + math.log(trace.rows[-1].norm)) * x_hat
    if not np.isfinite(limit).all():
        raise DegenerateInputError("rescaled limit vector has non-finite entries")
    return RunSummary(rq, mu_hat, limit, steps, stop is not StopReason.MAX_ITERS, stop)


def iterate(inst: ProblemInstance, u0, opts: IterOptions | None = None):
    """Run inverse iteration from u0; returns (Trace, RunSummary), with
    one IterationRow per iterate.

    A zero start (on a Steklov space, one of zero trace norm) is refused.
    Each step solves dPhi(u_k) = J_p(u_{k-1}), warm-started on the
    predicted iterate u_{k-1}/mu.  Stop rules, collapse handling, the
    limit and the failed-step check are ``outer_loop``'s: the limit is
    mu_hat^K u_K at the last step K, and an inner solve that does not
    converge raises SchemeFailure, holding the rows so far.
    """
    opts = opts or IterOptions()
    space = inst.space
    u = space.check_dim(u0)
    u_hat, norm, phi, rq = measure_start(inst, u, scale_free=True)
    trace = Trace(inst.p, [IterationRow(0, norm, phi, rq, math.nan, math.nan)])

    def step(k, u):
        warm = u / mu_from_lambda(trace.rows[-1].rq, inst.exponent)
        rep = minimize_phi_minus_linear(inst, space.duality_map(u), opts.grad_tol, init=warm)

        def row(norm_new, phi_new, rq_new):
            ratio = trace.rows[-1].norm / max(norm_new, 5e-324)
            return IterationRow(k, norm_new, phi_new, rq_new, ratio, rep.grad_dual_norm)

        return rep, row

    return trace, outer_loop(inst, u, u_hat, trace, step, math.log, opts.max_iters, opts.rtol, opts.dtol, RQ_PATIENCE)


def check_monotonicity(trace: Trace, mu_hat: float | None = None):
    """All violations of the per-step monotonicity laws in a trace.

    Checks the Rayleigh quotient and the norm ratio with relative slack
    MONOTONE_SLACK, and, when ``mu_hat`` is given, the scaled-norm
    contraction norm_k <= norm_{k-1}/mu_hat with a 1e-6 relative tolerance
    (the wider slack covers the mu-estimator consistency, which is itself
    only tight to about 1e-6).
    """
    out: list[Violation] = []
    rows = trace.rows
    for k in range(1, len(rows)):
        a, b = rows[k - 1], rows[k]
        if math.isfinite(a.rq) and math.isfinite(b.rq) and b.rq > a.rq * (1.0 + MONOTONE_SLACK):
            out.append(Violation(b.k, "rq", b.rq / a.rq - 1.0))
        if math.isfinite(a.ratio) and math.isfinite(b.ratio) and b.ratio > a.ratio * (1.0 + MONOTONE_SLACK):
            out.append(Violation(b.k, "ratio", b.ratio / a.ratio - 1.0))
        if mu_hat is not None and b.norm > (a.norm / mu_hat) * (1.0 + 1e-6):
            out.append(Violation(b.k, "scaled_norm", b.norm * mu_hat / a.norm - 1.0))
    return out


def rough_mu(inst: ProblemInstance, u0) -> float:
    """Crude mu estimate from ROUGH_MU_STEPS loose inverse-iteration steps."""
    opts = IterOptions(rtol=None, dtol=None, max_iters=ROUGH_MU_STEPS, grad_tol=1e-6)
    _, summary = iterate(inst, u0, opts)
    return summary.mu_hat
