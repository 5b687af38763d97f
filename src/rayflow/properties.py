"""Randomized invariant suites, shared by the test suite and the CLI.

Each check draws seeded random vectors, verifies one contract of the
space/problem layer at its stated tolerance, and reports a CheckResult.
The CLI's ``properties`` command renders the results as TAP-like lines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .inner import SolverOptions, minimize_phi_minus_linear
from .iterate import check_monotonicity, iterate
from .problems import (
    FractionalSeminorm1D,
    MatrixQuadratic,
    NeumannQuotient1D,
    PDirichlet1D,
    PDirichlet2D,
    ProblemInstance,
    Robin1D,
    Steklov1D,
    SupDirichlet1D,
    euler_identity_residual,
)
from .spaces import Exponent, SpaceDescriptor, SpaceKind, ray_projection_alpha
from .util import rng_from

__all__ = ["CheckResult", "run_properties", "PROPERTY_CHECKS"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _spaces(p):
    exp = Exponent(p)
    return [
        SpaceDescriptor(SpaceKind.WEIGHTED_LP, 17, exp, weight=0.25),
        SpaceDescriptor(SpaceKind.QUOTIENT_LP, 17, exp, weight=0.25),
        SpaceDescriptor(SpaceKind.SUP, 17, exp),
        SpaceDescriptor(SpaceKind.TRACE_BOUNDARY, 17, exp, weight=0.25, boundary=(0, 16)),
    ]


def _random_dual(rng, space):
    xi = rng.standard_normal(space.dim)
    if space.kind is SpaceKind.QUOTIENT_LP:
        w = space.pairing_weights()
        xi -= np.sum(w * xi) / np.sum(w)
    elif space.kind is SpaceKind.TRACE_BOUNDARY:
        mask = np.zeros(space.dim)
        mask[list(space.boundary)] = 1.0
        xi *= mask
    return xi


def _instances(eps=0.0, small=False):
    out = []
    for p in (1.5, 2.0, 3.0):
        n = 9 if small else 16
        out += [
            PDirichlet1D(p, n, eps=eps),
            PDirichlet2D(p, 4, eps=eps),
            FractionalSeminorm1D(p, n, s=0.5, eps=eps),
            Robin1D(p, n, beta=0.7, eps=eps),
            NeumannQuotient1D(p, n, eps=eps),
            SupDirichlet1D(p, n + 1, eps=eps),
            Steklov1D(p, n, eps=eps),
        ]
    out.append(MatrixQuadratic([[2.0, 1.0], [1.0, 3.0]]))
    return out


def check_duality_identity(seed=0, samples=1000) -> CheckResult:
    """<J_p(u), u> = ||u||^p = ||J_p(u)||_*^q on random vectors, 1e-10."""
    rng = rng_from(seed, "duality")
    worst = 0.0
    for p in (1.5, 2.0, 3.0, 4.0):
        for space in _spaces(p):
            q = space.exponent.q
            for _ in range(samples):
                u = rng.standard_normal(space.dim)
                xi = space.duality_map(u)
                npow = space.norm(u) ** p
                tol_ref = max(1.0, npow)
                worst = max(
                    worst,
                    abs(space.pairing(xi.values, u) - npow) / tol_ref,
                    abs(space.dual_norm(xi.values) ** q - npow) / tol_ref,
                )
    return CheckResult("core.duality-identity", worst <= 1e-10, f"worst {worst:.3e} (tol 1e-10)")


def check_holder(seed=0, samples=400) -> CheckResult:
    """|<xi, u>| <= ||xi||_* ||u|| (1 + 1e-12) on random pairs."""
    rng = rng_from(seed, "holder")
    worst = 0.0
    for p in (1.5, 2.0, 3.0, 4.0):
        for space in _spaces(p):
            for _ in range(samples):
                u = rng.standard_normal(space.dim)
                xi = _random_dual(rng, space)
                bound = space.dual_norm(xi) * space.norm(u)
                if bound > 0.0:
                    worst = max(worst, abs(space.pairing(xi, u)) / bound - 1.0)
    return CheckResult("core.holder", worst <= 1e-12, f"worst excess {worst:.3e} (tol 1e-12)")


def check_norm_homogeneity(seed=0, samples=200) -> CheckResult:
    rng = rng_from(seed, "homog-norm")
    worst = 0.0
    for p in (1.5, 2.0, 3.0, 4.0):
        for space in _spaces(p):
            for _ in range(samples):
                u = rng.standard_normal(space.dim)
                t = float(rng.uniform(0.1, 10.0))
                n = space.norm(u)
                worst = max(worst, abs(space.norm(t * u) - t * n) / max(t * n, 1e-300))
    return CheckResult("core.norm-homogeneity", worst <= 1e-12, f"worst {worst:.3e} (tol 1e-12)")


def check_quotient_shift_invariance(seed=0, samples=200) -> CheckResult:
    rng = rng_from(seed, "quot-shift")
    worst = 0.0
    for p in (1.5, 2.0, 3.0, 4.0):
        space = _spaces(p)[1]
        for _ in range(samples):
            u = rng.standard_normal(space.dim)
            c = float(rng.uniform(-5.0, 5.0))
            n = space.norm(u)
            worst = max(worst, abs(space.norm(u + c) - n) / max(n, 1e-300))
    return CheckResult("core.quotient-shift-invariance", worst <= 1e-12, f"worst {worst:.3e} (tol 1e-12)")


def check_alpha_homogeneity(seed=0, samples=40) -> CheckResult:
    """ray_projection_alpha(w, s u) = s * ray_projection_alpha(w, u), 1e-8."""
    rng = rng_from(seed, "alpha")
    worst = 0.0
    for p in (1.5, 2.0, 3.0):
        for space in _spaces(p):
            for _ in range(samples):
                w = rng.standard_normal(space.dim)
                if space.norm(w) == 0.0:
                    continue
                u = rng.standard_normal(space.dim)
                s = float(rng.uniform(0.2, 5.0))
                a1 = ray_projection_alpha(w, u, space)
                a2 = ray_projection_alpha(w, s * u, space)
                worst = max(worst, abs(a2 - s * a1) / max(1.0, s * a1))
    return CheckResult("core.alpha-homogeneity", worst <= 1e-8, f"worst {worst:.3e} (tol 1e-8)")


def check_phi_homogeneity(seed=0, samples=40) -> CheckResult:
    """Phi(t u) = t^p Phi(u) for t in {0.5, 2, 10} at eps = 0, 1e-10 relative."""
    rng = rng_from(seed, "phi-homog")
    worst = 0.0
    for inst in _instances():
        for _ in range(samples):
            u = rng.standard_normal(inst.space.dim)
            base = inst.value(u)
            for t in (0.5, 2.0, 10.0):
                expect = t**inst.p * base
                worst = max(worst, abs(inst.value(t * u) - expect) / max(expect, 1e-300))
    return CheckResult("problems.homogeneity", worst <= 1e-10, f"worst {worst:.3e} (tol 1e-10)")


def check_phi_convexity(seed=0, samples=60) -> CheckResult:
    rng = rng_from(seed, "phi-convex")
    worst = 0.0
    for inst in _instances():
        for _ in range(samples):
            u = rng.standard_normal(inst.space.dim)
            v = rng.standard_normal(inst.space.dim)
            lhs = inst.value(0.5 * u + 0.5 * v)
            rhs = 0.5 * inst.value(u) + 0.5 * inst.value(v)
            worst = max(worst, (lhs - rhs) / max(1.0, rhs))
    return CheckResult("problems.convexity", worst <= 1e-12, f"worst excess {worst:.3e} (tol 1e-12)")


def check_euler_identity(seed=0, samples=1000) -> CheckResult:
    """|p Phi(u) - <dPhi(u), u>| / max(1, p Phi) <= 1e-9 at eps = 0."""
    rng = rng_from(seed, "euler")
    worst = 0.0
    for inst in _instances():
        for _ in range(samples):
            u = rng.standard_normal(inst.space.dim)
            worst = max(worst, euler_identity_residual(inst, u))
    return CheckResult("problems.euler-identity", worst <= 1e-9, f"worst {worst:.3e} (tol 1e-9)")


def check_cauchy_schwarz(seed=0, samples=60) -> CheckResult:
    """<dPhi(u), v> <= (p Phi(u))^(1-1/p) (p Phi(v))^(1/p), equality on rays."""
    rng = rng_from(seed, "hcs")
    worst = 0.0
    worst_eq = 0.0
    for inst in _instances():
        p = inst.p
        for _ in range(samples):
            u = rng.standard_normal(inst.space.dim)
            v = rng.standard_normal(inst.space.dim)
            zeta = inst.gradient(u)
            lhs = inst.space.pairing(zeta, v)
            rhs = (p * inst.value(u)) ** (1.0 - 1.0 / p) * (p * inst.value(v)) ** (1.0 / p)
            worst = max(worst, (lhs - rhs) / max(1.0, rhs))
            t = float(rng.uniform(0.2, 3.0))
            lhs_eq = inst.space.pairing(zeta, t * u)
            rhs_eq = (p * inst.value(u)) ** (1.0 - 1.0 / p) * (p * inst.value(t * u)) ** (1.0 / p)
            worst_eq = max(worst_eq, abs(lhs_eq - rhs_eq) / max(1.0, rhs_eq))
    ok = worst <= 1e-9 and worst_eq <= 1e-8
    return CheckResult(
        "problems.homogeneous-cauchy-schwarz", ok, f"excess {worst:.3e} (tol 1e-9), ray gap {worst_eq:.3e} (tol 1e-8)"
    )


def check_gradient_fd(seed=0, samples=4) -> CheckResult:
    """Analytic vs central finite-difference gradients, 1e-5 relative."""
    rng = rng_from(seed, "grad-fd")
    worst = 0.0
    for eps in (0.0, 1e-8):
        for inst in _instances(eps=eps, small=True):
            w = inst.space.pairing_weights()
            for _ in range(samples):
                u = rng.standard_normal(inst.space.dim)
                g = w * inst.gradient(u)
                fd = np.zeros_like(g)
                for i in range(len(u)):
                    e = np.zeros_like(u)
                    e[i] = 1e-6
                    fd[i] = (inst.value(u + e) - inst.value(u - e)) / 2e-6
                scale = float(np.max(np.abs(fd)))
                worst = max(worst, float(np.max(np.abs(g - fd))) / max(scale, 1e-300))
    return CheckResult("problems.gradient-fd", worst <= 1e-5, f"worst {worst:.3e} (tol 1e-5)")


def check_neumann_shift_invariance(seed=0, samples=100) -> CheckResult:
    rng = rng_from(seed, "neum-shift")
    worst = 0.0
    for p in (1.5, 2.0, 3.0):
        inst = NeumannQuotient1D(p, 16)
        for _ in range(samples):
            u = rng.standard_normal(16)
            c = float(rng.uniform(-10.0, 10.0))
            base = inst.value(u)
            worst = max(worst, abs(inst.value(u + c) - base) / max(base, 1e-300))
    return CheckResult("problems.neumann-shift-invariance", worst <= 1e-10, f"worst {worst:.3e} (tol 1e-10)")


def check_solver_uniqueness(seed=0) -> CheckResult:
    """Zero vs warm random starts land on the same minimizer (strict convexity).

    The exact-solve kinds ignore the start, so the smoothed, Steklov and
    fractional instances, which must descend from it, carry the check.
    """
    rng = rng_from(seed, "solver-uniq")
    worst = 0.0
    tol = 1e-10
    descents = (Steklov1D(2.0, 9), PDirichlet1D(3.0, 9, eps=1e-3), FractionalSeminorm1D(1.5, 7))
    not_descended = 0
    for inst in (PDirichlet1D(1.5, 9), PDirichlet1D(3.0, 9), Robin1D(2.0, 9), NeumannQuotient1D(3.0, 9)) + descents:
        xi = inst.space.duality_map(rng.standard_normal(inst.space.dim)).values
        a = minimize_phi_minus_linear(inst, xi, SolverOptions(grad_tol=tol))
        b = minimize_phi_minus_linear(
            inst, xi, SolverOptions(grad_tol=tol, init=rng.standard_normal(inst.space.dim))
        )
        if inst in descents:
            not_descended += (a.path, b.path) != ("descent", "descent")
        gap = inst.space.norm(a.minimizer - b.minimizer) / max(inst.space.norm(a.minimizer), 1e-300)
        worst = max(worst, gap / (10.0 * tol))
    detail = f"worst gap {worst:.3e} x (10 grad_tol), {not_descended} of {len(descents)} descents took the exact path"
    return CheckResult("inner.uniqueness-consistency", worst <= 1.0 and not_descended == 0, detail)


def check_iteration_monotonicity(seed=0) -> CheckResult:
    """Converged runs produce empty monotonicity-violation lists."""
    total = 0
    for inst in (MatrixQuadratic(np.diag([1.0, 4.0])), PDirichlet1D(3.0, 9), Robin1D(1.5, 9)):
        u0 = np.ones(inst.space.dim)
        trace, summary = iterate(inst, u0)
        total += len(check_monotonicity(trace, summary.mu_hat)) + (not summary.converged)
    return CheckResult("iterate.monotonicity", total == 0, f"{total} violations")


PROPERTY_CHECKS = [
    check_duality_identity,
    check_holder,
    check_norm_homogeneity,
    check_quotient_shift_invariance,
    check_alpha_homogeneity,
    check_phi_homogeneity,
    check_phi_convexity,
    check_euler_identity,
    check_cauchy_schwarz,
    check_gradient_fd,
    check_neumann_shift_invariance,
    check_solver_uniqueness,
    check_iteration_monotonicity,
]


def run_properties(seed: int = 0):
    return [fn(seed=seed) for fn in PROPERTY_CHECKS]
