import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import hessian_matrix
from rayflow.errors import DegenerateInputError
from rayflow.inner import (
    _box_kkt,
    _Newton,
    descend,
    minimize_movement,
    minimize_phi_minus_linear,
)
from rayflow.iterate import rough_mu
from rayflow.problems import (
    FractionalSeminorm1D,
    MatrixQuadratic,
    NeumannQuotient1D,
    PDirichlet1D,
    PDirichlet2D,
    ProblemInstance,
    Robin1D,
    Steklov1D,
    SupDirichlet1D,
)
from rayflow.spaces import SpaceDescriptor, SpaceKind, signed_power


class ScalarPower(ProblemInstance):
    """Phi(v) = |v|^p / p on the 1-d weighted-Lp space with h = 1."""

    kind = "scalar_power"

    def __init__(self, p):
        super().__init__(SpaceDescriptor(SpaceKind.WEIGHTED_LP, 1, p, weight=1.0))

    def value(self, u):
        u = self.space.check_dim(u)
        return float(np.abs(u[0]) ** self.p / self.p)

    def _gradient(self, u):
        return signed_power(u, self.p - 1.0)


class TestDescendOnSphere:
    """descend with the sphere retraction on the quotient of a diagonal quadratic."""

    D = np.array([3.0, 0.7, 5.0, 2.0, 1.3])

    def run(self, x0, tol, max_iters=500):
        d = self.D
        points = []

        def value(x):
            points.append(x)
            return float(x @ (d * x)) / float(x @ x)

        def grad(x):
            points.append(x)
            return d * x - value(x) * x

        def merit(g):
            return float(np.linalg.norm(g))

        x, f, resid, iters, ok = descend(
            x0 / np.linalg.norm(x0), value, grad, merit, tol, max_iters, np.ones(len(d)),
            project=lambda x: x / np.linalg.norm(x),
        )
        return points, x, f, resid, iters, ok

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_iterates_stay_on_sphere(self, seed):
        x0 = np.random.default_rng(seed).standard_normal(len(self.D))
        points, x, *_ = self.run(3.0 * x0, 1e-10)
        assert len(points) > 10
        for y in points + [x]:
            assert abs(np.linalg.norm(y) - 1.0) <= 1e-14

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_reaches_least_eigenvalue_within_tol(self, seed):
        x0 = np.random.default_rng(seed).standard_normal(len(self.D))
        tol = 1e-10
        _, x, f, resid, iters, ok = self.run(x0, tol)
        assert ok and 0 < iters < 500
        assert resid <= tol
        assert f == pytest.approx(self.D.min(), rel=1e-14)
        assert abs(x[np.argmin(self.D)]) == pytest.approx(1.0, abs=1e-9)

    def test_iteration_cap_reports_unconverged(self):
        x0 = np.random.default_rng(0).standard_normal(len(self.D))
        _, _, _, resid, iters, ok = self.run(x0, 1e-14, max_iters=2)
        assert iters == 2 and not ok and resid > 1e-14


def test_unconverged_descend_returns_lowest_merit_point():
    # on 0.5 (x^2 + 100 y^2) from (1, 1e-3) the first step along -grad
    # passes the Armijo test but lands at a gradient ten times larger
    d = np.array([1.0, 100.0])
    x0 = np.array([1.0, 1e-3])
    x, f, resid, iters, ok = descend(
        x0, lambda x: 0.5 * float(x @ (d * x)), lambda x: d * x, lambda g: float(np.linalg.norm(g)), 1e-12, 1, np.ones(2)
    )
    assert iters == 1 and not ok
    np.testing.assert_array_equal(x, x0)
    assert f == 0.5 * float(x0 @ (d * x0)) and resid == float(np.linalg.norm(d * x0))


@pytest.mark.parametrize(
    "newton", [lambda x, r: r.copy(), lambda x, r: np.array([r[1], -r[0], 0.0])], ids=["ascent", "orthogonal"]
)
def test_non_descent_direction_goes_to_the_endgame(newton):
    # a direction with slope >= 0 skips the Armijo search, and the endgame
    # backtracks on the merit along it and then along the raw residual
    d = np.array([1.0, 4.0, 9.0])
    x, f, resid, iters, ok = descend(
        np.ones(3), lambda x: 0.5 * float(x @ (d * x)), lambda x: d * x, lambda g: float(np.abs(g).max()), 1e-10, 500, np.ones(3), newton=newton
    )
    assert ok and resid <= 1e-10 and f <= 1e-20


class TestPhiMinusLinear:
    def test_matrix_closed_form(self):
        inst = MatrixQuadratic(np.diag([1.0, 4.0]))
        rep = minimize_phi_minus_linear(inst, np.array([1.0, 4.0]), 1e-12)
        assert rep.converged
        np.testing.assert_allclose(rep.minimizer, [1.0, 1.0], atol=1e-10)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("c", [2.0, -0.7])
    def test_scalar_power(self, p, c):
        inst = ScalarPower(p)
        rep = minimize_phi_minus_linear(inst, np.array([c]), 1e-12)
        q = inst.q
        expect = np.sign(c) * abs(c) ** (q - 1.0)
        assert rep.converged
        assert rep.minimizer[0] == pytest.approx(expect, rel=1e-9)

    def test_pdirichlet_vs_direct_solve(self):
        # p = 2: the optimality system is tridiagonal; Gaussian elimination
        # (numpy.linalg.solve) is the oracle
        inst = PDirichlet1D(2.0, 3)
        h = inst.h
        T = (2.0 * np.eye(3) - np.eye(3, k=1) - np.eye(3, k=-1)) / h**2
        rng = np.random.default_rng(0)
        for _ in range(5):
            xi = rng.standard_normal(3)
            rep = minimize_phi_minus_linear(inst, xi, 1e-12)
            expect = np.linalg.solve(T, xi)
            assert rep.converged
            np.testing.assert_allclose(rep.minimizer, expect, rtol=1e-8, atol=1e-12)

    def test_zero_dual_gives_zero(self):
        inst = PDirichlet1D(3.0, 4)
        rep = minimize_phi_minus_linear(inst, np.zeros(4))
        assert rep.converged
        np.testing.assert_array_equal(rep.minimizer, 0.0)

    def test_report_contract(self):
        inst = Robin1D(3.0, 7, beta=0.4)
        xi = inst.space.duality_map(np.ones(7))
        tol = 1e-10
        rep = minimize_phi_minus_linear(inst, xi, tol)
        assert rep.converged
        assert rep.grad_dual_norm <= tol * (1.0 + inst.space.dual_norm(xi))

    def test_uniqueness_across_starts(self):
        # the exact-solve kinds ignore the start; the Steklov, 2D and
        # fractional instances descend from it and carry the check
        rng = np.random.default_rng(1)
        tol = 1e-11
        descents = (Steklov1D(2.0, 7), PDirichlet2D(3.0, 3), FractionalSeminorm1D(1.5, 7))
        exact = (PDirichlet1D(1.5, 7), PDirichlet1D(3.0, 7), Robin1D(2.0, 7), NeumannQuotient1D(3.0, 7))
        for inst in exact + descents:
            xi = inst.space.duality_map(rng.standard_normal(inst.space.dim))
            a = minimize_phi_minus_linear(inst, xi, tol)
            b = minimize_phi_minus_linear(inst, xi, tol, init=rng.standard_normal(inst.space.dim))
            assert a.converged and b.converged
            if inst in descents:
                assert a.path == b.path == "descent"
            gap = inst.space.norm(a.minimizer - b.minimizer)
            assert gap <= 10 * tol * inst.space.norm(a.minimizer)

    def test_objective_not_above_warm_start(self):
        inst = PDirichlet1D(3.0, 9)
        rng = np.random.default_rng(2)
        xi = inst.space.duality_map(rng.standard_normal(9))
        warm = rng.standard_normal(9)
        rep = minimize_phi_minus_linear(inst, xi, init=warm)
        start_obj = inst.value(warm) - inst.space.pairing(xi, warm)
        objective = inst.value(rep.minimizer) - inst.space.pairing(xi, rep.minimizer)
        assert objective <= start_obj + 1e-12 * max(1.0, abs(start_obj))


EXACT_KINDS = {
    "pdirichlet1d": PDirichlet1D,
    "supdirichlet1d": SupDirichlet1D,
    "neumann1d": NeumannQuotient1D,
    "robin1d": lambda p, n: Robin1D(p, n, beta=0.4),
}


class TestExactGradientSolve:
    """The closed-form flux solve of the 1D kinds against a direct descent."""

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("kind", list(EXACT_KINDS))
    def test_exact_path_matches_descend(self, kind, p):
        n, tol = 11, 1e-11
        inst = EXACT_KINDS[kind](p, n)
        space = inst.space
        xi = space.duality_map(np.random.default_rng(7).standard_normal(n))
        scale = space.dual_norm(xi)
        rep = minimize_phi_minus_linear(inst, xi, tol)
        assert rep.path == "exact" and rep.converged
        assert space.dual_norm(inst.gradient(rep.minimizer) - xi) <= tol * scale

        v, _, _, _, ok = descend(
            np.zeros(n),
            lambda v: inst.value(v) - space.pairing(xi, v),
            lambda v: inst.gradient(v) - xi,
            space.dual_norm,
            tol * scale,
            50_000,
            space.pairing_weights(),
        )
        assert ok
        # the quotient norm measures the gap modulo constants
        assert space.norm(v - rep.minimizer) <= 1e-8 * space.norm(v)

    @pytest.mark.parametrize(
        "inst",
        [Steklov1D(2.0, 7), PDirichlet2D(2.0, 3), FractionalSeminorm1D(1.5, 7)],
        ids=["steklov1d", "pdirichlet2d", "fractional1d"],
    )
    def test_uncovered_kinds_descend(self, inst):
        xi = inst.space.duality_map(np.ones(inst.space.dim))
        assert inst.solve_gradient(xi) is None
        rep = minimize_phi_minus_linear(inst, xi, 1e-10)
        assert rep.path == "descent" and rep.converged and rep.iters > 0


def _tube(kind, n, rng):
    """(g, rho) of a tube that the taut string touches on both sides, only
    from below (a concave cap) or only from above (the cap reflected)."""
    if kind == "both":
        return 2.0 * rng.standard_normal(n), 0.3
    t = np.arange(1, n + 1) / (n + 1)
    cap = 4.0 * t * (1.0 - t) + 0.05 * rng.standard_normal(n) + 1.0
    return (cap if kind == "below" else -cap), 0.4


class TestExactBoxSolve:
    """The taut string against the box KKT conditions of every exponent."""

    EXPONENTS = (1.2, 1.5, 3.0, 8.0, 20.0)

    @pytest.mark.parametrize("kind", ["both", "below", "above"])
    @pytest.mark.parametrize("n", [1, 2, 15, 255])
    def test_one_minimizer_for_every_exponent(self, n, kind):
        g, rho = _tube(kind, n, np.random.default_rng(n))
        lo, hi = g - rho, g + rho
        ref = SupDirichlet1D(3.0, n).solve_box(lo, hi)
        assert np.all((lo <= ref) & (ref <= hi))
        if kind != "both":
            touched = (ref >= hi) if kind == "above" else (ref <= lo)
            untouched = (ref <= lo) if kind == "above" else (ref >= hi)
            assert touched.any() and not untouched.any()
        for p in self.EXPONENTS:
            inst = SupDirichlet1D(p, n)
            v = inst.solve_box(lo, hi)
            np.testing.assert_array_equal(v, ref)
            viol, mass = _box_kkt(v, inst.gradient(v), lo, hi)
            assert mass > 0.0 and viol <= 1e-12 * mass, (p, viol / mass)

    @pytest.mark.parametrize("n", [1, 2, 15, 255])
    def test_no_feasible_perturbation_lowers_phi(self, n):
        rng = np.random.default_rng(10 + n)
        g, rho = _tube("both", n, rng)
        lo, hi = g - rho, g + rho
        for p in self.EXPONENTS:
            inst = SupDirichlet1D(p, n)
            v = inst.solve_box(lo, hi)
            f = inst.value(v)
            for size in (1e-2, 1e-5):
                for _ in range(50):
                    cand = np.clip(v + size * rho * rng.standard_normal(n), lo, hi)
                    assert inst.value(cand) >= f * (1.0 - 1e-14)

    def test_sup_movement_reports_exact_path(self):
        inst = SupDirichlet1D(3.0, 15)
        g = np.random.default_rng(4).standard_normal(15)
        rep = minimize_movement(inst, g, 0.01, 1e-11)
        assert rep.path == "exact" and rep.converged and rep.iters > 0

    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 8.0, 20.0])
    def test_sup_movement_reports_slope_at_minimizer(self, p):
        # from the gradient of the last box check, scaled back to the anchor
        inst = SupDirichlet1D(p, 15)
        g = 1e3 * np.random.default_rng(4).standard_normal(15)
        rep = minimize_movement(inst, g, 0.01, 1e-11)
        assert rep.converged
        assert rep.slope == pytest.approx(inst.space.dual_norm(inst.gradient(rep.minimizer)), rel=1e-13)

    @pytest.mark.parametrize("off", [None, 1e-3, 1e3])
    def test_sup_movement_iters_count_every_box_solve(self, monkeypatch, off):
        # perfbench sums a sup step's iters as inner.box_solves: every
        # solve_box call counts, the bracketing ones included
        inst = SupDirichlet1D(3.0, 15)
        g = np.random.default_rng(4).standard_normal(15)
        carry = {}
        minimize_movement(inst, g, 0.01, 1e-11, carry)
        if off is None:
            carry.clear()  # the first step's radius guess
        else:
            carry["sup_rho"] *= off  # a carried radius far from the root
        calls = []
        solve_box = inst.solve_box
        monkeypatch.setattr(inst, "solve_box", lambda lo, hi: calls.append(lo) or solve_box(lo, hi))
        rep = minimize_movement(inst, g, 0.01, 1e-11, carry)
        assert rep.converged and rep.iters == len(calls) > 2


class TestMovement:
    def test_scalar_quadratic_closed_form(self):
        # Phi = sigma v^2 / 2: step gives g / (1 + sigma tau)
        for sigma, tau in ((1.0, 0.1), (4.0, 0.05)):
            inst = MatrixQuadratic(np.array([[sigma]]))
            rep = minimize_movement(inst, np.array([1.0]), tau, 1e-13)
            assert rep.converged
            assert rep.minimizer[0] == pytest.approx(1.0 / (1.0 + sigma * tau), rel=1e-10)

    def test_diagonal_closed_form(self):
        inst = MatrixQuadratic(np.diag([1.0, 4.0]))
        rep = minimize_movement(inst, np.array([1.0, 1.0]), 0.1, 1e-13)
        np.testing.assert_allclose(rep.minimizer, [1 / 1.1, 1 / 1.4], rtol=1e-10)

    def test_large_tau_approaches_global_minimum(self):
        inst = MatrixQuadratic(np.diag([1.0, 4.0]))
        rep = minimize_movement(inst, np.array([1.0, 1.0]), 1e6, 1e-12)
        assert np.max(np.abs(rep.minimizer)) <= 1e-5
        assert inst.value(rep.minimizer) <= 1e-10

    def test_zero_anchor_stays_zero(self):
        inst = PDirichlet1D(2.0, 5)
        rep = minimize_movement(inst, np.zeros(5), 0.1)
        assert rep.converged
        np.testing.assert_array_equal(rep.minimizer, 0.0)

    @pytest.mark.parametrize("anchor", ["sine", "noisy"])
    @pytest.mark.parametrize("p", [1.5, 8.0, 20.0])
    def test_anchor_scale_equivariance(self, p, anchor):
        # the step is p-homogeneous in (v, g); the anchor's norm must not
        # under- or overflow on the way to the normalized solve
        inst = PDirichlet1D(p, 15)
        g = np.sin(np.pi * np.arange(1, 16) / 16)
        if anchor == "noisy":
            g += 0.3 * np.random.default_rng(6).standard_normal(15)
        ref = minimize_movement(inst, g, 0.01, 1e-13)
        for scale in (1e-60, 1e60):
            rep = minimize_movement(inst, scale * g, 0.01, 1e-13)
            assert rep.converged
            gap = np.max(np.abs(rep.minimizer / scale - ref.minimizer))
            assert gap <= 1e-12 * np.max(np.abs(ref.minimizer)), (scale, gap)

    def test_far_trial_points_raise_no_warning(self):
        # at p = 20 the first line-search trial overflows |du|^p; the search
        # rejects it as non-finite, and that is no cause for a RuntimeWarning
        inst = PDirichlet1D(20.0, 15)
        tau = 0.01 / rough_mu(inst, np.ones(15))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = minimize_movement(inst, np.ones(15), tau)
        assert rep.converged

    def test_rejects_bad_tau(self):
        inst = PDirichlet1D(2.0, 5)
        with pytest.raises(DegenerateInputError):
            minimize_movement(inst, np.ones(5), 0.0)

    @pytest.mark.parametrize("tau", [1e300, 1e-200])
    def test_rejects_tau_whose_power_leaves_the_doubles(self, tau):
        # the penalty divides by tau^(p-1): 1e600 or 1e-400 at p = 3
        with pytest.raises(DegenerateInputError, match=r"^tau: tau\^\(p-1\) must be a normal double, got tau = "):
            minimize_movement(PDirichlet1D(3.0, 5), np.ones(5), tau)

    def test_movement_objective_no_worse_than_anchor(self):
        # unconditional energy descent: the step value never exceeds Phi(g)
        rng = np.random.default_rng(3)
        for inst in (PDirichlet1D(1.5, 9), NeumannQuotient1D(3.0, 9), Steklov1D(2.0, 9), SupDirichlet1D(2.0, 9)):
            g = rng.standard_normal(inst.space.dim)
            rep = minimize_movement(inst, g, 0.05)
            assert rep.converged
            v, p = rep.minimizer, inst.p
            objective = inst.value(v) + inst.space.norm(v - g) ** p / (p * 0.05 ** (p - 1.0))
            assert objective <= inst.value(g) * (1.0 + 1e-9) + 1e-12

    @pytest.mark.parametrize(
        "inst",
        [
            NeumannQuotient1D(3.0, 9),
            PDirichlet1D(1.5, 9),
            Robin1D(1.2, 9),
            Steklov1D(1.5, 9),
            FractionalSeminorm1D(1.5, 9),
        ],
        ids=["neumann-p3", "pdirichlet-p1.5", "robin-p1.2", "steklov-p1.5", "fractional-p1.5"],
    )
    def test_movement_solves_exact_inclusion(self, inst):
        # the returned step satisfies grad Phi(v) + J_p((v-g)/tau) = 0 with
        # the exact p-th power penalty; on quotient spaces the plain movement
        # kernel is the duality map (zero weighted mean), on trace spaces J_p
        # acts on the boundary only
        rng = np.random.default_rng(4)
        g = rng.standard_normal(9)
        tau = 0.05
        rep = minimize_movement(inst, g, tau, 1e-11)
        v = rep.minimizer
        m = (v - g) / tau
        space = inst.space
        if space.kind is SpaceKind.QUOTIENT_LP:
            kernel = signed_power(m, inst.p - 1.0)
            w = space.pairing_weights()
            assert abs(np.sum(w * kernel)) <= 1e-8 * np.sum(w * np.abs(kernel))
        else:
            kernel = space.duality_map(m)
        resid = inst.gradient(v) + kernel
        assert space.dual_norm(resid) <= 1e-8 * max(1.0, space.dual_norm(inst.gradient(v)))

    def test_sup_movement_beats_local_grid_search(self):
        # brute-force competitor: no nearby candidate does better
        inst = SupDirichlet1D(2.0, 4)
        g = np.array([0.4, 1.0, 0.9, 0.2])
        tau = 0.1
        rep = minimize_movement(inst, g, tau, 1e-11)
        v = rep.minimizer
        pen = lambda v_: inst.space.norm(v_ - g) ** 2 / (2 * tau)
        best = inst.value(v) + pen(v)
        rng = np.random.default_rng(5)
        for _ in range(3000):
            cand = v + 1e-3 * rng.standard_normal(4)
            assert inst.value(cand) + pen(cand) >= best - 1e-10


HESSIAN_KINDS = {
    "pdirichlet1d": lambda p: PDirichlet1D(p, 6),
    "supdirichlet1d": lambda p: SupDirichlet1D(p, 6),
    "robin1d": lambda p: Robin1D(p, 6, beta=0.4),
    "neumann1d": lambda p: NeumannQuotient1D(p, 6),
    "steklov1d": lambda p: Steklov1D(p, 6),
    "fractional1d": lambda p: FractionalSeminorm1D(p, 6),
    "matrix": lambda p: MatrixQuadratic(np.array([[2.0, -1.0, 0.5], [-1.0, 3.0, 0.0], [0.5, 0.0, 1.0]])),
}


class TestHessian:
    """The Hessian hooks against central differences of the Euclidean gradient."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(sorted(HESSIAN_KINDS)),
        p=st.floats(1.05, 20.0),
        grid=st.lists(st.integers(-16, 16), min_size=6, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_gradient_differences(self, kind, p, grid, seed):
        inst = HESSIAN_KINDS[kind](p)
        n = inst.space.dim
        # entries on a grid of 1/8: every argument of the curvature weights
        # (a difference, an entry, or an entry against the zero extension)
        # is 0 or at least 1/8, far above the p < 2 floor
        u = np.array(grid[:n], dtype=float) / 8.0
        # the kernel |t|^(p-2) t is only C^(1, p-2) at t = 0 for
        # p < 3 (its curvature is unbounded below p = 2), so central
        # differences there do not reach the Hessian at a usable step; where
        # every argument is 0 the Hessian vanishes for p > 2, leaving only
        # the O(step^(p-2)) difference error to compare
        zero_arg = len(set(u.tolist() + [0.0])) < n + 1
        assume(not zero_arg or p >= 3.0)
        w = inst.space.pairing_weights()
        h = hessian_matrix(inst.hessian(u))
        assume(not zero_arg or h.any())
        assert np.all(np.isfinite(h))
        np.testing.assert_array_equal(h, h.T)
        delta = np.random.default_rng(seed).standard_normal(n)
        step = 1e-7
        fd = (w * inst.gradient(u + step * delta) - w * inst.gradient(u - step * delta)) / (2.0 * step)
        scale = np.abs(h) @ np.abs(delta)
        assert np.all(np.abs(h @ delta - fd) <= 1e-5 * scale.max()), (h @ delta, fd)

    def test_no_hook_for_2d(self):
        assert PDirichlet2D(3.0, 3).hessian(np.ones(9)) is None

    @pytest.mark.parametrize("p", [1.2, 1.5])
    def test_floor_keeps_weights_finite(self, p):
        # a zero difference (and the zero diagonal of the fractional kernel)
        # would give (p - 1) |0|^(p - 2) = inf without the floor
        u = np.array([0.0, 0.5, 0.5, 1.0, 0.0, -0.5])
        for kind in ("pdirichlet1d", "steklov1d", "fractional1d"):
            assert np.all(np.isfinite(hessian_matrix(HESSIAN_KINDS[kind](p).hessian(u)))), kind


def _no_hook(inst):
    """The same instance without its Hessian hook (descend then runs L-BFGS)."""
    inst.hessian = lambda u: None
    return inst


NEWTON_CASES = {
    "neumann1d-p3": lambda: NeumannQuotient1D(3.0, 15),
    "steklov1d-p1.5": lambda: Steklov1D(1.5, 15),
    "fractional1d-p3": lambda: FractionalSeminorm1D(3.0, 9),
}


class TestNewtonSolves:
    """The Newton direction in descend against hook-less L-BFGS descents."""

    TOL = 1e-11

    @staticmethod
    def _gap(inst, a, b):
        # the quotient norm measures the gap modulo constants
        return inst.space.norm(a - b) / inst.space.norm(b)

    @pytest.mark.parametrize("case", list(NEWTON_CASES))
    def test_phi_minus_linear_matches_lbfgs(self, case):
        # descend directly: the Neumann solve would otherwise take the
        # exact flux path
        inst = NEWTON_CASES[case]()
        space = inst.space
        xi = space.duality_map(np.random.default_rng(11).standard_normal(space.dim))
        args = (
            np.zeros(space.dim),
            lambda v: inst.value(v) - space.pairing(xi, v),
            lambda v: inst.gradient(v) - xi,
            space.dual_norm,
            self.TOL * space.dual_norm(xi),
            50_000,
            space.pairing_weights(),
        )
        newton = _Newton(inst)
        v, _, _, iters, ok = descend(*args, newton=newton)
        ref, _, _, ref_iters, ref_ok = descend(*args)
        assert ok and ref_ok and newton.steps > 0
        assert iters < ref_iters
        assert self._gap(inst, v, ref) <= 1e-8

    @pytest.mark.parametrize("case", list(NEWTON_CASES))
    def test_movement_matches_lbfgs(self, case):
        inst = NEWTON_CASES[case]()
        g = np.random.default_rng(13).standard_normal(inst.space.dim)
        rep = minimize_movement(inst, g, 0.05, self.TOL)
        ref = minimize_movement(_no_hook(NEWTON_CASES[case]()), g, 0.05, self.TOL)
        assert rep.converged and ref.converged
        assert rep.newton_steps > 0 and ref.newton_steps == 0
        assert rep.iters < ref.iters
        assert self._gap(inst, rep.minimizer, ref.minimizer) <= 1e-8

    def test_far_start_below_p2_does_not_flip(self):
        # a full Newton step from afar maps the homogeneous part x to -x at
        # p = 1.5; without the secant shortening the iterates flip sign step
        # after step until the stall guard ends the solve unconverged
        inst = FractionalSeminorm1D(1.5, 7)
        rng = np.random.default_rng(1)
        xi = inst.space.duality_map(rng.standard_normal(7))
        rep = minimize_phi_minus_linear(inst, xi, 1e-11, init=50.0 * rng.standard_normal(7))
        assert rep.converged and rep.iters <= 50

    @pytest.mark.parametrize(
        "inst, solve",
        [
            (Steklov1D(1.5, 9), "phi"),
            (FractionalSeminorm1D(3.0, 7), "phi"),
            (NeumannQuotient1D(3.0, 9), "movement"),
            (Steklov1D(1.5, 9), "movement"),
            (PDirichlet2D(3.0, 3), "phi"),
            (PDirichlet2D(3.0, 3), "movement"),
        ],
        ids=["steklov-phi", "fractional-phi", "neumann-move", "steklov-move", "2d-phi", "2d-move"],
    )
    def test_reports_newton_steps(self, inst, solve):
        x = np.random.default_rng(5).standard_normal(inst.space.dim)
        if solve == "phi":
            rep = minimize_phi_minus_linear(inst, inst.space.duality_map(x), 1e-10)
        else:
            rep = minimize_movement(inst, x, 0.05, 1e-10)
        assert rep.converged and rep.path == "descent" and rep.iters > 0
        if inst.kind == "pdirichlet2d":
            assert rep.newton_steps == 0
        else:
            assert 0 < rep.newton_steps <= rep.iters


class TestMovementWarmStart:
    """``minimize_movement(..., init=)``: where the smooth solve starts, not what it finds."""

    TOL = 1e-11

    @pytest.mark.parametrize("case", list(NEWTON_CASES))
    def test_warm_start_reaches_anchor_start_minimizer(self, case):
        inst = NEWTON_CASES[case]()
        rng = np.random.default_rng(17)
        g = rng.standard_normal(inst.space.dim)
        init = g / 1.1 + 0.1 * rng.standard_normal(inst.space.dim)
        ref = minimize_movement(inst, g, 0.05, self.TOL)
        rep = minimize_movement(inst, g, 0.05, self.TOL, init=init)
        assert rep.converged and ref.converged
        gap = inst.space.norm(rep.minimizer - ref.minimizer) / inst.space.norm(ref.minimizer)
        assert gap <= 1e3 * self.TOL

    def test_ground_ray_prediction_accepted_without_iterations(self):
        # on the ground ray the step divides the state by exactly 1 + tau mu
        inst = MatrixQuadratic(np.diag([2.0, 5.0, 9.0]))
        g = np.array([1.0, 0.0, 0.0])
        tau = 0.005
        predicted = g / (1.0 + 2.0 * tau)
        rep = minimize_movement(inst, g, tau, init=predicted)
        assert rep.converged and rep.iters == 0
        np.testing.assert_allclose(rep.minimizer, predicted, rtol=1e-15, atol=0.0)
        assert minimize_movement(inst, g, tau).iters > 0

    def test_sup_step_ignores_init(self):
        inst = SupDirichlet1D(3.0, 15)
        g = np.random.default_rng(19).standard_normal(15)
        carry, carry_init = {}, {}
        ref = minimize_movement(inst, g, 0.01, 1e-11, carry)
        rep = minimize_movement(inst, g, 0.01, 1e-11, carry_init, init=0.5 * g)
        fields, ref_fields = vars(rep).copy(), vars(ref).copy()
        assert fields.pop("minimizer").tobytes() == ref_fields.pop("minimizer").tobytes()
        assert fields == ref_fields and carry_init == carry
