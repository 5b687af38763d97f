import math

import numpy as np
import pytest

import rayflow.spaces
from rayflow.errors import DegenerateInputError, SpaceMismatchError
from rayflow.spaces import (
    SpaceDescriptor,
    SpaceKind,
    _zero_mean_dual,
    mu_from_lambda,
    optimal_shift,
    pow2_scale,
    signed_power,
)


def wlp(dim, p, h=1.0):
    return SpaceDescriptor(SpaceKind.WEIGHTED_LP, dim, p, weight=h)


def quot(dim, p, h=1.0):
    return SpaceDescriptor(SpaceKind.QUOTIENT_LP, dim, p, weight=h)


def sup(dim, p):
    return SpaceDescriptor(SpaceKind.SUP, dim, p)


def trace(dim, p, h=1.0):
    return SpaceDescriptor(SpaceKind.TRACE_BOUNDARY, dim, p, weight=h, boundary=(0, dim - 1))


ALL_SPACES = [wlp(9, 1.5, 0.25), wlp(9, 3.0, 0.25), quot(9, 1.5, 0.3), quot(9, 4.0, 0.3),
              sup(9, 2.0), sup(9, 3.0), trace(9, 1.5, 0.2), trace(9, 2.0, 0.2)]


class TestSpaceDegree:
    def test_dual_relation(self):
        for p in (1.5, 2.0, 3.0, 4.0, 7.3):
            s = wlp(3, p)
            assert s.q == p / (p - 1.0)
            assert 1.0 / s.p + 1.0 / s.q == pytest.approx(1.0, abs=1e-15)

    def test_rejects_bad_p(self):
        for p in (1.0, 0.5, 0.0, -2.0, math.inf, math.nan):
            with pytest.raises(DegenerateInputError, match="homogeneity degree must satisfy p > 1"):
                SpaceDescriptor(SpaceKind.WEIGHTED_LP, 3, p)


class TestNorm:
    def test_weighted_lp(self):
        s = wlp(2, 2.0, h=0.5)
        assert s.norm([1.0, 1.0]) == pytest.approx(1.0, rel=1e-15)

    def test_sup(self):
        assert sup(3, 2.0).norm([1.0, -3.0, 2.0]) == 3.0

    def test_quotient_symmetry(self):
        s = quot(2, 2.0)
        assert s.norm([1.0, -1.0]) == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_trace_sees_boundary_only(self):
        s = trace(4, 2.0)
        for u in ([3.0, 100.0, -50.0, 4.0], [3.0, math.inf, -50.0, 4.0]):
            assert s.norm(u) == pytest.approx(5.0, rel=1e-15)
            assert s.duality_map(u).tolist() == [3.0, 0.0, 0.0, 4.0]

    @pytest.mark.parametrize("boundary", [(), (0, 2.7), (0, 3.0), (0, 4), (-1, 3)])
    def test_trace_refuses_a_boundary_that_is_no_node_index(self, boundary):
        with pytest.raises(DegenerateInputError, match="^boundary: "):
            SpaceDescriptor(SpaceKind.TRACE_BOUNDARY, 4, 3.0, boundary=boundary)

    def test_dimension_mismatch(self):
        with pytest.raises(SpaceMismatchError):
            wlp(3, 2.0).norm([1.0, 2.0])

    def test_homogeneity(self):
        rng = np.random.default_rng(3)
        for s in ALL_SPACES:
            for _ in range(50):
                u = rng.standard_normal(s.dim)
                t = float(rng.uniform(0.05, 20.0))
                assert s.norm(t * u) == pytest.approx(t * s.norm(u), rel=1e-12)

    def test_extreme_scales_do_not_flush(self):
        s = wlp(4, 3.0, h=0.5)
        u = np.array([1.0, -2.0, 0.5, 3.0])
        base = s.norm(u)
        for c in (1e-250, 1e250):
            assert s.norm(c * u) == pytest.approx(c * base, rel=1e-12)

    def test_quotient_shift_invariance(self):
        rng = np.random.default_rng(4)
        s = quot(7, 3.0, h=0.3)
        for _ in range(50):
            u = rng.standard_normal(7)
            c = float(rng.uniform(-8.0, 8.0))
            assert s.norm(u + c) == pytest.approx(s.norm(u), rel=1e-12)


class TestDualNorm:
    def test_euclidean(self):
        assert wlp(2, 2.0).dual_norm([3.0, 4.0]) == pytest.approx(5.0, rel=1e-15)

    def test_sup_total_variation(self):
        assert sup(3, 2.0).dual_norm([0.0, 3.0, 0.0]) == 3.0
        assert sup(3, 2.0).dual_norm([1.0, -2.0, 0.5]) == pytest.approx(3.5, rel=1e-15)

    def test_closed_form_against_brute_force_sup(self):
        # oracle: sup of <xi, u> over ~1e5 random unit vectors never exceeds
        # the closed form and comes within sampling resolution of it
        s = wlp(2, 3.0, h=0.5)
        xi = np.array([4.0, -1.0])
        closed = s.dual_norm(xi)
        assert closed == pytest.approx((0.5 * (4.0**1.5 + 1.0)) ** (2.0 / 3.0), rel=1e-14)
        rng = np.random.default_rng(12345)
        u = rng.standard_normal((100_000, 2))
        norms = (0.5 * np.sum(np.abs(u) ** 3.0, axis=1)) ** (1.0 / 3.0)
        pair = np.abs(0.5 * (u @ xi))
        brute = float(np.max(pair / norms))
        assert brute <= closed * (1.0 + 1e-12)
        assert brute >= closed * (1.0 - 1e-6)


class TestPairing:
    def test_weighted_sum(self):
        assert wlp(2, 2.0).pairing([1.0, 2.0], [3.0, 4.0]) == pytest.approx(11.0)

    def test_zero(self):
        assert wlp(3, 2.0).pairing([0.0, 0.0, 0.0], [1.0, -5.0, 2.0]) == 0.0

    def test_quotient_shift_invariance(self):
        s = quot(5, 3.0, h=0.4)
        rng = np.random.default_rng(5)
        u = rng.standard_normal(5)
        xi = rng.standard_normal(5)
        xi -= np.mean(xi)  # zero weighted mean (uniform weights)
        assert s.pairing(xi, u + 7.5) == pytest.approx(s.pairing(xi, u), abs=1e-12 * max(1, abs(s.pairing(xi, u))))

    @pytest.mark.parametrize("kind", list(SpaceKind))
    def test_weights_built_once_and_read_only(self, kind):
        s = SpaceDescriptor(kind, 4, 3.0, weight=0.25, boundary=(0, 3))
        want_pairing = {SpaceKind.SUP: [1.0] * 4, SpaceKind.TRACE_BOUNDARY: [1.0, 0.25, 0.25, 1.0]}.get(kind, [0.25] * 4)
        want_norm = {SpaceKind.TRACE_BOUNDARY: [1.0, 0.0, 0.0, 1.0]}.get(kind, want_pairing)
        for weights, want in ((s.pairing_weights, want_pairing), (s.norm_weights, want_norm)):
            w = weights()
            assert weights() is w
            assert w.tolist() == want
            with pytest.raises(ValueError, match="read-only"):
                w[0] = 2.0
            with pytest.raises(ValueError, match="read-only"):
                w *= 2.0
            assert w.tolist() == want

    def test_holder(self):
        rng = np.random.default_rng(6)
        for s in ALL_SPACES:
            for _ in range(100):
                u = rng.standard_normal(s.dim)
                xi = rng.standard_normal(s.dim)
                if s.kind is SpaceKind.QUOTIENT_LP:
                    w = s.pairing_weights()
                    xi -= np.sum(w * xi) / np.sum(w)
                if s.kind is SpaceKind.TRACE_BOUNDARY:
                    mask = np.zeros(s.dim)
                    mask[list(s.boundary)] = 1.0
                    xi *= mask
                bound = s.dual_norm(xi) * s.norm(u)
                assert abs(s.pairing(xi, u)) <= bound * (1.0 + 1e-12)


class TestDualityMap:
    def test_identity_at_p2(self):
        s = wlp(2, 2.0)
        np.testing.assert_allclose(s.duality_map([2.0, -1.0]), [2.0, -1.0])

    def test_componentwise_power(self):
        s = wlp(2, 3.0)
        np.testing.assert_allclose(s.duality_map([2.0, -1.0]), [4.0, -1.0])

    def test_sup_point_mass(self):
        s = sup(3, 2.0)
        np.testing.assert_allclose(s.duality_map([1.0, 3.0, -2.0]), [0.0, 3.0, 0.0])

    def test_sup_tie_break_lowest_index(self):
        s = sup(3, 2.0)
        xi = s.duality_map([2.0, -2.0, 1.0])
        np.testing.assert_allclose(xi, [2.0, 0.0, 0.0])

    def test_zero_vector(self):
        for s in ALL_SPACES:
            np.testing.assert_array_equal(s.duality_map(np.zeros(s.dim)), np.zeros(s.dim))

    def test_drift_goes_to_entries_at_zero(self):
        # for p < 2, d xi_i / dc is infinite where t_i = 0: those entries take
        # the whole zero-mean correction and the others keep |t|^(p-2) t
        t = np.array([0.0, 1.0, -0.5, 0.0])
        w = np.full(4, 0.5)
        xi = _zero_mean_dual(t, 1.5, w)
        np.testing.assert_array_equal(xi[1:3], signed_power(t[1:3], 0.5))
        assert xi[0] == xi[3] < 0.0
        assert abs(np.sum(w * xi)) <= 1e-15

    def test_identities_random(self):
        # <xi,u> = ||u||^p = ||xi||_*^q within 1e-12 relative, at magnitudes
        # from 1e-3 to 1e3 and at 1e-70 (where |u|^p underflows for large p
        # and both sides are zero); quotient duals have zero weighted mean; a
        # boundary node listed twice is one node of the trace norm
        rng = np.random.default_rng(7)
        spaces = ALL_SPACES + [quot(9, p, 0.3) for p in (1.05, 1.1, 1.2, 20.0)]
        spaces.append(SpaceDescriptor(SpaceKind.TRACE_BOUNDARY, 5, 3.0, weight=0.2, boundary=(0, 0, 3)))
        for s in spaces:
            p, q = s.p, s.q
            w = s.pairing_weights()
            scales = np.concatenate([10.0 ** rng.uniform(-3.0, 3.0, 200), np.full(20, 1e-70)])
            for scale in scales:
                u = scale * rng.standard_normal(s.dim)
                xi = s.duality_map(u)
                npow = s.norm(u) ** p
                assert abs(s.pairing(xi, u) - npow) <= 1e-12 * npow
                assert abs(s.dual_norm(xi) ** q - npow) <= 1e-12 * npow
                if s.kind is SpaceKind.QUOTIENT_LP:
                    assert abs(np.sum(w * xi)) <= 1e-10 * np.sum(w * np.abs(xi))


class TestMuFromLambda:
    def test_values(self):
        assert mu_from_lambda(9.0, 2.0) == pytest.approx(9.0)
        assert mu_from_lambda(8.0, 3.0) == pytest.approx(math.sqrt(8.0), rel=1e-15)
        for p in (1.5, 2.0, 5.0):
            assert mu_from_lambda(1.0, p) == 1.0

    def test_domain_error(self):
        for lam in (0.0, -1.0, math.nan):
            with pytest.raises(DegenerateInputError):
                mu_from_lambda(lam, 2.0)

    def test_overflow_names_lambda_and_p(self):
        # near p = 1 on a small domain lambda^(1/(p-1)) leaves the double range
        with pytest.raises(DegenerateInputError, match=r"lambda = 2\.8e\+33, p = 1\.1"):
            mu_from_lambda(2.8e33, 1.1)
        # finite results are the plain power, bit for bit
        for lam, p in ((2.8e30, 1.1), (1e300, 2.0), (37.5, 3.0), (1e-300, 1.05)):
            assert mu_from_lambda(lam, p) == lam ** (1.0 / (p - 1.0))


class TestPow2Scale:
    def test_exact_power_of_two(self):
        rng = np.random.default_rng(4)
        for scale in (1e-300, 1.0, 1e300, 1.7e308):
            u = scale * rng.uniform(-1.0, 1.0, 9)
            y, k = pow2_scale(u)
            assert 0.5 <= np.abs(y).max() < 1.0
            assert np.ldexp(y, k).tobytes() == u.tobytes()
        y, k = pow2_scale(np.zeros(3))
        assert k == 0 and not y.any()

    def test_shift_past_2_to_the_1023(self):
        # the power of 2 at or above max|u| is 2^1024 here, past the double range
        s = quot(7, 3.0)
        u = np.linspace(-1.0, 1.0, 7) ** 3 + 0.3
        assert optimal_shift(1e308 * u, s) == pytest.approx(1e308 * optimal_shift(u, s), rel=1e-12)


class TestOptimalShift:
    def test_p2_weighted_mean(self):
        s = quot(4, 2.0, h=0.7)
        rng = np.random.default_rng(8)
        for _ in range(20):
            u = rng.standard_normal(4)
            assert optimal_shift(u, s) == pytest.approx(-np.mean(u), rel=1e-13, abs=1e-14)

    def test_odd_symmetry(self):
        for p in (1.5, 2.0, 3.0, 4.0):
            s = quot(2, p)
            assert optimal_shift(np.array([1.0, -1.0]), s) == pytest.approx(0.0, abs=1e-12)

    def test_p4_two_point(self):
        s = quot(2, 4.0)
        assert optimal_shift(np.array([0.0, 1.0]), s) == pytest.approx(-0.5, rel=1e-12)

    def test_characterization_residual(self):
        rng = np.random.default_rng(9)
        for p in (1.5, 2.5, 3.5):
            s = quot(11, p, h=0.2)
            w = s.pairing_weights()
            for _ in range(40):
                u = rng.standard_normal(11)
                c = optimal_shift(u, s)
                resid = abs(float(np.sum(w * signed_power(u + c, p - 1.0))))
                scale = float(np.sum(w * np.abs(u + c) ** (p - 1.0)))
                assert resid <= 1e-12 * scale

    @staticmethod
    def shapes(n):
        base = np.random.default_rng(n).standard_normal(n)
        return {"centred": base - base.mean(), "off-centre": base + 1e3, "one-sided": np.abs(base)}

    @pytest.mark.parametrize("p", [1.5, 3.0, 8.0, 20.0])
    @pytest.mark.parametrize("n", [11, 511, 8191])
    def test_residual_across_range(self, p, n):
        s = quot(n, p, h=1.0 / (n - 1))
        w = s.pairing_weights()
        for u in self.shapes(n).values():
            c = optimal_shift(u, s)
            assert -np.max(u) <= c <= -np.min(u)
            resid = abs(float(np.sum(w * signed_power(u + c, p - 1.0))))
            scale = float(np.sum(w * np.abs(u + c) ** (p - 1.0)))
            assert resid <= 1e-12 * scale

    @pytest.mark.parametrize("p", [1.5, 3.0, 8.0, 20.0])
    @pytest.mark.parametrize("n", [11, 511, 8191])
    def test_scale_equivariance(self, p, n):
        # the shift is 1-homogeneous in u, at magnitudes where |u|^p alone
        # would under- or overflow
        s = quot(n, p, h=1.0 / (n - 1))
        for u in self.shapes(n).values():
            c = optimal_shift(u, s)
            for scale in (1e-200, 1e-20, 1.0, 1e20, 1e200):
                assert optimal_shift(scale * u, s) == pytest.approx(scale * c, rel=1e-12)

    @pytest.mark.parametrize("p", [8.0, 20.0])
    @pytest.mark.parametrize("n", [11, 31])
    def test_off_centre_stops_at_rounding_floor(self, p, n, monkeypatch):
        # off-centre, |r| <= 1e-13 scale lies below the rounding floor of r;
        # the solve stops there instead of bisecting down to adjacent floats
        evals = []

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def copysign(self, *args):
                evals.append(1)  # one evaluation of r
                return np.copysign(*args)

        monkeypatch.setattr(rayflow.spaces, "np", CountingNumpy())
        s = quot(n, p, h=1.0 / (n - 1))
        rng = np.random.default_rng(n)
        for _ in range(10):
            evals.clear()
            optimal_shift(rng.standard_normal(n) + 1e3, s)
            assert len(evals) <= 16

    def test_wrong_kind(self):
        with pytest.raises(SpaceMismatchError):
            optimal_shift([1.0, 2.0], wlp(2, 2.0))

