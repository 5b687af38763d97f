import math
import time

import numpy as np
import pytest

import rayflow.oracles
import rayflow.spaces
from helpers import hilbert_closed_form
from rayflow.errors import DegenerateInputError
from rayflow.iterate import iterate
from rayflow.oracles import (
    _round_robin,
    _spg,
    _unit,
    direct_rayleigh_min,
    eigen_residual,
    oracle_lambda,
    symmetric_eigs,
)
from rayflow.problems import (
    MatrixQuadratic,
    NeumannQuotient1D,
    PDirichlet1D,
    Robin1D,
    SupDirichlet1D,
)


class TestSymmetricEigs:
    def test_diagonal(self):
        w, v = symmetric_eigs(np.diag([4.0, 1.0]))
        np.testing.assert_allclose(w, [1.0, 4.0])

    def test_two_by_two(self):
        w, v = symmetric_eigs(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(w, [1.0, 3.0], rtol=1e-12)
        np.testing.assert_allclose(np.abs(v[:, 0]), [1.0, 1.0] / np.sqrt(2.0), rtol=1e-9)
        np.testing.assert_allclose(np.abs(v[:, 1]), [1.0, 1.0] / np.sqrt(2.0), rtol=1e-9)

    def test_dirichlet_tridiagonal_spectrum(self):
        # known spectrum of the n = 3, h = 1/4 second-difference matrix:
        # lambda_k = (2/h^2)(1 - cos(k pi / 4))
        n, h = 3, 0.25
        T = (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / h**2
        w, _ = symmetric_eigs(T)
        expect = sorted((2.0 / h**2) * (1.0 - math.cos(k * math.pi / 4.0)) for k in (1, 2, 3))
        np.testing.assert_allclose(w, expect, rtol=1e-9)
        assert w[0] == pytest.approx(9.37258, abs=1e-4)

    def test_random_spd_residuals(self):
        rng = np.random.default_rng(0)
        for n in (5, 12, 30):
            m = rng.standard_normal((n, n))
            a = m @ m.T + n * np.eye(n)
            w, v = symmetric_eigs(a)
            scale = np.linalg.norm(a)
            for i in range(n):
                assert np.linalg.norm(a @ v[:, i] - w[i] * v[:, i]) <= 1e-9 * scale
            assert np.all(np.diff(w) >= -1e-12 * scale)
            np.testing.assert_allclose(np.sort(w), np.linalg.eigvalsh(a), rtol=1e-10)

    def test_dense_spd_dim32(self):
        # B'B/32 + I at this seed: the norm difference ||A||_F^2 - ||diag A||^2
        # cancels to ~1e-8 ||A||, so an off-diagonal norm computed that way
        # never meets the 1e-12 stop rule and the sweep budget runs out
        b = np.random.default_rng(10).standard_normal((32, 32))
        a = b.T @ b / 32 + np.eye(32)
        a = 0.5 * (a + a.T)
        w, v = symmetric_eigs(a)
        scale = np.linalg.norm(a)
        for i in range(32):
            assert np.linalg.norm(a @ v[:, i] - w[i] * v[:, i]) <= 1e-12 * scale
        np.testing.assert_allclose(w, np.linalg.eigvalsh(a), rtol=1e-10)

    def test_unconverged_sweeps_raise(self, monkeypatch):
        monkeypatch.setattr(rayflow.oracles, "JACOBI_MAX_SWEEPS", 2)
        b = np.random.default_rng(10).standard_normal((32, 32))
        with pytest.raises(DegenerateInputError, match="Jacobi sweeps"):
            symmetric_eigs(b.T @ b / 32 + np.eye(32))

    @pytest.mark.parametrize("n", [2, 3, 32, 33])
    def test_round_robin_rotates_each_pair_once(self, n):
        rounds = _round_robin(n)
        assert len(rounds) == n - 1 + n % 2
        pairs = []
        for p, q in rounds:
            assert len(np.unique(np.concatenate((p, q)))) == 2 * len(p)  # disjoint
            pairs += list(zip(p.tolist(), q.tolist()))
        assert sorted(pairs) == [(p, q) for p in range(n) for q in range(p + 1, n)]

    @pytest.mark.parametrize("n", [5, 33])
    def test_odd_dims(self, n):
        b = np.random.default_rng(n).standard_normal((n, n))
        a = b.T @ b / n + np.eye(n)
        w, v = symmetric_eigs(a)
        scale = np.linalg.norm(a)
        np.testing.assert_allclose(w, np.linalg.eigvalsh(a), rtol=1e-10)
        for i in range(n):
            assert np.linalg.norm(a @ v[:, i] - w[i] * v[:, i]) <= 1e-12 * scale

    def test_block_diagonal_stays_block_diagonal(self):
        # the skipped pairs across the blocks are never touched, and the
        # rotations inside a block combine zeros only outside it
        rng = np.random.default_rng(4)
        a = np.zeros((11, 11))
        for lo, hi in ((0, 4), (4, 11)):
            b = rng.standard_normal((hi - lo, hi - lo))
            a[lo:hi, lo:hi] = b.T @ b + np.eye(hi - lo)
        w, v = symmetric_eigs(a)
        np.testing.assert_allclose(w, np.linalg.eigvalsh(a), rtol=1e-10)
        for i in range(11):
            assert np.all(v[:4, i] == 0.0) or np.all(v[4:, i] == 0.0)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_dense_spd_dim32_within_8_sweeps(self, seed, monkeypatch):
        # cyclic and round-robin orders both take 7-8 sweeps here; an order
        # that leaves pairs out of a sweep needs more
        monkeypatch.setattr(rayflow.oracles, "JACOBI_MAX_SWEEPS", 8)
        b = np.random.default_rng(seed).standard_normal((32, 32))
        a = b.T @ b / 32 + np.eye(32)
        w, _ = symmetric_eigs(a)
        np.testing.assert_allclose(w, np.linalg.eigvalsh(a), rtol=1e-10)

    def test_dim128_within_1_5s(self):
        # a Python loop over single rotations takes about 2.2 s here
        b = np.random.default_rng(128).standard_normal((128, 128))
        a = b.T @ b / 128 + np.eye(128)
        start = time.perf_counter()
        symmetric_eigs(a)
        assert time.perf_counter() - start < 1.5

    def test_rejects_asymmetric(self):
        with pytest.raises(DegenerateInputError):
            symmetric_eigs(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_large(self):
        with pytest.raises(DegenerateInputError):
            symmetric_eigs(np.eye(513))


class TestHilbertClosedForm:
    def test_iteration_coordinates(self):
        np.testing.assert_allclose(hilbert_closed_form([1.0, 2.0], [1.0, 1.0], k=3), [1.0, 0.125])

    def test_time_zero_is_initial(self):
        a = np.array([0.3, -2.0, 1.1])
        np.testing.assert_allclose(hilbert_closed_form([1.0, 2.0, 3.0], a, t=0.0), a)

    def test_collapse_coordinates(self):
        # starting on the second eigenray, mu^k u_k = (s1/s2)^k -> 0
        vals = hilbert_closed_form([1.0, 2.0], [0.0, 1.0], k=40)
        assert vals[0] == 0.0
        assert 1.0**40 * vals[1] == pytest.approx(2.0**-40)

    def test_argument_validation(self):
        with pytest.raises(DegenerateInputError):
            hilbert_closed_form([2.0, 1.0], [1.0, 1.0], k=1)  # not ascending
        with pytest.raises(DegenerateInputError):
            hilbert_closed_form([1.0, 2.0], [1.0, 1.0])  # neither k nor t
        with pytest.raises(DegenerateInputError):
            hilbert_closed_form([1.0, 2.0], [1.0, 1.0], k=1, t=1.0)


class TestDirectRayleighMin:
    def test_matrix_ground_state(self):
        res = direct_rayleigh_min(MatrixQuadratic(np.diag([2.0, 3.0])))
        assert res.lambda_star == pytest.approx(2.0, rel=1e-9)
        np.testing.assert_allclose(np.abs(res.minimizer), [1.0, 0.0], atol=1e-6)

    def test_infimum_property(self):
        rng = np.random.default_rng(1)
        for inst in (PDirichlet1D(1.5, 9), Robin1D(3.0, 9), SupDirichlet1D(2.0, 9)):
            res = direct_rayleigh_min(inst)
            for _ in range(100):
                u = rng.standard_normal(inst.space.dim)
                assert res.lambda_star <= inst.rayleigh(u) * (1.0 + 1e-9)

    def test_certificates(self):
        for inst in (PDirichlet1D(2.0, 9), NeumannQuotient1D(3.0, 9), SupDirichlet1D(1.5, 9)):
            res = direct_rayleigh_min(inst)
            assert res.certificate <= 1e-8
            assert eigen_residual(inst, res.minimizer, res.lambda_star) <= 1e-6

    def test_sup_ball_profile(self):
        # the sup-norm ground state on a symmetric interval is the tent
        # a (r - |x - L/2|); discretization error below 2% in sup norm
        inst = SupDirichlet1D(4.0, 129)
        res = direct_rayleigh_min(inst)
        u = res.minimizer
        if u[len(u) // 2] < 0:
            u = -u
        x = np.arange(1, 130) * inst.h
        tent = (0.5 - np.abs(x - 0.5)) / 0.5
        assert np.max(np.abs(u - tent)) <= 0.02

    @pytest.mark.parametrize("p", [8.0, 20.0])
    def test_exact_tent_has_rounding_level_residual(self, p):
        # the integer tent j (n+1-i), i(n+1-j) peaking mid-interval is exact
        # in doubles; a power-of-two rescaling keeps it exact, so only the
        # residual's own rounding is left (1.1e-15 at p = 20)
        n, i = 129, 65
        inst = SupDirichlet1D(p, n)
        j = np.arange(1, n + 1)
        u = np.where(j <= i, j * (n + 1 - i), i * (n + 1 - j)).astype(float)
        assert eigen_residual(inst, u, inst.rayleigh(u)) <= 1e-14

    @pytest.mark.parametrize("p, n", [(8.0, 31), (20.0, 15)])
    def test_large_p_certifies(self, p, n):
        # R is about 1e12 at the starts: descending on R itself, the Armijo
        # test drowned in the rounding floor of R and the certificate stuck
        # near 1 (lambda 2.4e10 at p = 8, 3.8e24 at p = 20)
        inst = PDirichlet1D(p, n)
        res = oracle_lambda(inst)
        _, summary = iterate(inst, np.ones(n))
        assert res.certificate <= 1e-8
        assert res.lambda_star == pytest.approx(summary.lambda_hat, rel=1e-9)

    def test_spg_one_quotient_per_point(self, monkeypatch):
        # the value and the residual of a point share its quotient; one
        # more evaluation gives the returned lambda
        inst = NeumannQuotient1D(3.0, 11)
        rayleigh, quotients, points = inst.rayleigh, [], []

        def counted(u):
            quotients.append(u)
            return rayleigh(u)

        def seen(f):
            def g(u):
                if not any(u is x for x in points):
                    points.append(u)
                return f(u)

            return g

        descend = rayflow.oracles.descend

        def spy(x, value, grad, *args, **kwargs):
            return descend(x, seen(value), seen(grad), *args, **kwargs)

        monkeypatch.setattr(inst, "rayleigh", counted)
        monkeypatch.setattr(rayflow.oracles, "descend", spy)
        _, lam, cert = _spg(inst, np.linspace(-1.0, 1.0, 11), 1e-8, 800)
        assert cert <= 1e-8 and len(points) > 10
        assert len(quotients) <= len(points) + 1

    def test_unit_solves_one_shift(self, monkeypatch):
        # the shift the quotient norm solves also recentres the point
        calls = []
        for module in (rayflow.spaces, rayflow.oracles):

            def counted(u, space, _f=module.optimal_shift):
                calls.append(1)
                return _f(u, space)

            monkeypatch.setattr(module, "optimal_shift", counted)
        inst = NeumannQuotient1D(3.0, 11)
        rng = np.random.default_rng(3)
        for _ in range(5):
            u = rng.standard_normal(11) + 2.0
            calls.clear()
            t = _unit(inst, u)
            assert len(calls) == 1
            assert np.ptp(t - u / inst.space.norm(u)) <= 1e-12  # the class of u, scaled
            assert inst.space.norm(t) == pytest.approx(1.0, rel=1e-14)

    def test_poincare_with_oracle_constant(self):
        rng = np.random.default_rng(2)
        for inst in (PDirichlet1D(2.0, 9), NeumannQuotient1D(1.5, 9)):
            res = direct_rayleigh_min(inst)
            for _ in range(200):
                u = rng.standard_normal(inst.space.dim)
                n = inst.space.norm(u)
                assert res.lambda_star * n**inst.p <= inst.p * inst.value(u) * (1.0 + 1e-6)


class TestOracleLambda:
    def test_matrix_uses_jacobi(self):
        res = oracle_lambda(MatrixQuadratic(np.diag([1.5, 4.0])))
        assert res.method.value == "jacobi_eig"
        assert res.lambda_star == pytest.approx(1.5, rel=1e-12)
        assert res.certificate <= 1e-10

    def test_pde_uses_projected_gradient(self):
        res = oracle_lambda(PDirichlet1D(2.0, 9))
        assert res.method.value == "projected_gradient"
        exact = (2.0 / PDirichlet1D(2.0, 9).h ** 2) * (1.0 - math.cos(math.pi / 10.0))
        assert res.lambda_star == pytest.approx(exact, rel=1e-10)

    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 8.0, 20.0])
    @pytest.mark.parametrize("n", [9, 10, 31, 129])
    def test_sup_uses_closed_form(self, n, p):
        # the tent peaking at node i has quotient h^(1-p) (i^(1-p) + (n+1-i)^(1-p))
        inst = SupDirichlet1D(p, n)
        res = oracle_lambda(inst)
        exact = min(inst.h ** (1 - p) * (i ** (1 - p) + (n + 1 - i) ** (1 - p)) for i in range(1, n + 1))
        assert res.method.value == "closed_form"
        assert res.lambda_star == pytest.approx(exact, rel=1e-14)
        # the returned tent has max 1, so its entries j/i are rounded; the
        # kernel amplifies that rounding (p-1)-fold and the total-variation
        # dual norm sums it over n nodes (1.6e-12 at p = 8, 4.5e-12 at p = 20, n = 129)
        assert res.certificate <= 1e-12 * max(1.0, (p - 1.0) * n / 256)
