import functools
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rayflow.oracles
import rayflow.spaces
from helpers import hilbert_closed_form
from rayflow.errors import DegenerateInputError
from rayflow.iterate import iterate
from rayflow.oracles import (
    DEFAULT_TOL,
    _round_robin,
    _spg,
    _unit,
    direct_rayleigh_min,
    eigen_residual,
    oracle_lambda,
    symmetric_eigs,
)
from rayflow.problems import (
    FractionalSeminorm1D,
    MatrixQuadratic,
    NeumannQuotient1D,
    PDirichlet1D,
    PDirichlet2D,
    Robin1D,
    Steklov1D,
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

    def test_scale_free_past_2_to_the_1023(self):
        # at max|u| >= 2^1023 the power of 2 at or above it is 2^1024, past
        # the double range: the scaled u still gives the unit-scale figures
        inst = PDirichlet1D(3.0, 5)
        u = np.sin(np.pi * np.arange(1, 6) / 6)
        for f in (lambda v: eigen_residual(inst, v, 10.0), inst.lambda_lower, inst.rayleigh):
            assert f(1e308 * u) == pytest.approx(f(u), rel=1e-14)

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
    @pytest.mark.parametrize("route", [oracle_lambda, direct_rayleigh_min])
    @pytest.mark.parametrize(
        "key, value", [("tol", math.nan), ("tol", math.inf), ("tol", 0.0), ("restarts", 2.5), ("restarts", -1)]
    )
    def test_bad_option_is_refused(self, route, key, value):
        # a nan or inf tol used to return an uncertified lambda* = 546 at
        # PDirichlet1D(3, 15), whose lambda is 28.1
        with pytest.raises(DegenerateInputError, match=f"^{key}:"):
            route(PDirichlet1D(3.0, 15), **{"restarts": 2, key: value})

    def test_matrix_route_checks_its_options(self):
        with pytest.raises(DegenerateInputError, match="^tol:"):
            oracle_lambda(MatrixQuadratic(np.diag([1.5, 4.0])), tol=math.nan)

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

    def test_sup_closed_form_past_the_sphere_cap(self):
        # the tents run no sphere search, so the direct route's dim <= 256 cap
        # does not hold them back; at odd n the centred tent gives 2^p exactly,
        # certified within the CLI's exit-0 gate
        res = oracle_lambda(SupDirichlet1D(3.0, 301))
        assert res.method.value == "closed_form"
        assert res.lambda_star == 8.0 and res.certificate <= DEFAULT_TOL


BOUNDED_KINDS = [PDirichlet1D, Robin1D, FractionalSeminorm1D]


@functools.lru_cache(maxsize=None)
def _oracle(make, p, n):
    return oracle_lambda(make(p, n), restarts=0)  # the restarts cost seconds where the bound stays open


class TestPiconeBound:
    """lambda_lower(u) = min_i dPhi(u)_i / J_p(u)_i <= lambda <= R(u) at positive u."""

    @pytest.mark.parametrize("n", [15, 31])
    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 8.0])
    @pytest.mark.parametrize("make", BOUNDED_KINDS)
    @settings(max_examples=25, deadline=None)
    @given(
        scale=st.integers(-100, 100),
        spread=st.integers(-8, 0),
        noise=st.lists(st.floats(-1.0, 1.0), min_size=31, max_size=31),
        flip=st.booleans(),
    )
    def test_bound_brackets_lambda(self, make, p, n, scale, spread, noise, flip):
        # states from near the ground state (spread 1e-8) to far from it
        # (entries within a factor e of the ground state's), of magnitude
        # 1e-100 to 1e100, either sign
        inst, res = make(p, n), _oracle(make, p, n)
        u = np.abs(res.minimizer) * np.exp(10.0**spread * np.array(noise[:n])) * 10.0**scale
        u = -u if flip else u
        lower = inst.lambda_lower(u)
        assert lower is not None
        assert lower <= min(res.lambda_star, inst.rayleigh(u)) * (1.0 + 1e-12)
        if res.certificate <= 1e-8:  # near p = 1 the oracle may not certify, nor be least
            assert res.lambda_star <= inst.rayleigh(u) * (1.0 + 1e-12)

    @pytest.mark.parametrize("p", [1.5, 3.0, 8.0])
    @pytest.mark.parametrize("make", BOUNDED_KINDS)
    def test_bound_is_tight_at_the_minimizer(self, make, p):
        # the certified minimizer of the n = 15 cases brackets lambda to 1e-4
        res = _oracle(make, p, 15)
        assert res.lambda_lower == make(p, 15).lambda_lower(res.minimizer)
        assert res.lambda_star * (1.0 - 1e-4) <= res.lambda_lower <= res.lambda_star

    @pytest.mark.parametrize(
        "inst",
        [SupDirichlet1D(3.0, 9), NeumannQuotient1D(3.0, 9), Steklov1D(3.0, 9), PDirichlet2D(3.0, 3), MatrixQuadratic(np.eye(9))],
        ids=lambda inst: inst.kind,
    )
    def test_none_on_excluded_kinds(self, inst):
        assert inst.lambda_lower(np.linspace(1.0, 2.0, 9)) is None

    @pytest.mark.parametrize("make", BOUNDED_KINDS)
    def test_none_on_zero_or_sign_change(self, make):
        inst = make(3.0, 9)
        u = np.linspace(1.0, 2.0, 9)
        assert inst.lambda_lower(u) == inst.lambda_lower(-u) == inst.lambda_lower(8.0 * u)
        for k in (0, 4, 8):
            for entry in (0.0, -1.0, -0.0, math.nan):
                v = u.copy()
                v[k] = entry
                assert inst.lambda_lower(v) is None and inst.lambda_lower(-v) is None
        assert inst.lambda_lower(np.full(9, math.inf)) is None

    def test_none_where_the_power_underflows(self):
        # 1e-50^7 is below the least normal double: the ratio has no accuracy
        u = np.ones(9)
        u[4] = 1e-50
        assert PDirichlet1D(8.0, 9).lambda_lower(u) is None
        assert PDirichlet1D(3.0, 9).lambda_lower(u) < 0.0


class TestBracketStop:
    """The multistart ends at the first start once the Picone bound closes on it."""

    @staticmethod
    def _count_spg(monkeypatch):
        calls = []

        def counted(*args, _f=rayflow.oracles._spg):
            calls.append(1)
            return _f(*args)

        monkeypatch.setattr(rayflow.oracles, "_spg", counted)
        return calls

    @pytest.mark.parametrize(
        "inst, spg_calls",
        # open-bracket: the first start polishes to certificate 6.1e-9, but its
        # Picone bracket is 8.8e-5 wide, past BRACKET_RTOL = 1e-6, so the 16
        # restarts run (with a BRACKET_RTOL of 1e-1 it would stop after 2)
        [(FractionalSeminorm1D(3.0, 31), 2), (NeumannQuotient1D(3.0, 11), 18), (FractionalSeminorm1D(8.0, 15), 19)],
        ids=["stop", "no-bound", "open-bracket"],
    )
    def test_sphere_descents(self, monkeypatch, inst, spg_calls):
        calls = self._count_spg(monkeypatch)
        res = direct_rayleigh_min(inst, restarts=16)
        assert len(calls) == spg_calls
        assert (res.lambda_lower is None) == (inst.kind == "neumann1d")

    @pytest.mark.parametrize(
        "make, p",
        [(make, p) for make in BOUNDED_KINDS for p in (1.5, 3.0)] + [(Robin1D, 8.0), (FractionalSeminorm1D, 8.0)],
    )
    def test_stop_keeps_the_multistart_lambda(self, monkeypatch, make, p):
        inst = make(p, 31)
        calls = self._count_spg(monkeypatch)
        stopped = direct_rayleigh_min(inst)
        assert len(calls) == 2
        monkeypatch.setattr(rayflow.oracles, "BRACKET_RTOL", -1.0)
        full = direct_rayleigh_min(inst)
        assert len(calls) == 2 + 19  # 17 coarse starts, the early polish and the final one
        assert stopped.lambda_star == pytest.approx(full.lambda_star, rel=1e-12)
        assert stopped.certificate <= 1e-8 and full.certificate <= 1e-8

    @pytest.mark.parametrize(
        "inst, rtol, early_polish",
        [
            (FractionalSeminorm1D(8.0, 15), 1e-6, True),  # polished: the bracket stays at 8.8e-5
            (FractionalSeminorm1D(3.0, 15), -1.0, True),  # polished, the stop turned off
            (PDirichlet1D(8.0, 31), 1e-6, False),  # the coarse descent stalls at certificate 1.6
            (NeumannQuotient1D(3.0, 11), 1e-6, False),  # no bound on a quotient space
        ],
        ids=["open-bracket", "stop-off", "stalled", "no-bound"],
    )
    def test_no_stop_leaves_the_result_alone(self, monkeypatch, inst, rtol, early_polish):
        # where the stop does not fire the early polish takes no part in the
        # choice: the result is bit for bit the one without it
        monkeypatch.setattr(rayflow.oracles, "BRACKET_RTOL", rtol)
        calls = self._count_spg(monkeypatch)
        res = direct_rayleigh_min(inst, restarts=2)
        assert len(calls) == 4 + early_polish  # 3 coarse starts, the final polish
        monkeypatch.setattr(rayflow.oracles, "_bracketed", lambda *args: None)
        ref = direct_rayleigh_min(inst, restarts=2)
        assert res.lambda_star == ref.lambda_star and res.certificate == ref.certificate
        assert res.minimizer.tobytes() == ref.minimizer.tobytes()
        assert res.lambda_lower == ref.lambda_lower

    @pytest.mark.parametrize("factor, kept", [(2.0, False), (0.5, True)])
    def test_polish_is_kept_only_within_tol(self, monkeypatch, factor, kept):
        # the polish's certificate, set to 2 tol or tol/2, decides the stop
        def polish(inst, u, tol, max_iters, _f=rayflow.oracles._spg):
            u, lam, _ = _f(inst, u, tol, max_iters)
            return u, lam, factor * tol

        monkeypatch.setattr(rayflow.oracles, "_spg", polish)
        res = rayflow.oracles._bracketed(PDirichlet1D(3.0, 15), np.ones(15), 1e-8)
        assert (res is not None) == kept
        if kept:
            assert res.certificate == 0.5e-8


class TestMinimizerSign:
    """The sphere oracle returns its minimizer with a positive largest-magnitude entry."""

    @pytest.mark.parametrize("seed", range(8))
    def test_multistart_minimizer_is_sign_normalized(self, monkeypatch, seed):
        # the winning start of seeds 0, 1 and 4 converges to -phi; only the
        # sign of the returned point changes, not lambda or the certificate
        inst = NeumannQuotient1D(3.0, 11)
        res = direct_rayleigh_min(inst, restarts=4, seed=seed)
        u = res.minimizer
        assert u[np.abs(u).argmax()] > 0.0
        monkeypatch.setattr(rayflow.oracles, "unit_representative", lambda space, t, n: t / n)
        raw = direct_rayleigh_min(inst, restarts=4, seed=seed)
        assert res.lambda_star == raw.lambda_star and res.certificate == raw.certificate
        assert u.tobytes() in (raw.minimizer.tobytes(), (-raw.minimizer).tobytes())

    def test_bracketed_minimizer_is_sign_normalized(self):
        # the stop's return, from a coarse point at -phi: the polish keeps the sign
        inst = FractionalSeminorm1D(3.0, 15)
        u, _, _ = _spg(inst, np.ones(15), 1e-5, 800)
        res, mirror = rayflow.oracles._bracketed(inst, -u, 1e-8), rayflow.oracles._bracketed(inst, u, 1e-8)
        assert (res.minimizer > 0.0).all()
        assert res.lambda_star == mirror.lambda_star and res.lambda_lower == mirror.lambda_lower
