import math
import time

import numpy as np
import pytest

import rayflow.spaces
from helpers import hilbert_closed_form
from rayflow.errors import DegenerateInputError
from rayflow.iterate import (
    IterationRow,
    IterationTrace,
    IterOptions,
    SchemeFailure,
    StopReason,
    check_monotonicity,
    iterate,
    outer_loop,
    rough_mu,
)
from rayflow.flow import FlowOptions, run_flow
from rayflow.oracles import direct_rayleigh_min
from rayflow.problems import MatrixQuadratic, NeumannQuotient1D, PDirichlet1D, Robin1D, Steklov1D

TIGHT = IterOptions(rtol=1e-13, dtol=1e-10, max_iters=200, grad_tol=1e-12, keep_iterates=True)


class TestMatrixGroundTruth:
    def test_iterates_match_closed_form(self):
        sigmas = np.array([1.0, 2.0, 5.0])
        inst = MatrixQuadratic(np.diag(sigmas))
        trace, summary = iterate(inst, np.ones(3), TIGHT)
        assert summary.converged
        for k, u in enumerate(trace.iterates):
            expect = hilbert_closed_form(sigmas, np.ones(3), k=k)
            assert np.linalg.norm(u - expect) <= 1e-9 * np.linalg.norm(expect)
        assert summary.lambda_hat == pytest.approx(1.0, abs=1e-12)
        assert summary.mu_hat == pytest.approx(summary.lambda_hat, rel=1e-12)

    def test_limit_direction(self):
        inst = MatrixQuadratic(np.diag([1.0, 2.0, 5.0]))
        _, summary = iterate(inst, np.ones(3), TIGHT)
        w = summary.limit_vec
        assert np.linalg.norm(w / np.linalg.norm(w) - np.array([1.0, 0.0, 0.0])) <= 1e-8

    def test_restarting_from_minimizer_is_separable(self):
        # from an exact minimizer w the unique solution is u_k = mu^-k w
        inst = MatrixQuadratic(np.diag([1.0, 2.0, 5.0]))
        w = np.array([1.0, 0.0, 0.0])
        opts = IterOptions(rtol=None, dtol=None, max_iters=10, grad_tol=1e-13, keep_iterates=True)
        trace, summary = iterate(inst, w, opts)
        for k, u in enumerate(trace.iterates):
            np.testing.assert_allclose(u, w, rtol=0, atol=1e-10)


class TestCollapse:
    def test_second_eigenvector_collapses(self):
        inst = MatrixQuadratic(np.diag([1.0, 2.0, 5.0]))
        opts = IterOptions(rtol=None, dtol=None, max_iters=1100, grad_tol=1e-12)
        trace, summary = iterate(inst, np.array([0.0, 1.0, 0.0]), opts)
        assert summary.stop_reason is StopReason.COLLAPSED_TO_ZERO
        assert not summary.converged
        np.testing.assert_array_equal(summary.limit_vec, 0.0)
        # norms contract exactly at rate 1/2 (the sigma = 2 eigenray)
        for row in trace.rows[: summary.iters]:
            assert row.norm == pytest.approx(0.5**row.k, rel=1e-10)


class TestInvariants:
    def test_scaling_equivariance(self):
        inst = PDirichlet1D(3.0, 9)
        _, s1 = iterate(inst, np.ones(9), TIGHT)
        _, s2 = iterate(inst, 250.0 * np.ones(9), TIGHT)
        assert s1.lambda_hat == pytest.approx(s2.lambda_hat, rel=1e-10)
        np.testing.assert_allclose(
            s1.limit_vec / np.linalg.norm(s1.limit_vec),
            s2.limit_vec / np.linalg.norm(s2.limit_vec),
            atol=1e-9,
        )

    def test_monotonicity_empty_on_converged_runs(self):
        insts = (MatrixQuadratic(np.diag([1.0, 4.0])), PDirichlet1D(1.5, 9), NeumannQuotient1D(3.0, 9), Robin1D(1.5, 9))
        for inst in insts:
            u0 = np.linspace(-1, 1, inst.space.dim) if inst.kind == "neumann1d" else np.ones(inst.space.dim)
            trace, summary = iterate(inst, u0)
            assert summary.converged
            assert check_monotonicity(trace, summary.mu_hat) == []

    def test_estimator_consistency(self):
        inst = PDirichlet1D(2.0, 9)
        trace, summary = iterate(inst, np.ones(9), TIGHT)
        assert abs(summary.mu_hat - trace.rows[-1].ratio) <= 1e-6 * summary.mu_hat

    def test_lambda_approaches_from_above(self):
        inst = PDirichlet1D(2.0, 9)
        res = direct_rayleigh_min(inst)
        _, summary = iterate(inst, np.ones(9))
        assert summary.lambda_hat >= res.lambda_star * (1.0 - 1e-6)
        for rtol in (1e-4, 1e-6):
            _, s = iterate(inst, np.ones(9), IterOptions(rtol=rtol, dtol=None))
            assert s.stop_reason is StopReason.RQ_STABLE
            assert s.lambda_hat >= res.lambda_star * (1.0 - 1e-6)


class TestCheckMonotonicity:
    def test_synthetic_rq_violation(self):
        trace = IterationTrace(
            rows=[
                IterationRow(0, 1.0, 1.0, 1.0, math.nan, 0, math.nan),
                IterationRow(1, 0.5, 0.5, 2.0, 2.0, 3, 1e-12),
            ]
        )
        violations = check_monotonicity(trace)
        assert len(violations) == 1
        assert violations[0].k == 1 and violations[0].quantity == "rq"

    def test_single_row_trace(self):
        trace = IterationTrace(rows=[IterationRow(0, 1.0, 1.0, 1.0, math.nan, 0, math.nan)])
        assert check_monotonicity(trace) == []

    def test_scaled_norm_check_needs_mu(self):
        rows = [
            IterationRow(0, 1.0, 1.0, 1.0, math.nan, 0, math.nan),
            IterationRow(1, 0.9, 0.5, 0.9, 1.11, 3, 1e-12),
        ]
        trace = IterationTrace(rows=rows)
        assert check_monotonicity(trace) == []  # ratio/rq fine
        bad = check_monotonicity(trace, mu_hat=2.0)  # 0.9 > 1.0/2
        assert [v.quantity for v in bad] == ["scaled_norm"]


class TestShiftSolves:
    """outer_loop takes a state's norm and its direction from one quotient shift solve."""

    @staticmethod
    def _count(monkeypatch):
        calls: dict[bytes, int] = {}
        shift = rayflow.spaces.optimal_shift

        def counted(u, space):
            key = np.asarray(u, dtype=float).tobytes()
            calls[key] = calls.get(key, 0) + 1
            return shift(u, space)

        monkeypatch.setattr(rayflow.spaces, "optimal_shift", counted)
        return calls

    def test_iterate_solves_each_state_once_per_use(self, monkeypatch):
        # each iterate: one solve in outer_loop, one in the next step's
        # duality map (the start also in its Rayleigh quotient: max|ramp| = 1)
        calls = self._count(monkeypatch)
        inst = NeumannQuotient1D(3.0, 31)
        trace, _ = iterate(inst, np.linspace(-1.0, 1.0, 31), IterOptions(keep_iterates=True))
        counts = [calls.get(u.tobytes(), 0) for u in trace.iterates]
        assert counts == [3] + [2] * (len(counts) - 2) + [1]

    def test_flow_solves_each_state_once(self, monkeypatch):
        # the start also in its Rayleigh quotient, as above
        calls = self._count(monkeypatch)
        inst = NeumannQuotient1D(3.0, 31)
        trace, _ = run_flow(inst, np.linspace(-1.0, 1.0, 31), 1e-3, 0.02, FlowOptions(keep_states=True))
        assert [calls.get(v.tobytes(), 0) for v in trace.states] == [2] + [1] * (len(trace.states) - 1)


class TestGuards:
    def test_zero_start_rejected(self):
        inst = PDirichlet1D(2.0, 5)
        with pytest.raises(DegenerateInputError):
            iterate(inst, np.zeros(5))

    def test_steklov_interior_start_rejected(self):
        # trace norm of an interior-supported vector is zero
        inst = Steklov1D(2.0, 6)
        u0 = np.zeros(6)
        u0[2] = 1.0
        with pytest.raises(DegenerateInputError):
            iterate(inst, u0)

    def test_non_finite_limit_is_refused(self):
        # a rescale factor outside the double range must not hand back a
        # non-finite limit vector
        inst = MatrixQuadratic(np.diag([1.0, 4.0]))
        x = np.array([1.0, 0.0])
        trace = IterationTrace([IterationRow(0, 1.0, inst.value(x), inst.rayleigh(x), math.nan, 0, math.nan)])

        def step(k, x):  # stays on the ground ray
            return x, lambda norm, phi, rq: IterationRow(k, norm, phi, rq, 1.0, 0, 0.0)

        with pytest.warns(RuntimeWarning, match="invalid value"):  # inf * 0
            with pytest.raises(DegenerateInputError, match="rescaled limit vector has non-finite entries"):
                outer_loop(inst, x, x, trace, step, lambda mu: math.inf, 5, 1e-10, 1e-8, 30)

    def test_rough_mu(self):
        inst = MatrixQuadratic(np.diag([1.0, 4.0]))
        mu = rough_mu(inst, np.ones(2))
        assert 1.0 <= mu <= 2.6

    @pytest.mark.parametrize(
        "inst", [PDirichlet1D(1.1, 31), Robin1D(1.2, 31)], ids=["pdirichlet1d-p1.1", "robin1d-p1.2"]
    )
    def test_near_one_ends_within_5s(self, inst):
        # as p -> 1 the primal residual is ill-conditioned even at the exact
        # flux solution; the run must converge or fail, not grind on
        start = time.perf_counter()
        try:
            _, summary = iterate(inst, np.ones(inst.space.dim))
            assert summary.converged
        except SchemeFailure:
            pass
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize("n", [2047, 8191])
    def test_stalled_inner_solve_fails_fast_naming_kind(self, n):
        # at p = 1.5 and large n the exact flux point misses grad_tol on the
        # recomputed primal residual, and descend cannot get below its
        # rounding floor either; it must give up, not grind on for seconds
        inst = PDirichlet1D(1.5, n)
        u0 = np.sin(np.pi * np.arange(1, n + 1) / (n + 1))
        start = time.perf_counter()
        with pytest.raises(SchemeFailure, match=r"pdirichlet1d: .* \(merit \d\.\d{3}e-\d+\)") as failure:
            iterate(inst, u0)
        assert time.perf_counter() - start < 2.0
        # descend starts from the exact flux point and reports no worse a
        # merit than that point's (up to the 4 printed digits)
        xi = inst.space.duality_map(u0)
        s = inst.space.dual_norm(xi)
        v0, _ = inst.solve_gradient(xi / s)
        start_merit = s * inst.space.dual_norm(inst.gradient(v0) - xi / s)
        reported = float(str(failure.value).rsplit("merit ", 1)[1].rstrip(")"))
        assert reported <= start_merit * (1.0 + 5e-4)

    def test_overflowing_dual_is_refused(self):
        # |u|^19 overflows at this scale: the duality map refuses the
        # non-finite dual instead of passing it to the inner solve
        n = 15
        u0 = 1e20 * np.sin(np.pi * np.arange(1, n + 1) / (n + 1))
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(DegenerateInputError, match="dual vector has non-finite entries"):
                iterate(PDirichlet1D(20.0, n), u0)

    @pytest.mark.parametrize(
        "inst, u0, lam",
        [
            (MatrixQuadratic(np.diag([1.0, 4.0])), 1e300 * np.ones(2), 1.0),
            (PDirichlet1D(2.0, 3, L=1e-3), 1e305 * np.ones(3), 4.0 / 2.5e-4**2 * math.sin(math.pi / 8.0) ** 2),
        ],
        ids=["matrix-1e300", "pdirichlet1d-1e305"],
    )
    def test_huge_start_converges(self, inst, u0, lam):
        # Phi of the start overflows, yet the scheme converges
        with pytest.warns(RuntimeWarning, match="overflow"):
            _, summary = iterate(inst, u0)
        assert summary.converged
        assert summary.lambda_hat == pytest.approx(lam, rel=1e-12)

    def test_neumann_p12_converges(self):
        # the iterate shrinks about 346x per step: the quotient shift must stay
        # exact down to max|u| ~ 1e-16, or the quotient falls into a 2-cycle
        _, summary = iterate(NeumannQuotient1D(1.2, 31), np.linspace(-1.0, 1.0, 31))
        assert summary.converged and summary.iters < 20
        assert summary.lambda_hat == pytest.approx(3.220964201675858, rel=1e-12)
