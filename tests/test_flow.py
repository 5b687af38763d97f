import math
import time
from collections import Counter

import numpy as np
import pytest

import rayflow.flow
import rayflow.inner
from helpers import record_states
from rayflow.errors import DegenerateInputError
from rayflow.flow import FlowOptions, FlowRow, check_decay, local_slope, run_flow
from rayflow.iterate import StopReason, Trace, iterate, IterOptions, rough_mu
from rayflow.problems import (
    FractionalSeminorm1D,
    MatrixQuadratic,
    NeumannQuotient1D,
    PDirichlet1D,
    Steklov1D,
    SupDirichlet1D,
    start_vector,
)
from rayflow.spaces import unit_representative

TIGHT = FlowOptions(rtol=1e-12, dtol=1e-7, grad_tol=1e-11)


class TestImplicitEulerClosedForm:
    def test_diagonal_states(self, monkeypatch):
        # v_{n+1} = (I + tau A)^{-1} v_n componentwise on a diagonal matrix
        sigmas = np.array([1.0, 4.0])
        inst = MatrixQuadratic(np.diag(sigmas))
        tau = 1e-3
        states = record_states(monkeypatch, np.ones(2))
        trace, summary = run_flow(inst, np.ones(2), tau, 2.0, TIGHT)
        assert len(states) == len(trace)
        for n, v in enumerate(states):
            expect = (1.0 + tau * sigmas) ** (-n)
            np.testing.assert_allclose(v, expect, rtol=1e-8)

    def test_speed_equals_next_slope(self):
        # for the quadratic implicit step, (v_{n+1}-v_n)/tau = -A v_{n+1}
        inst = MatrixQuadratic(np.diag([1.0, 4.0]))
        trace, _ = run_flow(inst, np.ones(2), 1e-3, 0.5, TIGHT)
        for a, b in zip(trace.rows[:-1], trace.rows[1:]):
            assert a.speed == pytest.approx(b.slope, rel=1e-7)

    def test_approaches_ground_lambda(self):
        inst = MatrixQuadratic(np.diag([1.0, 4.0]))
        _, summary = run_flow(inst, np.ones(2), 1e-3, 40.0, TIGHT)
        assert summary.converged
        assert summary.lambda_hat == pytest.approx(1.0, abs=1e-8)
        assert summary.mu_hat == pytest.approx(summary.lambda_hat ** (1.0), rel=1e-12)


class TestRayConfinement:
    def test_flow_from_minimizer_stays_on_ray(self, monkeypatch):
        inst = MatrixQuadratic(np.diag([1.0, 2.0, 5.0]))
        w = np.array([1.0, 0.0, 0.0])
        opts = FlowOptions(rtol=None, dtol=None, grad_tol=1e-12)
        states = record_states(monkeypatch, w)
        trace, _ = run_flow(inst, w, 0.01, 10 * 0.01, opts)
        assert len(states) == 11
        for v in states:
            direction = v / np.linalg.norm(v)
            assert np.linalg.norm(direction - w) <= 1e-6
        rqs = trace.column("rq")
        assert np.nanmax(np.abs(rqs - 1.0)) <= 1e-6

    @pytest.mark.parametrize("horizon", [50.0, 200.0])
    def test_unit_ground_state_keeps_unit_limit(self, horizon):
        # on the ground ray each step shrinks the state by (1 + tau mu)^(-1)
        # exactly, so the rescaled limit of a unit ground state is itself,
        # however long the run
        inst = MatrixQuadratic(np.diag([2.0, 5.0, 9.0]))
        mu = 2.0
        opts = FlowOptions(rtol=None, dtol=None)
        _, summary = run_flow(inst, np.array([1.0, 0.0, 0.0]), 0.01 / mu, horizon / mu, opts)
        assert summary.steps == round(100 * horizon)
        assert abs(np.linalg.norm(summary.limit_vec) - 1.0) <= 1e-12

    def test_zero_start_is_refused(self):
        # the quotient is undefined at zero: the flow refuses the start, as
        # inverse iteration does, instead of returning a nan summary
        with pytest.raises(DegenerateInputError, match="u0 must have nonzero norm"):
            run_flow(PDirichlet1D(2.0, 5), np.zeros(5), 0.1, 1.0)

    def test_steklov_interior_start_is_refused(self):
        # an interior-supported vector has zero trace norm
        u0 = np.zeros(6)
        u0[2] = 1.0
        with pytest.raises(DegenerateInputError, match="u0 must have nonzero norm"):
            run_flow(Steklov1D(2.0, 6), u0, 0.1, 1.0)


class TestEnergyLaws:
    def test_unconditional_descent(self):
        inst = PDirichlet1D(3.0, 9)
        tau = 0.01
        trace, _ = run_flow(inst, np.ones(9), tau, 2.0, TIGHT)
        p = inst.p
        for a, b in zip(trace.rows[:-1], trace.rows[1:]):
            movement = (a.speed * tau) ** p / (p * tau ** (p - 1.0))
            assert b.phi + movement <= a.phi * (1.0 + 1e-9) + 1e-12

    def test_phi_nonincreasing(self):
        inst = PDirichlet1D(1.5, 9)
        trace, _ = run_flow(inst, np.ones(9), 0.01, 2.0)
        phis = trace.column("phi")
        assert np.all(np.diff(phis) <= 1e-12)

    def test_energy_residual_halves_with_tau(self):
        inst = MatrixQuadratic(np.diag([1.0, 4.0]))
        opts = FlowOptions(rtol=None, dtol=None, grad_tol=1e-12)
        r = {}
        for tau in (1e-3, 5e-4):
            trace, _ = run_flow(inst, np.ones(2), tau, 1.0, opts)
            r[tau] = np.nanmax(trace.column("energy_residual"))
        assert r[1e-3] / r[5e-4] >= 1.5

    def test_rq_monotone_along_flow(self):
        for inst in (MatrixQuadratic(np.diag([1.0, 4.0])), PDirichlet1D(1.5, 9)):
            trace, _ = run_flow(inst, np.ones(inst.space.dim), 0.005, 3.0)
            rqs = [r.rq for r in trace.rows if math.isfinite(r.rq)]
            for a, b in zip(rqs, rqs[1:]):
                assert b <= a * (1.0 + 1e-6)


class TestCheckDecay:
    def test_converged_run_has_no_violations(self):
        inst = MatrixQuadratic(np.diag([1.0, 4.0]))
        trace, summary = run_flow(inst, np.ones(2), 1e-3, 40.0, TIGHT)
        assert check_decay(trace, summary.mu_hat, trace.rows[0].phi) == []

    def test_synthetic_constant_trace_flagged(self):
        rows = [FlowRow(n, 0.1 * n, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0) for n in range(5)]
        trace = Trace(2.0, rows)
        violations = check_decay(trace, mu_hat=1.0, phi0=1.0)
        assert [v.k for v in violations] == [1, 2, 3, 4]

    @pytest.mark.parametrize("p", [3.0, 1.5])
    def test_converged_pdirichlet_has_no_violations(self, p):
        inst = PDirichlet1D(p, 9)
        x = np.arange(1, 10) / 10
        u0 = x * (1.0 - x) + 0.3 * np.sin(3.0 * np.pi * x)
        mu = rough_mu(inst, u0)
        trace, summary = run_flow(inst, u0, 0.01 / mu, 50.0 / mu)
        assert summary.converged
        assert check_decay(trace, summary.mu_hat, trace.rows[0].phi) == []

    @staticmethod
    def _bound_trace(p, tau, mu, phi0, factor):
        rows = [
            FlowRow(n, tau * n, factor * phi0 * (1.0 + p * tau * mu) ** (-n), 1.0, 1.0, 0.0, 0.0, 0.0)
            for n in range(21)
        ]
        return Trace(p, rows)

    def test_trace_on_bound_passes(self):
        trace = self._bound_trace(3.0, 0.05, 2.0, 1.7, 1.0)
        assert check_decay(trace, mu_hat=2.0, phi0=1.7) == []

    def test_trace_above_bound_flagged_every_step(self):
        trace = self._bound_trace(3.0, 0.05, 2.0, 1.7, 1.0 + 1e-6)
        violations = check_decay(trace, mu_hat=2.0, phi0=1.7)
        assert [v.k for v in violations] == list(range(1, 21))

    def test_single_row_trace_empty(self):
        trace = Trace(2.0, [FlowRow(0, 0.0, 1.0, 1.0, 1.0, math.nan, 0.0, math.nan)])
        assert check_decay(trace, 1.0, 1.0) == []


class TestSupFlow:
    """The sup-norm flow end to end, with the CLI's automatic step and horizon."""

    @staticmethod
    def _run(p, u0):
        inst = SupDirichlet1D(p, 15)
        mu = rough_mu(inst, u0)
        start = time.perf_counter()
        trace, summary = run_flow(inst, u0, 0.01 / mu, 50.0 / mu)
        return inst, trace, summary, time.perf_counter() - start

    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 8.0, 20.0])
    def test_bump_start_reaches_closed_form(self, p):
        # the ground state is the tent, whose sup quotient is 2^p on (0, 1)
        inst = SupDirichlet1D(p, 15)
        _, trace, summary, elapsed = self._run(p, start_vector(inst, "auto", 0))
        assert summary.converged
        assert abs(summary.lambda_hat - 2.0**p) <= 1e-9 * 2.0**p
        assert check_decay(trace, summary.mu_hat, trace.rows[0].phi) == []
        assert elapsed < 1.0

    def test_ones_start_stays_on_invariant_ray(self):
        # all-ones is critical for the sup quotient: the exact flow keeps its
        # direction and stops at the ray's value 2 h^(1-p), not at 2^p
        inst, trace, summary, _ = self._run(3.0, np.ones(15))
        assert summary.stop_reason is StopReason.DIRECTION_STABLE
        assert summary.steps == 10
        assert summary.lambda_hat == pytest.approx(2.0 * inst.h ** (1.0 - inst.p), rel=1e-12)
        v = summary.limit_vec
        np.testing.assert_allclose(v / v.max(), 1.0, rtol=1e-12)

    #: box solves of these flows under the alternating secant/bisection
    #: radius search that the shared Illinois root replaced
    BOX_SOLVES_BEFORE = {1.5: 1718, 3.0: 1278, 8.0: 1604}

    @pytest.mark.parametrize("p", sorted(BOX_SOLVES_BEFORE))
    def test_one_gradient_per_box_solve(self, monkeypatch, p):
        # the row-0 slope, then one gradient per box solve (its KKT check):
        # the tolerance scale and the next slope reuse them; Phi is evaluated
        # once per row (its value and its quotient share it), never by the step
        inst = SupDirichlet1D(p, 15)
        i = np.arange(1, 16)
        tent = np.minimum(i, 16 - i) / 8.0
        u0 = start_vector(inst, "auto", 0)
        mu = rough_mu(inst, u0)
        calls = Counter()
        for name in ("value", "gradient", "solve_box"):

            def counted(*args, _f=getattr(inst, name), _name=name):
                calls[_name] += 1
                return _f(*args)

            monkeypatch.setattr(inst, name, counted)
        states = record_states(monkeypatch, u0)
        trace, summary = run_flow(inst, u0, 0.01 / mu, 50.0 / mu)
        assert summary.converged and calls["solve_box"] > summary.steps
        assert calls["gradient"] == calls["solve_box"] + 1
        assert calls["value"] == summary.steps + 1
        assert calls["solve_box"] <= 0.8 * self.BOX_SOLVES_BEFORE[p]
        # the flow ends on the tent: its direction is the tent to 2^-53 (the
        # spacing of doubles just below the peak 1) in each entry; lambda_hat is
        # the last state's quotient to the last bit, and that is 2^p rounded
        # (one ulp below it at p = 1.5 and 3)
        last = states[-1]
        x_hat = unit_representative(inst.space, *inst.space.representative_norm(last))
        assert np.abs(x_hat - tent).max() <= 2.0**-53
        assert summary.lambda_hat == inst.rayleigh(last)
        assert abs(summary.lambda_hat - 2.0**p) <= np.spacing(2.0**p)


class TestLocalSlope:
    def test_identity_matrix(self):
        inst = MatrixQuadratic(np.eye(3))
        rng = np.random.default_rng(0)
        for _ in range(5):
            u = rng.standard_normal(3)
            assert local_slope(inst, u) == pytest.approx(np.linalg.norm(u), rel=1e-12)

    def test_zero(self):
        assert local_slope(MatrixQuadratic(np.eye(2)), np.zeros(2)) == 0.0

    def test_pdirichlet_p2_matrix_oracle(self):
        inst = PDirichlet1D(2.0, 3)
        h = inst.h
        T = (2.0 * np.eye(3) - np.eye(3, k=1) - np.eye(3, k=-1)) / h**2
        rng = np.random.default_rng(1)
        u = rng.standard_normal(3)
        expect = (h * np.sum(np.abs(T @ u) ** 2.0)) ** 0.5
        assert local_slope(inst, u) == pytest.approx(expect, rel=1e-12)


class TestGuards:
    def test_bad_tau(self):
        inst = PDirichlet1D(2.0, 4)
        with pytest.raises(DegenerateInputError):
            run_flow(inst, np.ones(4), -0.1, 1.0)

    def test_t_end_below_tau(self):
        inst = PDirichlet1D(2.0, 4)
        with pytest.raises(DegenerateInputError):
            run_flow(inst, np.ones(4), 0.5, 0.1)

    def test_step_count_overflow(self):
        # t_end/tau = inf: no step count, rejected before the first step
        inst = PDirichlet1D(3.0, 9)
        with pytest.raises(DegenerateInputError, match="^t_end: "):
            run_flow(inst, np.ones(9), 1e-300, 1e300)

    @pytest.mark.parametrize("tau, t_end", [(1e300, 1e300), (1e-200, 1e-199)], ids=["overflow", "underflow"])
    def test_unrepresentable_penalty(self, tau, t_end):
        # tau^(p-1) at p = 3 leaves the doubles: refused before the first step
        with pytest.raises(DegenerateInputError, match=r"^tau: tau\^\(p-1\) must be a normal double"):
            run_flow(PDirichlet1D(3.0, 5), np.ones(5), tau, t_end)

    def test_one_step_check(self):
        # the flow checks its step with the movement step's own precondition
        assert rayflow.flow.check_step is rayflow.inner.check_step

    def test_overflowing_phi_at_the_start(self):
        # Phi(v0) overflows on this domain: refused with no RuntimeWarning
        # (the test configuration turns one into an error)
        with pytest.raises(DegenerateInputError, match="^Phi at the start is not finite$"):
            run_flow(PDirichlet1D(3.0, 15, L=1e-200), np.ones(15), 1e-3, 1e-2)
        # a huge start with a finite Phi(v0 / 2^k) is refused too: the flow reads Phi(v0)
        with pytest.raises(DegenerateInputError, match="^Phi at the start is not finite$"):
            run_flow(PDirichlet1D(3.0, 15), 1e300 * np.ones(15), 1e-3, 1e-2)


class TestSchemeCrossCheck:
    def test_flow_agrees_with_iteration(self):
        inst = PDirichlet1D(3.0, 9)
        _, s_it = iterate(inst, np.ones(9), IterOptions(rtol=1e-12, dtol=1e-9))
        _, s_fl = run_flow(inst, np.ones(9), 1e-3, 50.0, FlowOptions(rtol=1e-11, dtol=1e-8))
        assert s_fl.lambda_hat == pytest.approx(s_it.lambda_hat, rel=1e-4)


class TestPredictedStart:
    """The movement solves start at the predicted state, with the CLI's automatic step and horizon."""

    @staticmethod
    def _run(inst, u0):
        mu = rough_mu(inst, u0)
        return run_flow(inst, u0, 0.01 / mu, 50.0 / mu)

    @pytest.mark.parametrize("p", [8.0, 1.2])
    def test_dirichlet_flow_converges(self, p):
        # a movement solve of the p = 8 run stalls at step 30 if it starts at
        # the anchor, and one of the p = 1.2 run at step 5 if its penalty is
        # eps-smoothed
        inst = PDirichlet1D(p, 31)
        trace, summary = self._run(inst, np.ones(31))
        _, ref = iterate(inst, np.ones(31))
        assert summary.converged
        assert abs(summary.lambda_hat - ref.lambda_hat) <= 1e-10 * ref.lambda_hat
        assert check_decay(trace, summary.mu_hat, trace.rows[0].phi) == []

    @staticmethod
    def _count_iters(monkeypatch):
        iters = []
        solve = rayflow.flow.minimize_movement

        def counted(*args, **kwargs):
            rep = solve(*args, **kwargs)
            iters.append(rep.iters)
            return rep

        monkeypatch.setattr(rayflow.flow, "minimize_movement", counted)
        return iters

    @pytest.mark.parametrize(
        "make, bound", [(FractionalSeminorm1D, 1.8), (NeumannQuotient1D, 1.6)], ids=["fractional", "neumann"]
    )
    def test_few_inner_iterations_per_step(self, make, bound, monkeypatch):
        # mean iterations per solve: about 5.2 when every solve starts at its
        # anchor; 1.94 (fractional) and 1.75 (neumann) with the two-point
        # predictor at every step; 1.71 and 1.51 with the three-point one
        inst = make(3.0, 31)
        iters = self._count_iters(monkeypatch)
        _, summary = self._run(inst, start_vector(inst, "auto", 0))
        assert summary.converged
        assert np.mean(iters) <= bound

    def test_one_gradient_per_descent_state(self, monkeypatch):
        # the row-0 slope, then per solve descend's start and one gradient per
        # iteration: the tolerance scale and the next slope reuse them
        inst = FractionalSeminorm1D(3.0, 31)
        u0 = start_vector(inst, "auto", 0)
        mu = rough_mu(inst, u0)
        iters = self._count_iters(monkeypatch)
        calls = []
        gradient = inst.gradient
        monkeypatch.setattr(inst, "gradient", lambda u: calls.append(1) or gradient(u))
        _, summary = run_flow(inst, u0, 0.01 / mu, 50.0 / mu)
        assert summary.converged
        assert len(calls) == sum(iters) + len(iters) + 1

    def test_predictor_skips_the_start(self, monkeypatch):
        # one step fixes a Steklov state's interior by its boundary, so a
        # polynomial through the free start would overshoot; on the ground ray
        # from the second state on, every later prediction is accepted as is
        inst = Steklov1D(1.5, 31)
        u0 = start_vector(inst, "auto", 0)
        mu = rough_mu(inst, u0)
        iters = self._count_iters(monkeypatch)
        _, summary = run_flow(inst, u0, 0.01 / mu, 50.0 / mu)
        assert summary.converged
        assert iters[2:] == [0] * (len(iters) - 2)
